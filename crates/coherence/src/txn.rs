//! Bus transactions and snoop responses.

use std::fmt;

use cmpsim_cache::LineAddr;
use cmpsim_engine::spans::{SpanId, SpanKind};

use crate::{L2Id, L3State, TxnId};

/// The kind of an address-ring transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// Load miss: read with intent to share.
    ReadShared,
    /// Store miss: read with intent to modify (all other copies die).
    ReadExclusive,
    /// Store hit on a shared copy: invalidate other copies, no data.
    Upgrade,
    /// Castout of a dirty victim (must be absorbed somewhere).
    CastoutDirty,
    /// Castout of a clean victim (performance hint only; paper §2).
    CastoutClean,
}

impl TxnKind {
    /// Is this a write-back style transaction?
    pub fn is_castout(self) -> bool {
        matches!(self, TxnKind::CastoutDirty | TxnKind::CastoutClean)
    }
}

impl fmt::Display for TxnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TxnKind::ReadShared => "read",
            TxnKind::ReadExclusive => "rwitm",
            TxnKind::Upgrade => "upgrade",
            TxnKind::CastoutDirty => "castout-dirty",
            TxnKind::CastoutClean => "castout-clean",
        };
        f.write_str(s)
    }
}

/// One address-ring transaction, as snooped by every agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusTxn {
    /// Unique id for correlating snoop responses.
    pub id: TxnId,
    /// Transaction type.
    pub kind: TxnKind,
    /// The line concerned.
    pub line: LineAddr,
    /// The requesting L2.
    pub src: L2Id,
    /// Snarf-eligible bit: set by the source when its reuse table says
    /// this castout line has high reuse potential ("a special bus
    /// transaction bit is set to trigger the snarf algorithm at snooping
    /// L2 caches", §3).
    pub snarf_eligible: bool,
}

impl BusTxn {
    /// Convenience constructor for a non-snarf transaction.
    pub fn new(id: TxnId, kind: TxnKind, line: LineAddr, src: L2Id) -> Self {
        BusTxn {
            id,
            kind,
            line,
            src,
            snarf_eligible: false,
        }
    }

    /// Returns a copy with the snarf-eligible bit set.
    pub fn with_snarf(mut self) -> Self {
        self.snarf_eligible = true;
        self
    }

    /// The transaction's span id for latency tracing. Transaction ids are
    /// unique for the life of a run and stable across retries (the same
    /// `BusTxn` is re-issued), so the id doubles as the span identity.
    pub fn span_id(&self) -> SpanId {
        self.id.raw()
    }

    /// The span kind this transaction maps to.
    pub fn span_kind(&self) -> SpanKind {
        match self.kind {
            TxnKind::ReadShared | TxnKind::ReadExclusive => SpanKind::Miss,
            TxnKind::Upgrade => SpanKind::Upgrade,
            TxnKind::CastoutDirty | TxnKind::CastoutClean => SpanKind::Castout,
        }
    }
}

impl fmt::Display for BusTxn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} from {}",
            self.id, self.kind, self.line, self.src
        )?;
        if self.snarf_eligible {
            f.write_str(" [snarf]")?;
        }
        Ok(())
    }
}

/// Which protocol path a transaction travels: the demand-miss path
/// (read/RWITM/upgrade through the snoop window to a fill) or the
/// write-back path (castout through WBHT filtering, squash/snarf
/// arbitration, or L3 acceptance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnPath {
    /// Demand miss or upgrade from an L2.
    Miss,
    /// Castout of an evicted victim.
    Castout {
        /// Whether the victim carries dirty data (dirty castouts must be
        /// absorbed somewhere; clean ones are performance hints).
        dirty: bool,
    },
}

/// Per-transaction pipeline state, threaded explicitly between the
/// protocol phases (bus issue → snoop collection → completion) instead
/// of living in ad-hoc event payloads. The same `TxnState` is re-issued
/// on retries with only `attempt` bumped, so span identity and the
/// retry back-off jitter stay stable across attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnState {
    /// The address-ring transaction as every agent snoops it.
    pub txn: BusTxn,
    /// Which protocol path the transaction is on.
    pub path: TxnPath,
    /// Bus attempts so far (0 on first issue; each retry increments).
    pub attempt: u32,
}

impl TxnState {
    /// A first-attempt transaction on the demand-miss path.
    pub fn miss(txn: BusTxn) -> Self {
        TxnState {
            txn,
            path: TxnPath::Miss,
            attempt: 0,
        }
    }

    /// A first-attempt transaction on the write-back path.
    pub fn castout(txn: BusTxn, dirty: bool) -> Self {
        TxnState {
            txn,
            path: TxnPath::Castout { dirty },
            attempt: 0,
        }
    }

    /// The state to re-issue after a retry-class combined response:
    /// the same transaction, one more attempt.
    pub fn retried(mut self) -> Self {
        self.attempt += 1;
        self
    }
}

/// One agent's snoop reply to a [`BusTxn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnoopResponse {
    /// No involvement (line absent, or nothing to contribute).
    Null,
    /// An L2 holds the line in a non-intervention shared state.
    SharedNoIntervene(L2Id),
    /// An L2 holds the line clean and can source an intervention
    /// (`SL` or `E`).
    CleanIntervene(L2Id),
    /// An L2 holds the line dirty (`M`/`T`) and will source the data.
    DirtyIntervene(L2Id),
    /// An L2 cannot process the snoop right now (resource conflict);
    /// the transaction must be retried.
    L2Retry(L2Id),
    /// The L3 has the line in the given state.
    L3Hit(L3State),
    /// The L3 does not have the line but can absorb a castout.
    L3Accept,
    /// The L3 does not have the line and has no castout to handle.
    L3Miss,
    /// The L3 has insufficient resources (incoming queue full):
    /// retry the transaction (§2: "Lines may be rejected by the L3 if
    /// there are not enough hardware resources").
    L3Retry,
    /// A peer L2 is willing to absorb (snarf) this castout (§3).
    SnarfAccept(L2Id),
    /// A peer L2 already holds a valid copy of the castout line, so the
    /// write-back is useless: squash it (§5.2).
    PeerHasCopy(L2Id),
    /// Memory can always sink/source the line (on its dedicated path).
    MemoryAck,
}

impl SnoopResponse {
    /// Is this a retry-class response?
    pub fn is_retry(self) -> bool {
        matches!(self, SnoopResponse::L2Retry(_) | SnoopResponse::L3Retry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn castout_classification() {
        assert!(TxnKind::CastoutClean.is_castout());
        assert!(TxnKind::CastoutDirty.is_castout());
        assert!(!TxnKind::ReadShared.is_castout());
        assert!(!TxnKind::Upgrade.is_castout());
    }

    #[test]
    fn snarf_bit() {
        let t = BusTxn::new(
            TxnId::ZERO,
            TxnKind::CastoutClean,
            LineAddr::new(4),
            L2Id::new(1),
        );
        assert!(!t.snarf_eligible);
        let t2 = t.with_snarf();
        assert!(t2.snarf_eligible);
        assert!(t2.to_string().contains("[snarf]"));
    }

    #[test]
    fn retry_classification() {
        assert!(SnoopResponse::L3Retry.is_retry());
        assert!(SnoopResponse::L2Retry(L2Id::new(0)).is_retry());
        assert!(!SnoopResponse::Null.is_retry());
        assert!(!SnoopResponse::L3Hit(L3State::Clean).is_retry());
    }

    #[test]
    fn txn_state_paths_and_retries() {
        let t = BusTxn::new(
            TxnId::ZERO,
            TxnKind::ReadShared,
            LineAddr::new(4),
            L2Id::new(1),
        );
        let m = TxnState::miss(t);
        assert_eq!(m.path, TxnPath::Miss);
        let c = TxnState::castout(t, true);
        assert_eq!(c.path, TxnPath::Castout { dirty: true });
        let r = c.retried().retried();
        assert_eq!(r.attempt, 2);
        // The transaction itself (and so span identity) is unchanged.
        assert_eq!(r.txn, c.txn);
    }

    #[test]
    fn txn_display() {
        let t = BusTxn::new(
            TxnId::ZERO,
            TxnKind::ReadShared,
            LineAddr::new(4),
            L2Id::new(1),
        );
        let s = t.to_string();
        assert!(s.contains("read"));
        assert!(s.contains("L2#1"));
    }
}
