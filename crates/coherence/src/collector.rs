//! The Snoop Collector: combines per-agent snoop responses.
//!
//! "In our system, a central entity, referred to as the 'Snoop
//! Collector', monitors snoop responses from all bus agents in order to
//! determine the final snoop response" (paper §3). The combined response
//! is broadcast back to all agents; for snarf-eligible castouts the
//! collector additionally "choose[s] a winner in a fair round-robin
//! fashion from the set of L2 caches that are able to accept the cache
//! line".

use cmpsim_engine::telemetry::FillSource;

use crate::{BusTxn, L2Id, L3State, SnoopResponse, TxnKind};

/// Where the data for a read-class transaction comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSource {
    /// Cache-to-cache transfer from a peer L2 (faster than L3: 77 vs 167
    /// cycles). `dirty` records whether the provider held a dirty copy.
    L2 {
        /// The providing cache.
        provider: L2Id,
        /// Provider held `M`/`T`.
        dirty: bool,
    },
    /// The off-chip L3 victim cache.
    L3 {
        /// The line was dirty in the L3.
        dirty: bool,
    },
    /// Main memory (full 431-cycle penalty).
    Memory,
}

impl DataSource {
    /// Is this an on-chip L2-to-L2 intervention?
    pub fn is_intervention(self) -> bool {
        matches!(self, DataSource::L2 { .. })
    }

    /// Is this an off-chip access (L3 or memory)?
    pub fn is_off_chip(self) -> bool {
        !self.is_intervention()
    }

    /// The telemetry/span fill-source tag for this data source.
    pub fn fill_source(self) -> FillSource {
        match self {
            DataSource::L2 { .. } => FillSource::L2Peer,
            DataSource::L3 { .. } => FillSource::L3,
            DataSource::Memory => FillSource::Memory,
        }
    }
}

/// Final outcome of a castout (write-back) transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WbOutcome {
    /// The L3 already holds a valid copy of a *clean* castout: the data
    /// transfer is squashed (the baseline protocol's filter, §2).
    SquashedAlreadyInL3,
    /// A peer L2 already holds a valid copy: squashed (§5.2). For a
    /// dirty castout this transfers dirty ownership to that peer.
    SquashedPeerHasCopy(L2Id),
    /// A peer L2 absorbs ("snarfs") the castout (§3).
    SnarfedBy(L2Id),
    /// The L3 victim cache accepts the line. `was_present` is true when
    /// a *dirty* castout overwrote an existing (stale) L3 copy.
    AcceptedByL3 {
        /// A previous copy existed in the L3.
        was_present: bool,
    },
}

/// The combined snoop response broadcast to all agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombinedResponse {
    /// Read-class transaction: data will be provided by `source`;
    /// `sharers` records whether any other L2 keeps a copy afterwards
    /// (determines S vs SL/E/M install state at the requester).
    Read {
        /// The chosen data provider.
        source: DataSource,
        /// Other L2 copies remain after this transaction.
        sharers: bool,
    },
    /// Upgrade granted: all other copies are invalidated, no data moves.
    UpgradeOk,
    /// The transaction must be retried after a back-off
    /// ("may generate a retry bus response from the L3", §2).
    Retry {
        /// The retry was issued by the L3 (tracked separately: the paper
        /// reports "L3-issued Retries").
        l3_issued: bool,
    },
    /// Castout outcome.
    Wb(WbOutcome),
}

impl CombinedResponse {
    /// Is this a retry?
    pub fn is_retry(self) -> bool {
        matches!(self, CombinedResponse::Retry { .. })
    }
}

/// Combines snoop responses and arbitrates snarf winners.
#[derive(Debug, Clone, Default)]
pub struct SnoopCollector {
    /// Round-robin pointer for fair snarf-winner selection.
    rr_next: usize,
}

impl SnoopCollector {
    /// Creates a collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Combines the snoop responses for `txn` into the final response.
    ///
    /// `responses` must contain every agent's reply (order is
    /// irrelevant). The protocol invariant that at most one cache can
    /// intervene per line is checked in debug builds.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if two agents claim dirty ownership.
    pub fn combine(&mut self, txn: &BusTxn, responses: &[SnoopResponse]) -> CombinedResponse {
        match txn.kind {
            TxnKind::ReadShared | TxnKind::ReadExclusive => self.combine_read(txn, responses),
            TxnKind::Upgrade => self.combine_upgrade(responses),
            TxnKind::CastoutClean | TxnKind::CastoutDirty => self.combine_castout(txn, responses),
        }
    }

    fn combine_read(&mut self, txn: &BusTxn, responses: &[SnoopResponse]) -> CombinedResponse {
        let mut dirty_provider: Option<L2Id> = None;
        let mut clean_provider: Option<L2Id> = None;
        let mut shared_holders = 0usize;
        let mut l3_hit: Option<L3State> = None;
        let mut l3_retry = false;
        let mut l2_retry = false;
        for &r in responses {
            match r {
                SnoopResponse::DirtyIntervene(id) => {
                    debug_assert!(dirty_provider.is_none(), "two dirty owners for {txn}");
                    dirty_provider = Some(id);
                }
                SnoopResponse::CleanIntervene(id) => {
                    // Prefer the lowest id deterministically; at most one
                    // SL/E holder should exist, checked by system tests.
                    clean_provider = Some(match clean_provider {
                        Some(prev) if prev <= id => prev,
                        _ => id,
                    });
                }
                SnoopResponse::SharedNoIntervene(_) => shared_holders += 1,
                SnoopResponse::L3Hit(s) => l3_hit = Some(s),
                SnoopResponse::L3Retry => l3_retry = true,
                SnoopResponse::L2Retry(_) => l2_retry = true,
                SnoopResponse::L3Miss
                | SnoopResponse::L3Accept
                | SnoopResponse::MemoryAck
                | SnoopResponse::Null => {}
                SnoopResponse::SnarfAccept(_) | SnoopResponse::PeerHasCopy(_) => {
                    debug_assert!(false, "castout response to read txn {txn}");
                }
            }
        }
        if l2_retry {
            return CombinedResponse::Retry { l3_issued: false };
        }
        // Interventions win over the L3, which wins over memory.
        let source = if let Some(p) = dirty_provider {
            DataSource::L2 {
                provider: p,
                dirty: true,
            }
        } else if let Some(p) = clean_provider {
            DataSource::L2 {
                provider: p,
                dirty: false,
            }
        } else if l3_retry {
            // The L3 would have been the source but lacks resources.
            return CombinedResponse::Retry { l3_issued: true };
        } else if let Some(s) = l3_hit {
            DataSource::L3 {
                dirty: s.is_dirty(),
            }
        } else {
            DataSource::Memory
        };
        // For ReadExclusive every other copy is invalidated, so no
        // sharers remain regardless of who held what.
        let sharers = txn.kind == TxnKind::ReadShared
            && (dirty_provider.is_some() || clean_provider.is_some() || shared_holders > 0);
        CombinedResponse::Read { source, sharers }
    }

    fn combine_upgrade(&mut self, responses: &[SnoopResponse]) -> CombinedResponse {
        for &r in responses {
            if r.is_retry() {
                return CombinedResponse::Retry {
                    l3_issued: matches!(r, SnoopResponse::L3Retry),
                };
            }
        }
        CombinedResponse::UpgradeOk
    }

    fn combine_castout(&mut self, txn: &BusTxn, responses: &[SnoopResponse]) -> CombinedResponse {
        let mut peer_copy: Option<L2Id> = None;
        // Willing snarfers as a 256-bit set over L2 index: castouts are
        // hot enough that a per-call `Vec` (plus the sorted copy the old
        // round-robin made) showed up in profiles.
        let mut snarfers = [0u64; 4];
        let mut l3_hit = false;
        let mut l3_accept = false;
        let mut l3_retry = false;
        for &r in responses {
            match r {
                SnoopResponse::PeerHasCopy(id) => {
                    peer_copy = Some(match peer_copy {
                        Some(prev) if prev <= id => prev,
                        _ => id,
                    });
                }
                SnoopResponse::SnarfAccept(id) => {
                    let i = id.index();
                    snarfers[i >> 6] |= 1u64 << (i & 63);
                }
                SnoopResponse::L3Hit(_) => l3_hit = true,
                SnoopResponse::L3Accept => l3_accept = true,
                SnoopResponse::L3Retry => l3_retry = true,
                SnoopResponse::L2Retry(_) => {
                    return CombinedResponse::Retry { l3_issued: false };
                }
                _ => {}
            }
        }
        // A valid copy elsewhere always squashes the castout: for clean
        // castouts the data is redundant; for dirty castouts the peer
        // takes over dirty ownership (S -> T) without a data transfer
        // (it already holds the data).
        if let Some(id) = peer_copy {
            return CombinedResponse::Wb(WbOutcome::SquashedPeerHasCopy(id));
        }
        match txn.kind {
            TxnKind::CastoutClean => {
                if l3_hit {
                    // Baseline filter: the L3 cancels the data transfer.
                    return CombinedResponse::Wb(WbOutcome::SquashedAlreadyInL3);
                }
                if txn.snarf_eligible {
                    if let Some(winner) = self.pick_snarfer(&snarfers) {
                        return CombinedResponse::Wb(WbOutcome::SnarfedBy(winner));
                    }
                }
                if l3_accept {
                    CombinedResponse::Wb(WbOutcome::AcceptedByL3 { was_present: false })
                } else {
                    debug_assert!(l3_retry, "L3 must answer castouts");
                    CombinedResponse::Retry { l3_issued: true }
                }
            }
            TxnKind::CastoutDirty => {
                // Dirty data must land somewhere: a snarfer keeps it
                // on-chip, otherwise the L3 absorbs (overwriting any
                // stale copy it may hold).
                if txn.snarf_eligible {
                    if let Some(winner) = self.pick_snarfer(&snarfers) {
                        return CombinedResponse::Wb(WbOutcome::SnarfedBy(winner));
                    }
                }
                if l3_hit || l3_accept {
                    CombinedResponse::Wb(WbOutcome::AcceptedByL3 {
                        was_present: l3_hit,
                    })
                } else {
                    debug_assert!(l3_retry, "L3 must answer castouts");
                    CombinedResponse::Retry { l3_issued: true }
                }
            }
            _ => unreachable!("combine_castout called for non-castout"),
        }
    }

    /// Fair round-robin choice among willing snarfers. "The snoop
    /// response generation has to use a fair policy for selecting the
    /// cache to receive the line in order to distribute the snarfed
    /// write back load" (§3).
    ///
    /// `snarfers` is a 256-bit set over L2 index; the winner is the
    /// lowest member at or past the round-robin pointer, wrapping to the
    /// lowest member overall — the same choice the old sorted-`Vec` scan
    /// made, without the per-call allocations.
    fn pick_snarfer(&mut self, snarfers: &[u64; 4]) -> Option<L2Id> {
        let first_at_or_after = |from: usize| -> Option<usize> {
            if from >= 256 {
                return None;
            }
            let mut w = from >> 6;
            let mut bits = snarfers[w] & (!0u64 << (from & 63));
            loop {
                if bits != 0 {
                    return Some((w << 6) + bits.trailing_zeros() as usize);
                }
                w += 1;
                if w >= snarfers.len() {
                    return None;
                }
                bits = snarfers[w];
            }
        };
        let winner = first_at_or_after(self.rr_next).or_else(|| first_at_or_after(0))?;
        self.rr_next = winner + 1;
        Some(L2Id::new(winner as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TxnId, TxnKind};
    use cmpsim_cache::LineAddr;

    fn txn(kind: TxnKind) -> BusTxn {
        BusTxn::new(TxnId::ZERO, kind, LineAddr::new(100), L2Id::new(0))
    }

    #[test]
    fn dirty_intervention_beats_l3() {
        let mut c = SnoopCollector::new();
        let r = c.combine(
            &txn(TxnKind::ReadShared),
            &[
                SnoopResponse::L3Hit(L3State::Clean),
                SnoopResponse::DirtyIntervene(L2Id::new(2)),
                SnoopResponse::Null,
            ],
        );
        assert_eq!(
            r,
            CombinedResponse::Read {
                source: DataSource::L2 {
                    provider: L2Id::new(2),
                    dirty: true
                },
                sharers: true,
            }
        );
    }

    #[test]
    fn clean_intervention_beats_l3() {
        let mut c = SnoopCollector::new();
        let r = c.combine(
            &txn(TxnKind::ReadShared),
            &[
                SnoopResponse::CleanIntervene(L2Id::new(1)),
                SnoopResponse::L3Hit(L3State::Clean),
            ],
        );
        match r {
            CombinedResponse::Read { source, sharers } => {
                assert_eq!(
                    source,
                    DataSource::L2 {
                        provider: L2Id::new(1),
                        dirty: false
                    }
                );
                assert!(sharers);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn l3_hit_beats_memory() {
        let mut c = SnoopCollector::new();
        let r = c.combine(
            &txn(TxnKind::ReadShared),
            &[SnoopResponse::L3Hit(L3State::Dirty), SnoopResponse::Null],
        );
        assert_eq!(
            r,
            CombinedResponse::Read {
                source: DataSource::L3 { dirty: true },
                sharers: false,
            }
        );
    }

    #[test]
    fn miss_everywhere_goes_to_memory() {
        let mut c = SnoopCollector::new();
        let r = c.combine(
            &txn(TxnKind::ReadShared),
            &[SnoopResponse::L3Miss, SnoopResponse::MemoryAck],
        );
        assert_eq!(
            r,
            CombinedResponse::Read {
                source: DataSource::Memory,
                sharers: false,
            }
        );
    }

    #[test]
    fn l3_retry_only_matters_without_intervener() {
        let mut c = SnoopCollector::new();
        // With an intervener the L3 retry is ignored.
        let r = c.combine(
            &txn(TxnKind::ReadShared),
            &[
                SnoopResponse::CleanIntervene(L2Id::new(3)),
                SnoopResponse::L3Retry,
            ],
        );
        assert!(matches!(r, CombinedResponse::Read { .. }));
        // Without one it forces a retry, attributed to the L3.
        let r = c.combine(&txn(TxnKind::ReadShared), &[SnoopResponse::L3Retry]);
        assert_eq!(r, CombinedResponse::Retry { l3_issued: true });
    }

    #[test]
    fn read_exclusive_reports_no_sharers() {
        let mut c = SnoopCollector::new();
        let r = c.combine(
            &txn(TxnKind::ReadExclusive),
            &[
                SnoopResponse::SharedNoIntervene(L2Id::new(1)),
                SnoopResponse::L3Hit(L3State::Clean),
            ],
        );
        assert_eq!(
            r,
            CombinedResponse::Read {
                source: DataSource::L3 { dirty: false },
                sharers: false,
            }
        );
    }

    #[test]
    fn upgrade_ok_and_retry() {
        let mut c = SnoopCollector::new();
        assert_eq!(
            c.combine(
                &txn(TxnKind::Upgrade),
                &[SnoopResponse::SharedNoIntervene(L2Id::new(1))]
            ),
            CombinedResponse::UpgradeOk
        );
        assert_eq!(
            c.combine(
                &txn(TxnKind::Upgrade),
                &[SnoopResponse::L2Retry(L2Id::new(1))]
            ),
            CombinedResponse::Retry { l3_issued: false }
        );
    }

    #[test]
    fn clean_castout_squashed_by_l3_presence() {
        let mut c = SnoopCollector::new();
        let r = c.combine(
            &txn(TxnKind::CastoutClean),
            &[SnoopResponse::L3Hit(L3State::Clean)],
        );
        assert_eq!(r, CombinedResponse::Wb(WbOutcome::SquashedAlreadyInL3));
    }

    #[test]
    fn clean_castout_accepted_by_l3() {
        let mut c = SnoopCollector::new();
        let r = c.combine(&txn(TxnKind::CastoutClean), &[SnoopResponse::L3Accept]);
        assert_eq!(
            r,
            CombinedResponse::Wb(WbOutcome::AcceptedByL3 { was_present: false })
        );
    }

    #[test]
    fn clean_castout_l3_full_retries() {
        let mut c = SnoopCollector::new();
        let r = c.combine(&txn(TxnKind::CastoutClean), &[SnoopResponse::L3Retry]);
        assert_eq!(r, CombinedResponse::Retry { l3_issued: true });
    }

    #[test]
    fn peer_copy_squashes_castout() {
        let mut c = SnoopCollector::new();
        let r = c.combine(
            &txn(TxnKind::CastoutClean).with_snarf(),
            &[
                SnoopResponse::PeerHasCopy(L2Id::new(2)),
                SnoopResponse::SnarfAccept(L2Id::new(3)),
                SnoopResponse::L3Accept,
            ],
        );
        assert_eq!(
            r,
            CombinedResponse::Wb(WbOutcome::SquashedPeerHasCopy(L2Id::new(2)))
        );
    }

    #[test]
    fn snarf_beats_l3_accept_when_eligible() {
        let mut c = SnoopCollector::new();
        let r = c.combine(
            &txn(TxnKind::CastoutClean).with_snarf(),
            &[
                SnoopResponse::SnarfAccept(L2Id::new(1)),
                SnoopResponse::L3Accept,
            ],
        );
        assert_eq!(r, CombinedResponse::Wb(WbOutcome::SnarfedBy(L2Id::new(1))));
    }

    #[test]
    fn snarf_ignored_when_not_eligible() {
        let mut c = SnoopCollector::new();
        let r = c.combine(
            &txn(TxnKind::CastoutClean),
            &[
                SnoopResponse::SnarfAccept(L2Id::new(1)),
                SnoopResponse::L3Accept,
            ],
        );
        assert_eq!(
            r,
            CombinedResponse::Wb(WbOutcome::AcceptedByL3 { was_present: false })
        );
    }

    #[test]
    fn snarf_round_robin_is_fair() {
        let mut c = SnoopCollector::new();
        let all = [
            SnoopResponse::SnarfAccept(L2Id::new(1)),
            SnoopResponse::SnarfAccept(L2Id::new(2)),
            SnoopResponse::SnarfAccept(L2Id::new(3)),
        ];
        let t = txn(TxnKind::CastoutClean).with_snarf();
        let mut winners = Vec::new();
        for _ in 0..6 {
            match c.combine(&t, &all) {
                CombinedResponse::Wb(WbOutcome::SnarfedBy(id)) => winners.push(id.index()),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Rotates through 1, 2, 3 and wraps.
        assert_eq!(winners, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn dirty_castout_overwrites_stale_l3_copy() {
        let mut c = SnoopCollector::new();
        let r = c.combine(
            &txn(TxnKind::CastoutDirty),
            &[SnoopResponse::L3Hit(L3State::Clean)],
        );
        assert_eq!(
            r,
            CombinedResponse::Wb(WbOutcome::AcceptedByL3 { was_present: true })
        );
    }

    #[test]
    fn dirty_castout_peer_takes_ownership() {
        let mut c = SnoopCollector::new();
        let r = c.combine(
            &txn(TxnKind::CastoutDirty).with_snarf(),
            &[
                SnoopResponse::PeerHasCopy(L2Id::new(1)),
                SnoopResponse::L3Accept,
            ],
        );
        assert_eq!(
            r,
            CombinedResponse::Wb(WbOutcome::SquashedPeerHasCopy(L2Id::new(1)))
        );
    }

    #[test]
    fn data_source_classification() {
        assert!(DataSource::L2 {
            provider: L2Id::new(0),
            dirty: false
        }
        .is_intervention());
        assert!(DataSource::L3 { dirty: false }.is_off_chip());
        assert!(DataSource::Memory.is_off_chip());
    }

    #[test]
    fn data_source_maps_to_fill_source() {
        let l2 = DataSource::L2 {
            provider: L2Id::new(3),
            dirty: true,
        };
        assert_eq!(l2.fill_source(), FillSource::L2Peer);
        assert_eq!(
            DataSource::L3 { dirty: false }.fill_source(),
            FillSource::L3
        );
        assert_eq!(DataSource::Memory.fill_source(), FillSource::Memory);
    }
}
