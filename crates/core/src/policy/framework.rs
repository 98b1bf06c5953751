//! The [`PolicyStack`]: the configured adaptive mechanisms the `System`
//! dispatches through.
//!
//! The stack holds each mechanism (WBHT, reuse-distance copy-back,
//! snarf, hybrid update/invalidate) as a concrete, optional field, plus
//! the retry-rate switch they may consult. The pipeline stages call
//! fixed hook points on the stack instead of reaching into mechanism
//! state, so mechanisms compose freely (`--policy wbht+hybrid`) and the
//! pipeline never names one.
//!
//! # Hook points and ordering guarantees
//!
//! | Hook                        | Pipeline stage (caller)               |
//! |-----------------------------|---------------------------------------|
//! | `on_castout_candidate`      | `castout::handle_wb_drain`, clean victims only, after the retry-switch gate is sampled and (with a WBHT) the L3 presence peek is taken |
//! | `on_castout_issued`         | `castout::bus_issue_castout`, first attempt only, before the castout telemetry event |
//! | `snarf_eligible`            | `castout::handle_wb_drain`, after the abort decision allowed the write-back |
//! | `on_snarf_arbitration`      | `castout::bus_issue_castout`, at combine time, before audit allow-resolution |
//! | `observe_combined_response` | `bus_issue::apply_read`, after write-back-reuse accounting, before the install matrix |
//! | `note_redundant_copy_back`  | `castout` squash paths (shared and private L3), at combine time |
//! | `on_store_to_shared`        | `frontend::process_reference`, stores hitting non-writable lines, before the Upgrade is issued |
//! | `knows_line`                | `fill` victim selection (history-aware replacement) |
//!
//! Mechanisms are consulted in a fixed order (WBHT, reuse-distance,
//! snarf, hybrid); the first abort verdict short-circuits. Which hook
//! sites run at all follows from the configuration: the pipeline asks
//! [`PolicyStack::filters_clean_castouts`], [`PolicyStack::knows_lines`]
//! and [`PolicyStack::adapts_coherence`] before computing a hook's
//! context, so a baseline run skips them entirely. Decision lineage: the
//! `System` records every castout verdict and coherence action with the
//! decision-audit layer, so each mechanism gets abort-precision and
//! useful-snarf outcome tracking without audit code of its own.

use cmpsim_cache::{GeometryError, InsertPosition, LineAddr};
use cmpsim_coherence::L2Id;
use cmpsim_engine::telemetry::Telemetry;
use cmpsim_engine::Cycle;

use super::hybrid::{CoherenceAction, HybridStats, HybridUpdateInvalidate};
use super::rdcb::{RdcbStats, ReuseDistanceCopyBack};
use super::retry_switch::{RetrySwitch, RetrySwitchConfig};
use super::snarf::{SnarfStats, SnarfTable};
use super::wbht::{UpdateScope, Wbht, WbhtStats};
use super::PolicyConfig;

/// Context for a clean castout candidate about to drain from a WBQ.
#[derive(Debug, Clone, Copy)]
pub struct CastoutCtx {
    /// Drain time.
    pub now: Cycle,
    /// The evicting L2.
    pub l2: usize,
    /// The clean victim line.
    pub line: LineAddr,
    /// Retry-rate switch state at `now` (`true` when no configured
    /// mechanism uses the switch).
    pub engaged: bool,
    /// Whether the L3 (shared or this L2's private slice) already holds
    /// the line. Peeked only when a WBHT is configured
    /// ([`PolicyStack::reads_l3_presence`]) and `engaged`, the one case
    /// it is read (the WBHT's correctness count); `false` otherwise.
    pub in_l3: bool,
}

/// Verdict for a castout candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CastoutDecision {
    /// Let the write-back proceed.
    Allow,
    /// Drop the clean victim without writing it back.
    Abort,
}

/// Context for a combined read/read-exclusive response (a miss that is
/// about to fill).
#[derive(Debug, Clone, Copy)]
pub struct ResponseCtx {
    /// Combine time.
    pub now: Cycle,
    /// The requesting L2.
    pub l2: usize,
    /// The missing line.
    pub line: LineAddr,
}

/// The configured adaptive mechanisms, each present only when the
/// [`PolicyConfig`] selects it, plus the shared retry-rate switch.
#[derive(Debug)]
pub struct PolicyStack {
    /// One write-back history table per L2 and the scope of its
    /// redundancy updates (§2); gated by the retry-rate switch.
    wbht: Option<(Vec<Wbht>, UpdateScope)>,
    /// One sampled reuse-distance predictor per L2.
    rdcb: Option<Vec<ReuseDistanceCopyBack>>,
    /// The chip-wide snarf reuse table and the insert position for
    /// lines it places into peers (§3).
    snarf: Option<(SnarfTable, InsertPosition)>,
    /// The chip-wide hybrid update/invalidate mode table.
    hybrid: Option<HybridUpdateInvalidate>,
    retry_switch: RetrySwitch,
}

impl PolicyStack {
    /// Builds the stack for a policy configuration: one instance of each
    /// configured mechanism, per L2 where the mechanism is per-L2.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] when a table geometry is invalid.
    pub fn new(
        cfg: &PolicyConfig,
        num_l2: usize,
        retry: RetrySwitchConfig,
    ) -> Result<Self, GeometryError> {
        let wbht = match cfg.wbht {
            Some(w) => Some((
                (0..num_l2)
                    .map(|_| Wbht::new(w))
                    .collect::<Result<_, _>>()?,
                w.scope,
            )),
            None => None,
        };
        let rdcb = cfg
            .rdcb
            .map(|r| (0..num_l2).map(|_| ReuseDistanceCopyBack::new(r)).collect())
            .transpose()?;
        let snarf = match cfg.snarf {
            Some(s) => Some((SnarfTable::new(s)?, s.insert_pos)),
            None => None,
        };
        let hybrid = cfg.hybrid.map(HybridUpdateInvalidate::new).transpose()?;
        Ok(PolicyStack {
            wbht,
            rdcb,
            snarf,
            hybrid,
            retry_switch: RetrySwitch::new(retry),
        })
    }

    /// Does a configured mechanism filter clean castouts (WBHT, rdcb)?
    #[inline]
    pub fn filters_clean_castouts(&self) -> bool {
        self.wbht.is_some() || self.rdcb.is_some()
    }

    /// Does a configured castout filter read [`CastoutCtx::in_l3`]
    /// (WBHT)? Without one the drain skips the L3 presence peek.
    #[inline]
    pub fn reads_l3_presence(&self) -> bool {
        self.wbht.is_some()
    }

    /// Does a configured mechanism keep line history for victim
    /// selection (WBHT)?
    #[inline]
    pub fn knows_lines(&self) -> bool {
        self.wbht.is_some()
    }

    /// Does a configured mechanism decide update-vs-invalidate on
    /// stores to shared lines (hybrid)?
    #[inline]
    pub fn adapts_coherence(&self) -> bool {
        self.hybrid.is_some()
    }

    /// Attaches an event-trace handle to the switch and the mechanisms
    /// that emit events.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.retry_switch.attach_telemetry(telemetry.clone());
        if let Some((tables, _)) = &mut self.wbht {
            for (i, w) in tables.iter_mut().enumerate() {
                w.attach_telemetry(telemetry.clone(), i as u32);
            }
        }
        if let Some((table, _)) = &mut self.snarf {
            table.attach_telemetry(telemetry.clone());
        }
    }

    /// Records one bus retry (feeds the retry-rate switch).
    #[inline]
    pub fn record_retry(&mut self, now: Cycle) {
        self.retry_switch.record_retry(now);
    }

    /// (engaged windows, total completed windows) of the retry switch.
    pub fn retry_window_counts(&self) -> (u64, u64) {
        self.retry_switch.window_counts()
    }

    /// Samples the retry-rate switch for a castout-candidate gate:
    /// `true` when no configured mechanism uses the switch (the gate is
    /// then unconditional for the mechanisms that do filter).
    #[inline]
    pub fn castout_gate_engaged(&mut self, now: Cycle) -> bool {
        if self.wbht.is_some() {
            self.retry_switch.engaged(now)
        } else {
            true
        }
    }

    /// Consults the filtering mechanisms on a clean castout candidate;
    /// the first veto wins.
    #[inline]
    pub fn on_castout_candidate(&mut self, ctx: &CastoutCtx) -> CastoutDecision {
        if let Some((tables, _)) = &mut self.wbht {
            if tables[ctx.l2].should_abort(ctx.now, ctx.line, ctx.engaged, ctx.in_l3) {
                return CastoutDecision::Abort;
            }
        }
        if let Some(predictors) = &mut self.rdcb {
            if predictors[ctx.l2].should_abort(ctx.line) {
                return CastoutDecision::Abort;
            }
        }
        CastoutDecision::Allow
    }

    /// A castout hit the ring (first attempt).
    #[inline]
    pub fn on_castout_issued(&mut self, line: LineAddr) {
        if let Some((table, _)) = &mut self.snarf {
            table.observe_writeback(line);
        }
    }

    /// Should this write-back be offered for snarfing?
    #[inline]
    pub fn snarf_eligible(&mut self, line: LineAddr) -> bool {
        match &mut self.snarf {
            Some((table, _)) => table.check_eligible(line),
            None => false,
        }
    }

    /// A snarf-eligible castout combined; `winner` is the accepting L2.
    #[inline]
    pub fn on_snarf_arbitration(&self, now: Cycle, l2: u32, line: LineAddr, winner: Option<u32>) {
        if let Some((table, _)) = &self.snarf {
            table.record_arbitration(now, l2, line, winner);
        }
    }

    /// A miss combined and is about to fill.
    #[inline]
    pub fn observe_combined_response(&mut self, ctx: &ResponseCtx) {
        if let Some(predictors) = &mut self.rdcb {
            predictors[ctx.l2].observe_miss(ctx.line);
        }
        if let Some((table, _)) = &mut self.snarf {
            table.observe_miss(ctx.line);
        }
        if let Some(dir) = &mut self.hybrid {
            dir.observe_miss(ctx.now, ctx.line);
        }
    }

    /// A clean write-back from `src` was squashed as redundant.
    #[inline]
    pub fn note_redundant_copy_back(&mut self, now: Cycle, src: L2Id, line: LineAddr) {
        match &mut self.wbht {
            Some((tables, UpdateScope::Local)) => tables[src.index()].note_redundant(now, line),
            Some((tables, UpdateScope::Global)) => {
                for w in tables {
                    w.note_redundant(now, line);
                }
            }
            None => {}
        }
    }

    /// Does the WBHT's history say `l2` recently saw `line`?
    #[inline]
    pub fn knows_line(&self, l2: usize, line: LineAddr) -> bool {
        self.wbht
            .as_ref()
            .is_some_and(|(tables, _)| tables[l2].knows(line))
    }

    /// Insert position for snarfed lines (MRU when snarfing is off).
    pub fn snarf_insert_pos(&self) -> InsertPosition {
        self.snarf
            .as_ref()
            .map_or(InsertPosition::Mru, |&(_, pos)| pos)
    }

    /// Update-vs-invalidate verdict for a store to a shared line; the
    /// base protocol (invalidate) applies without the hybrid mechanism.
    #[inline]
    pub fn on_store_to_shared(&mut self, now: Cycle, line: LineAddr) -> CoherenceAction {
        match &mut self.hybrid {
            Some(dir) => dir.on_store_to_shared(now, line),
            None => CoherenceAction::Invalidate,
        }
    }

    /// Merged WBHT counters across the per-L2 tables (all-zero when the
    /// WBHT is not configured).
    pub fn wbht_stats(&self) -> WbhtStats {
        let mut merged = WbhtStats::default();
        for t in self.wbht.iter().flat_map(|(tables, _)| tables) {
            let s = t.stats();
            merged.decisions += s.decisions;
            merged.aborted += s.aborted;
            merged.correct += s.correct;
            merged.allocated += s.allocated;
        }
        merged
    }

    /// Snarf reuse-table counters, when snarfing is configured.
    pub fn snarf_stats(&self) -> Option<SnarfStats> {
        self.snarf.as_ref().map(|(table, _)| table.stats())
    }

    /// Merged reuse-distance predictor counters, when configured.
    pub fn rdcb_stats(&self) -> Option<RdcbStats> {
        self.rdcb.as_ref().map(|predictors| {
            let mut merged = RdcbStats::default();
            for p in predictors {
                let s = p.stats();
                merged.decisions += s.decisions;
                merged.aborted += s.aborted;
                merged.trained += s.trained;
                merged.unknown += s.unknown;
            }
            merged
        })
    }

    /// Hybrid update/invalidate counters, when configured.
    pub fn hybrid_stats(&self) -> Option<HybridStats> {
        self.hybrid.as_ref().map(HybridUpdateInvalidate::stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{HybridConfig, RdcbConfig, SnarfConfig, WbhtConfig};

    fn line(raw: u64) -> LineAddr {
        LineAddr::new(raw)
    }

    fn stack(cfg: PolicyConfig) -> PolicyStack {
        PolicyStack::new(&cfg, 4, RetrySwitchConfig::default()).unwrap()
    }

    #[test]
    fn baseline_stack_has_no_capabilities() {
        let s = stack(PolicyConfig::baseline());
        assert!(!s.filters_clean_castouts());
        assert!(!s.knows_lines());
        assert!(!s.adapts_coherence());
        assert_eq!(s.wbht_stats(), WbhtStats::default());
        assert!(s.snarf_stats().is_none());
        assert!(s.rdcb_stats().is_none());
        assert!(s.hybrid_stats().is_none());
    }

    #[test]
    fn capabilities_follow_the_configuration() {
        let s = stack(PolicyConfig::combined_paper());
        assert!(s.filters_clean_castouts());
        assert!(s.knows_lines());
        assert!(!s.adapts_coherence());

        let s = stack(PolicyConfig::rdcb(RdcbConfig::default()));
        assert!(s.filters_clean_castouts());
        assert!(!s.knows_lines(), "rdcb keeps no line history");

        let s = stack(PolicyConfig::hybrid(HybridConfig::default()));
        assert!(s.adapts_coherence());
        assert!(!s.filters_clean_castouts());
    }

    #[test]
    fn only_a_wbht_reads_l3_presence() {
        for (spec, reads) in [
            ("wbht", true),
            ("combined", true),
            ("rdcb", false),
            ("rdcb+hybrid", false),
        ] {
            let cfg = PolicyConfig::parse(spec, 1024, UpdateScope::Local, 1).unwrap();
            assert_eq!(stack(cfg).reads_l3_presence(), reads, "{spec}");
        }
    }

    #[test]
    fn rdcb_vetoes_through_the_stack() {
        let mut s = stack(PolicyConfig::rdcb(RdcbConfig {
            entries: 256,
            assoc: 4,
            sample_shift: 0,
            max_distance: 2,
        }));
        // Train a distance of 8 on L2 0 (above the bound of 2).
        s.observe_combined_response(&ResponseCtx {
            now: 0,
            l2: 0,
            line: line(1),
        });
        for k in 0..7 {
            s.observe_combined_response(&ResponseCtx {
                now: 0,
                l2: 0,
                line: line(100 + k),
            });
        }
        s.observe_combined_response(&ResponseCtx {
            now: 0,
            l2: 0,
            line: line(1),
        });
        let ctx = CastoutCtx {
            now: 10,
            l2: 0,
            line: line(1),
            engaged: true,
            in_l3: false,
        };
        assert_eq!(s.on_castout_candidate(&ctx), CastoutDecision::Abort);
        // The other L2's predictor is untrained: allow.
        let ctx = CastoutCtx { l2: 1, ..ctx };
        assert_eq!(s.on_castout_candidate(&ctx), CastoutDecision::Allow);
        assert_eq!(s.rdcb_stats().unwrap().aborted, 1);
    }

    #[test]
    fn snarf_insert_pos_defaults_to_mru() {
        let s = stack(PolicyConfig::baseline());
        assert_eq!(s.snarf_insert_pos(), InsertPosition::Mru);
        let s = stack(PolicyConfig::snarf(SnarfConfig {
            entries: 512,
            insert_pos: InsertPosition::Lru,
            ..Default::default()
        }));
        assert_eq!(s.snarf_insert_pos(), InsertPosition::Lru);
    }

    #[test]
    fn castout_gate_is_unconditional_without_the_switch() {
        let mut s = stack(PolicyConfig::rdcb(RdcbConfig::default()));
        assert!(s.castout_gate_engaged(0), "no switch user: always engaged");
        let mut s = stack(PolicyConfig::wbht(WbhtConfig::default()));
        assert!(!s.castout_gate_engaged(0), "switch starts disengaged");
    }

    #[test]
    fn composed_filters_short_circuit_on_first_veto() {
        // WBHT stacked with rdcb: an untrained rdcb never vetoes, so a
        // WBHT-known line under an engaged gate still aborts.
        let mut s = stack(PolicyConfig {
            wbht: Some(WbhtConfig {
                entries: 512,
                ..Default::default()
            }),
            rdcb: Some(RdcbConfig {
                entries: 256,
                assoc: 4,
                ..Default::default()
            }),
            ..Default::default()
        });
        s.note_redundant_copy_back(0, L2Id::new(0), line(7));
        let ctx = CastoutCtx {
            now: 10,
            l2: 0,
            line: line(7),
            engaged: true,
            in_l3: false,
        };
        assert_eq!(s.on_castout_candidate(&ctx), CastoutDecision::Abort);
        let r = s.rdcb_stats().unwrap();
        assert_eq!(r.decisions, 0, "short-circuit must skip the second filter");
    }
}
