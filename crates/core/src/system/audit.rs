//! Decision-quality audit: outcome lineage for the adaptive mechanisms.
//!
//! The WBHT (§2) and the snarf mechanism (§3) make per-line predictions
//! — *this clean castout is redundant*, *this evicted line will be
//! wanted by a peer* — and the base statistics only count how often each
//! mechanism fired, never whether a given decision turned out to be
//! right. The [`DecisionAudit`] closes that loop: every WBHT verdict and
//! every snarf placement registers a pending outcome record, and the
//! later pipeline stages resolve it:
//!
//! * **WBHT abort** → *correct* when the line is never re-missed or the
//!   re-miss is served by the L3/a peer (the castout really was
//!   redundant), *mispredict* when the re-miss escalates to memory (the
//!   dropped write-back cost a full memory fill, whose measured latency
//!   is charged as the penalty).
//! * **WBHT allow** → *redundant* when the castout is squashed because
//!   the L3 already held the line (a missed abort opportunity).
//! * **Snarf** → *useful* when the absorbed line later serves a local
//!   hit or a ring intervention, *wasted* when it is evicted (or the run
//!   ends) untouched; placements that displaced a resident victim are
//!   tallied separately.
//! * **Coherence** (hybrid update/invalidate policy only) → each store
//!   to a shared line is tallied by the action the policy chose; the
//!   policy's own regret tracking grades the invalidations.
//!
//! This module owns the *resolution* half: recording verdicts and
//! matching each to its eventual outcome. Aggregation, derived rates
//! and the metrics-registry section live in
//! [`audit_report`](super::audit_report).
//!
//! Net-cycle accounting uses the *measured* re-miss latency for
//! mispredict penalties and first-order link-latency estimates from the
//! [`SystemConfig`] for the credits (a skipped castout saves one L3-link
//! transfer; a useful snarf saves roughly one memory-link round trip).
//!
//! Like every observability layer in this codebase the audit is
//! zero-cost when off: the `System` holds an `Option<Box<DecisionAudit>>`
//! and every hook is one `if let` branch, so disabled runs stay
//! byte-identical.

use cmpsim_engine::hash::{FxHashMap, FxHashSet};
use cmpsim_engine::stream::DecisionFrame;
use cmpsim_engine::Cycle;

use super::audit_report::DecisionAuditSummary;
use crate::config::SystemConfig;

/// Per-L2 decision-quality counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L2DecisionStats {
    /// WBHT verdicts audited (every clean castout drained under a WBHT
    /// policy, whether or not the retry switch had the filter engaged).
    pub wbht_decisions: u64,
    /// Verdicts taken while the retry-rate switch had filtering engaged.
    pub decisions_engaged: u64,
    /// Abort verdicts (castout dropped).
    pub aborts: u64,
    /// Aborts whose line was never re-missed, or re-missed but served by
    /// the L3 or a peer L2 (the write-back really was redundant).
    pub aborts_correct: u64,
    /// Aborts whose line was re-missed all the way to memory.
    pub aborts_mispredicted: u64,
    /// Allow verdicts (castout issued).
    pub allows: u64,
    /// Allows squashed by the L3 as already-present — missed aborts.
    pub allows_redundant: u64,
    /// Snarf placements absorbed by this L2.
    pub snarfs: u64,
    /// Snarfed lines that served a local hit or a ring intervention.
    pub snarfs_useful: u64,
    /// Snarfed lines retired (or still resident at run end) untouched.
    pub snarfs_wasted: u64,
    /// Snarf placements that displaced a resident line.
    pub snarfs_displacing: u64,
    /// Wasted placements that also displaced a resident line (the only
    /// ones charged a displacement cost — a useful snarf earned its
    /// slot).
    pub snarfs_wasted_displacing: u64,
    /// Sum of measured re-miss latencies charged to mispredicted aborts,
    /// less the estimated L3-fill latency each would have paid anyway.
    pub mispredict_penalty_cycles: u64,
}

impl L2DecisionStats {
    /// Verdicts taken with filtering disengaged.
    pub fn decisions_disengaged(&self) -> u64 {
        self.wbht_decisions - self.decisions_engaged
    }

    fn merge(&mut self, o: &L2DecisionStats) {
        self.wbht_decisions += o.wbht_decisions;
        self.decisions_engaged += o.decisions_engaged;
        self.aborts += o.aborts;
        self.aborts_correct += o.aborts_correct;
        self.aborts_mispredicted += o.aborts_mispredicted;
        self.allows += o.allows;
        self.allows_redundant += o.allows_redundant;
        self.snarfs += o.snarfs;
        self.snarfs_useful += o.snarfs_useful;
        self.snarfs_wasted += o.snarfs_wasted;
        self.snarfs_displacing += o.snarfs_displacing;
        self.snarfs_wasted_displacing += o.snarfs_wasted_displacing;
        self.mispredict_penalty_cycles += o.mispredict_penalty_cycles;
    }
}

/// The audit layer: pending outcome records plus resolved aggregates.
/// Owned by the `System` as an `Option<Box<_>>`; see the module docs.
#[derive(Debug)]
pub struct DecisionAudit {
    /// L2 slice count (heatmap set indexing).
    slices: u64,
    /// Sets per slice (heatmap set indexing).
    sets_per_slice: u64,
    /// Cycles credited per correct abort: the L3-link transfer the
    /// skipped castout never paid (`l3_link_delay + l3_link_occupancy`).
    credit_abort: Cycle,
    /// Estimated latency of an L3-served re-miss, subtracted from a
    /// mispredict's measured memory latency so only the *escalation* is
    /// charged.
    pub(super) est_l3_fill: Cycle,
    /// Cycles credited per useful snarf: roughly the memory-link round
    /// trip the local/peer hit avoided.
    credit_snarf: Cycle,
    /// Cycles charged per wasted snarf that displaced a resident line
    /// (the victim may need one L3-link refetch).
    cost_displace: Cycle,
    per_l2: Vec<L2DecisionStats>,
    /// Aborted lines awaiting a re-miss: line → aborting L2.
    pending_aborts: FxHashMap<u64, u8>,
    /// Allowed clean castouts awaiting their bus outcome.
    pending_allows: FxHashSet<(u8, u64)>,
    /// Snarfed lines awaiting retirement: (l2, line) → displaced flag.
    pending_snarfs: FxHashMap<(u8, u64), bool>,
    /// Abort verdicts per global L2 set (slice-major).
    heat_abort: Vec<u32>,
    /// Snarf placements per global L2 set (slice-major).
    heat_snarf: Vec<u32>,
    /// Retry-switch state flips observed at decision sites.
    flips: u64,
    last_engaged: Option<bool>,
    /// Aborts never re-missed, classified correct at finalize.
    unresolved_aborts: u64,
    /// Retry-switch windows that ended engaged (set at finalize).
    engaged_windows: u64,
    /// Retry-switch windows completed (set at finalize).
    windows: u64,
    /// Stores to shared lines resolved as coherence updates.
    coherence_updates: u64,
    /// Stores to shared lines resolved as base invalidations while a
    /// coherence-adaptive policy was active.
    coherence_invalidations: u64,
    /// Cumulative per-interval snapshots for the stream and (through
    /// the summary) the Chrome-trace counter track.
    history: Vec<DecisionFrame>,
}

impl DecisionAudit {
    /// Builds an audit sized for `cfg`'s L2 geometry and latencies.
    pub fn new(cfg: &SystemConfig) -> Self {
        let slices = cfg.l2_slices.max(1);
        let sets_per_slice = (cfg.l2_slice_bytes / (cfg.line_bytes * cfg.l2_assoc)).max(1);
        let total_sets = (slices * sets_per_slice) as usize;
        DecisionAudit {
            slices,
            sets_per_slice,
            credit_abort: cfg.l3_link_delay + cfg.l3_link_occupancy,
            est_l3_fill: 2 * cfg.l3_link_delay + cfg.l3_link_occupancy,
            credit_snarf: cfg.mem_link_delay + cfg.mem_link_occupancy,
            cost_displace: cfg.l3_link_delay,
            per_l2: vec![L2DecisionStats::default(); cfg.num_l2 as usize],
            pending_aborts: FxHashMap::default(),
            pending_allows: FxHashSet::default(),
            pending_snarfs: FxHashMap::default(),
            heat_abort: vec![0; total_sets],
            heat_snarf: vec![0; total_sets],
            flips: 0,
            last_engaged: None,
            unresolved_aborts: 0,
            engaged_windows: 0,
            windows: 0,
            coherence_updates: 0,
            coherence_invalidations: 0,
            history: Vec::new(),
        }
    }

    /// Global set index of a line under the L2's slice-major geometry.
    fn set_index(&self, raw: u64) -> usize {
        let slice = raw % self.slices;
        let set = (raw / self.slices) % self.sets_per_slice;
        (slice * self.sets_per_slice + set) as usize
    }

    /// Records one WBHT verdict on a drained clean castout. `engaged` is
    /// the retry-rate switch state at decision time; `abort` the verdict.
    pub fn record_wbht_decision(&mut self, l2: usize, raw: u64, engaged: bool, abort: bool) {
        let s = &mut self.per_l2[l2];
        s.wbht_decisions += 1;
        if engaged {
            s.decisions_engaged += 1;
        }
        if abort {
            s.aborts += 1;
            self.pending_aborts.insert(raw, l2 as u8);
            let idx = self.set_index(raw);
            self.heat_abort[idx] += 1;
        } else {
            s.allows += 1;
            self.pending_allows.insert((l2 as u8, raw));
        }
        if self.last_engaged != Some(engaged) {
            if self.last_engaged.is_some() {
                self.flips += 1;
            }
            self.last_engaged = Some(engaged);
        }
    }

    /// Resolves a pending allow verdict from the castout's terminal bus
    /// outcome. `redundant` marks an L3 already-present squash — the
    /// WBHT should have aborted. No-op when no allow is pending.
    pub fn resolve_allow(&mut self, l2: usize, raw: u64, redundant: bool) {
        if self.pending_allows.remove(&(l2 as u8, raw)) && redundant {
            self.per_l2[l2].allows_redundant += 1;
        }
    }

    /// Resolves a pending abort verdict from a demand re-miss on the
    /// line. `from_memory` escalation makes the abort a mispredict and
    /// charges the measured fill `latency` (less the estimated L3-fill
    /// latency the miss would have cost anyway). No-op when no abort is
    /// pending on the line.
    pub fn resolve_abort(&mut self, raw: u64, from_memory: bool, latency: Cycle) {
        let Some(l2) = self.pending_aborts.remove(&raw) else {
            return;
        };
        let s = &mut self.per_l2[l2 as usize];
        if from_memory {
            s.aborts_mispredicted += 1;
            s.mispredict_penalty_cycles += latency.saturating_sub(self.est_l3_fill);
        } else {
            s.aborts_correct += 1;
        }
    }

    /// Records one snarf placement absorbed by `l2`. `displaced` marks a
    /// resident (clean) victim evicted to make room.
    pub fn record_snarf(&mut self, l2: usize, raw: u64, displaced: bool) {
        let s = &mut self.per_l2[l2];
        s.snarfs += 1;
        if displaced {
            s.snarfs_displacing += 1;
        }
        self.pending_snarfs.insert((l2 as u8, raw), displaced);
        let idx = self.set_index(raw);
        self.heat_snarf[idx] += 1;
    }

    /// Resolves a snarf placement at retirement (eviction, invalidation,
    /// or run end): `useful` when the line served a local hit or a ring
    /// intervention. No-op when no placement is pending.
    pub fn resolve_snarf(&mut self, l2: usize, raw: u64, useful: bool) {
        let Some(displaced) = self.pending_snarfs.remove(&(l2 as u8, raw)) else {
            return;
        };
        let s = &mut self.per_l2[l2];
        if useful {
            s.snarfs_useful += 1;
        } else {
            s.snarfs_wasted += 1;
            if displaced {
                s.snarfs_wasted_displacing += 1;
            }
        }
    }

    /// Records one store-to-shared coherence decision from an adaptive
    /// coherence policy: `update` when the store pushed new data to the
    /// sharers, `false` when it took the base invalidate path. Legacy
    /// policies never call this, so their audit output is unchanged.
    pub fn record_coherence_decision(&mut self, update: bool) {
        if update {
            self.coherence_updates += 1;
        } else {
            self.coherence_invalidations += 1;
        }
    }

    /// Closes one observation interval: appends (and returns) a
    /// cumulative snapshot for the live stream and the Chrome counter
    /// track.
    pub fn note_interval(&mut self, now: Cycle) -> DecisionFrame {
        let t = self.totals();
        let f = DecisionFrame {
            cycle: now,
            decisions: t.wbht_decisions,
            aborts: t.aborts,
            aborts_correct: t.aborts_correct,
            aborts_mispredicted: t.aborts_mispredicted,
            allows_redundant: t.allows_redundant,
            snarfs: t.snarfs,
            snarfs_useful: t.snarfs_useful,
            snarfs_wasted: t.snarfs_wasted,
            engaged: self.last_engaged.unwrap_or(false),
        };
        self.history.push(f);
        f
    }

    /// End-of-run classification: pending aborts were never re-missed
    /// (correct), pending snarfs never touched (wasted — normally the
    /// still-resident sweep resolves them first), and the retry-switch
    /// window tallies are recorded. Idempotent.
    pub fn finalize(&mut self, engaged_windows: u64, windows: u64) {
        let leftover: Vec<(u64, u8)> = self.pending_aborts.drain().collect();
        for (_, l2) in leftover {
            self.per_l2[l2 as usize].aborts_correct += 1;
            self.unresolved_aborts += 1;
        }
        let stale: Vec<(u8, u64)> = self.pending_snarfs.keys().copied().collect();
        for (l2, raw) in stale {
            self.resolve_snarf(l2 as usize, raw, false);
        }
        self.pending_allows.clear();
        self.engaged_windows = engaged_windows;
        self.windows = windows;
    }

    fn totals(&self) -> L2DecisionStats {
        let mut t = L2DecisionStats::default();
        for s in &self.per_l2 {
            t.merge(s);
        }
        t
    }

    /// The resolved aggregates (call after the run finalized).
    pub fn summary(&self) -> DecisionAuditSummary {
        let totals = self.totals();
        DecisionAuditSummary {
            per_l2: self.per_l2.clone(),
            abort_credit_cycles: totals.aborts_correct * self.credit_abort,
            snarf_credit_cycles: totals.snarfs_useful * self.credit_snarf,
            displace_cost_cycles: totals.snarfs_wasted_displacing * self.cost_displace,
            totals,
            unresolved_aborts: self.unresolved_aborts,
            flips: self.flips,
            engaged_windows: self.engaged_windows,
            windows: self.windows,
            coherence_updates: self.coherence_updates,
            coherence_invalidations: self.coherence_invalidations,
            heat_abort: self.heat_abort.clone(),
            heat_snarf: self.heat_snarf.clone(),
            history: self.history.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::audit_report::{nonzero, peak};
    use super::*;

    fn audit() -> DecisionAudit {
        DecisionAudit::new(&SystemConfig::scaled(16))
    }

    #[test]
    fn abort_lifecycle_resolves_by_source() {
        let mut a = audit();
        a.record_wbht_decision(0, 100, true, true);
        a.record_wbht_decision(1, 200, true, true);
        a.record_wbht_decision(2, 300, false, true);
        // Line 100 re-missed from memory: mispredict, penalty above the
        // estimated L3 fill.
        a.resolve_abort(100, true, a.est_l3_fill + 500);
        // Line 200 re-hit in the L3: correct.
        a.resolve_abort(200, false, 40);
        // Line 300 never re-missed: classified correct at finalize.
        a.finalize(3, 7);
        let s = a.summary();
        assert_eq!(s.totals.aborts, 3);
        assert_eq!(s.totals.aborts_mispredicted, 1);
        assert_eq!(s.totals.aborts_correct, 2);
        assert_eq!(s.unresolved_aborts, 1);
        assert_eq!(s.totals.mispredict_penalty_cycles, 500);
        assert_eq!(s.engaged_windows, 3);
        assert_eq!(s.windows, 7);
        assert!((s.abort_precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.resolved_coverage() - 1.0).abs() < 1e-12);
        // Re-missing a line with no pending abort is a no-op.
        a.resolve_abort(999, true, 1000);
        assert_eq!(a.summary().totals.aborts_mispredicted, 1);
    }

    #[test]
    fn allow_redundancy_and_engaged_tallies() {
        let mut a = audit();
        a.record_wbht_decision(0, 8, true, false);
        a.record_wbht_decision(0, 16, false, false);
        a.resolve_allow(0, 8, true); // squashed already-in-L3
        a.resolve_allow(0, 16, false); // accepted
        a.resolve_allow(0, 24, true); // nothing pending: no-op
        let s = a.summary();
        assert_eq!(s.totals.allows, 2);
        assert_eq!(s.totals.allows_redundant, 1);
        assert_eq!(s.totals.decisions_engaged, 1);
        assert_eq!(s.totals.decisions_disengaged(), 1);
        assert_eq!(s.flips, 1, "engaged -> disengaged observed once");
    }

    #[test]
    fn snarf_lifecycle_and_displacement_cost() {
        let mut a = audit();
        a.record_snarf(1, 40, true);
        a.record_snarf(1, 48, false);
        a.record_snarf(2, 56, true);
        a.resolve_snarf(1, 40, true); // useful despite displacing
        a.resolve_snarf(1, 48, false); // wasted
        a.finalize(0, 0); // line 56 still pending: wasted
        let s = a.summary();
        assert_eq!(s.totals.snarfs, 3);
        assert_eq!(s.totals.snarfs_useful, 1);
        assert_eq!(s.totals.snarfs_wasted, 2);
        assert_eq!(s.totals.snarfs_displacing, 2);
        assert!((s.useful_snarf_rate() - 1.0 / 3.0).abs() < 1e-12);
        // Only the wasted displacing placement (L2#2) is charged.
        let cfg = SystemConfig::scaled(16);
        assert_eq!(s.displace_cost_cycles, cfg.l3_link_delay);
        assert_eq!(
            s.snarf_credit_cycles,
            cfg.mem_link_delay + cfg.mem_link_occupancy
        );
        // Double-resolution is a no-op.
        a.resolve_snarf(1, 40, false);
        assert_eq!(a.summary().totals.snarfs_wasted, 2);
    }

    #[test]
    fn coherence_lineage_tallies_by_action() {
        let mut a = audit();
        a.record_coherence_decision(true);
        a.record_coherence_decision(false);
        a.record_coherence_decision(false);
        let s = a.summary();
        assert_eq!(s.coherence_updates, 1);
        assert_eq!(s.coherence_invalidations, 2);
    }

    #[test]
    fn heatmaps_land_in_distinct_sets() {
        let mut a = audit();
        let sets = a.heat_abort.len() as u64;
        a.record_wbht_decision(0, 0, false, true);
        a.record_wbht_decision(0, 1, false, true); // next slice
        a.record_wbht_decision(0, 0, false, true); // same set again
        a.record_snarf(0, 2, false);
        let s = a.summary();
        assert_eq!(s.heat_abort.len() as u64, sets);
        assert_eq!(nonzero(&s.heat_abort), 2);
        assert_eq!(peak(&s.heat_abort), 2);
        assert_eq!(nonzero(&s.heat_snarf), 1);
    }
}
