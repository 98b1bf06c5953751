//! Decision-audit reporting: resolved aggregates, derived rates and
//! the metrics-registry section.
//!
//! The outcome-resolution half of the audit lives in
//! [`audit`](super::audit): the [`DecisionAudit`](super::DecisionAudit)
//! records verdicts as the pipeline makes them and resolves each one
//! when its consequence lands. This module owns everything downstream
//! of resolution — the [`DecisionAuditSummary`] snapshot, its quality
//! rates and net-cycle model, and `audit_*` metrics export. The
//! summary's interval history feeds the `decisions` track of
//! [`cmpsim_engine::chrome::ChromeTrace`].

use cmpsim_engine::metrics::MetricsRegistry;
use cmpsim_engine::stream::DecisionFrame;

use super::audit::L2DecisionStats;

/// Resolved decision-quality aggregates for one run.
#[derive(Debug, Clone)]
pub struct DecisionAuditSummary {
    /// Per-L2 counters.
    pub per_l2: Vec<L2DecisionStats>,
    /// Whole-machine counters (sum over L2s).
    pub totals: L2DecisionStats,
    /// Aborts classified correct only because the run ended without a
    /// re-miss (subset of `totals.aborts_correct`).
    pub unresolved_aborts: u64,
    /// Retry-switch state flips observed at decision sites.
    pub flips: u64,
    /// Retry-switch windows that ended engaged.
    pub engaged_windows: u64,
    /// Retry-switch windows completed.
    pub windows: u64,
    /// Estimated cycles saved by correct aborts.
    pub abort_credit_cycles: u64,
    /// Estimated cycles saved by useful snarfs.
    pub snarf_credit_cycles: u64,
    /// Estimated cycles charged for wasted displacing snarfs.
    pub displace_cost_cycles: u64,
    /// Stores to shared lines completed as coherence updates (hybrid
    /// update/invalidate policy; zero and unreported otherwise).
    pub coherence_updates: u64,
    /// Stores to shared lines that took the base invalidate path while
    /// a coherence-adaptive policy was auditing them.
    pub coherence_invalidations: u64,
    /// Abort verdicts per global L2 set (slice-major).
    pub heat_abort: Vec<u32>,
    /// Snarf placements per global L2 set (slice-major).
    pub heat_snarf: Vec<u32>,
    /// Cumulative snapshots, one per closed interval plus the final
    /// one: the Chrome trace's `decisions` track.
    pub history: Vec<DecisionFrame>,
}

fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl L2DecisionStats {
    /// Fraction of aborts that were correct (1.0 when none fired).
    pub fn abort_precision(&self) -> f64 {
        if self.aborts == 0 {
            1.0
        } else {
            rate(self.aborts_correct, self.aborts)
        }
    }

    /// Fraction of snarf placements that served a hit or intervention.
    pub fn useful_snarf_rate(&self) -> f64 {
        rate(self.snarfs_useful, self.snarfs)
    }

    /// Fraction of WBHT verdicts taken with the filter engaged.
    pub fn engaged_rate(&self) -> f64 {
        rate(self.decisions_engaged, self.wbht_decisions)
    }
}

impl DecisionAuditSummary {
    /// Fraction of all aborts that were correct (1.0 when none fired).
    pub fn abort_precision(&self) -> f64 {
        self.totals.abort_precision()
    }

    /// Fraction of all snarf placements that served a hit or
    /// intervention.
    pub fn useful_snarf_rate(&self) -> f64 {
        self.totals.useful_snarf_rate()
    }

    /// Coherence decisions audited (stores to shared lines seen by an
    /// adaptive coherence policy).
    pub fn coherence_decisions(&self) -> u64 {
        self.coherence_updates + self.coherence_invalidations
    }

    /// Fraction of audited coherence decisions resolved as updates.
    pub fn coherence_update_rate(&self) -> f64 {
        rate(self.coherence_updates, self.coherence_decisions())
    }

    /// Fraction of audited decisions with a definite outcome (aborts
    /// resolved + snarfs retired over all recorded; 1.0 after finalize).
    pub fn resolved_coverage(&self) -> f64 {
        let recorded = self.totals.aborts + self.totals.snarfs;
        let resolved = self.totals.aborts_correct
            + self.totals.aborts_mispredicted
            + self.totals.snarfs_useful
            + self.totals.snarfs_wasted;
        if recorded == 0 {
            1.0
        } else {
            rate(resolved, recorded)
        }
    }

    /// Net cycles saved (positive) or lost (negative) by the adaptive
    /// decisions, under the audit's first-order cost model.
    pub fn net_cycles(&self) -> i64 {
        (self.abort_credit_cycles + self.snarf_credit_cycles) as i64
            - (self.totals.mispredict_penalty_cycles + self.displace_cost_cycles) as i64
    }

    /// Registers the audit section into a metrics registry (`audit_*`
    /// names, appended after the base sections — only ever called when
    /// the audit ran, so disabled runs export byte-identical output).
    /// The coherence rows appear only when a coherence-adaptive policy
    /// recorded decisions, keeping legacy audit output unchanged.
    pub fn register_into(&self, m: &mut MetricsRegistry) {
        let t = &self.totals;
        m.set_counter("audit_wbht_decisions", t.wbht_decisions);
        m.set_counter("audit_decisions_engaged", t.decisions_engaged);
        m.set_counter("audit_decisions_disengaged", t.decisions_disengaged());
        m.set_counter("audit_aborts", t.aborts);
        m.set_counter("audit_aborts_correct", t.aborts_correct);
        m.set_counter("audit_aborts_mispredicted", t.aborts_mispredicted);
        m.set_counter("audit_aborts_unresolved", self.unresolved_aborts);
        m.set_gauge("audit_abort_precision", self.abort_precision());
        m.set_counter("audit_allows", t.allows);
        m.set_counter("audit_allows_redundant", t.allows_redundant);
        m.set_counter("audit_snarfs", t.snarfs);
        m.set_counter("audit_snarfs_useful", t.snarfs_useful);
        m.set_counter("audit_snarfs_wasted", t.snarfs_wasted);
        m.set_counter("audit_snarfs_displacing", t.snarfs_displacing);
        m.set_gauge("audit_useful_snarf_rate", self.useful_snarf_rate());
        m.set_counter("audit_abort_credit_cycles", self.abort_credit_cycles);
        m.set_counter(
            "audit_mispredict_penalty_cycles",
            t.mispredict_penalty_cycles,
        );
        m.set_counter("audit_snarf_credit_cycles", self.snarf_credit_cycles);
        m.set_counter("audit_displace_cost_cycles", self.displace_cost_cycles);
        m.set_gauge("audit_net_cycles", self.net_cycles() as f64);
        m.set_counter("audit_retry_switch_flips", self.flips);
        m.set_counter("audit_engaged_windows", self.engaged_windows);
        m.set_counter("audit_windows", self.windows);
        m.set_gauge("audit_resolved_coverage", self.resolved_coverage());
        m.set_counter("audit_heat_abort_sets", nonzero(&self.heat_abort));
        m.set_counter("audit_heat_abort_max", peak(&self.heat_abort));
        m.set_counter("audit_heat_snarf_sets", nonzero(&self.heat_snarf));
        m.set_counter("audit_heat_snarf_max", peak(&self.heat_snarf));
        if self.coherence_decisions() > 0 {
            m.set_counter("audit_coherence_updates", self.coherence_updates);
            m.set_counter(
                "audit_coherence_invalidations",
                self.coherence_invalidations,
            );
            m.set_gauge("audit_coherence_update_rate", self.coherence_update_rate());
        }
        for (i, s) in self.per_l2.iter().enumerate() {
            m.set_counter(&format!("audit_l2_{i}_decisions"), s.wbht_decisions);
            m.set_counter(&format!("audit_l2_{i}_aborts"), s.aborts);
            m.set_gauge(
                &format!("audit_l2_{i}_abort_precision"),
                s.abort_precision(),
            );
            m.set_counter(&format!("audit_l2_{i}_snarfs"), s.snarfs);
            m.set_gauge(
                &format!("audit_l2_{i}_useful_snarf_rate"),
                s.useful_snarf_rate(),
            );
        }
    }
}

pub(super) fn nonzero(heat: &[u32]) -> u64 {
    heat.iter().filter(|&&v| v > 0).count() as u64
}

pub(super) fn peak(heat: &[u32]) -> u64 {
    heat.iter().copied().max().unwrap_or(0) as u64
}

#[cfg(test)]
mod tests {
    use super::super::audit::DecisionAudit;
    use super::*;
    use crate::config::SystemConfig;

    fn audit() -> DecisionAudit {
        DecisionAudit::new(&SystemConfig::scaled(16))
    }

    #[test]
    fn registry_section() {
        let mut a = audit();
        a.record_wbht_decision(0, 4, true, true);
        a.resolve_abort(4, true, 2000);
        let f = a.note_interval(5_000);
        assert_eq!(f.aborts_mispredicted, 1);
        assert!(f.engaged);
        a.finalize(1, 2);
        let mut m = MetricsRegistry::new();
        a.summary().register_into(&mut m);
        let json = m.to_json();
        assert!(json.contains("\"audit_wbht_decisions\":1"));
        assert!(json.contains("\"audit_aborts_mispredicted\":1"));
        assert!(json.contains("\"audit_abort_precision\":0.000000"));
        assert!(json.contains("\"audit_l2_0_decisions\":1"));
        // No coherence decisions recorded: the section stays absent so
        // legacy audit exports remain byte-identical.
        assert!(!json.contains("audit_coherence"));
    }

    #[test]
    fn coherence_section_appears_when_recorded() {
        let mut a = audit();
        a.record_coherence_decision(true);
        a.record_coherence_decision(true);
        a.record_coherence_decision(false);
        a.finalize(0, 0);
        let s = a.summary();
        assert_eq!(s.coherence_updates, 2);
        assert_eq!(s.coherence_invalidations, 1);
        assert!((s.coherence_update_rate() - 2.0 / 3.0).abs() < 1e-12);
        let mut m = MetricsRegistry::new();
        s.register_into(&mut m);
        let json = m.to_json();
        assert!(json.contains("\"audit_coherence_updates\":2"));
        assert!(json.contains("\"audit_coherence_invalidations\":1"));
    }

    #[test]
    fn empty_audit_reports_unit_rates() {
        let s = audit().summary();
        assert!((s.abort_precision() - 1.0).abs() < 1e-12);
        assert_eq!(s.useful_snarf_rate(), 0.0);
        assert!((s.resolved_coverage() - 1.0).abs() < 1e-12);
        assert_eq!(s.net_cycles(), 0);
        assert_eq!(s.coherence_decisions(), 0);
        assert_eq!(s.coherence_update_rate(), 0.0);
    }
}
