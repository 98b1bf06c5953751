//! Reuse-distance-based clean copy-back filtering (after Wang et al.,
//! arXiv:2105.14442) — a rival policy to the WBHT.
//!
//! Where the WBHT remembers which clean victims the L3 *already holds*
//! (redundancy filtering), this policy predicts whether a clean victim
//! will be re-referenced *soon enough* for an L3 copy to pay off at
//! all. Each L2 keeps a sampled reuse-distance predictor: a tagged
//! table records, per tracked line, the local miss-count at its last
//! reference and an exponentially-smoothed estimate of its reuse
//! distance (measured in L2 misses, a capacity-relative clock). On a
//! clean castout candidate the copy-back is allowed only when the
//! line's predicted reuse distance is at or below
//! [`RdcbConfig::max_distance`]; lines predicted to be effectively dead
//! are dropped instead of occupying L3 fill bandwidth.
//!
//! Sampling: only lines whose address hash lands in the sample
//! (1-in-2^[`RdcbConfig::sample_shift`]) train the table. Unsampled or
//! unknown lines are copied back (the conservative baseline action), so
//! a cold predictor degrades to baseline behaviour rather than dropping
//! live lines.

use cmpsim_cache::{GeometryError, HistoryTable, LineAddr};

/// Configuration of the reuse-distance copy-back predictor (per L2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RdcbConfig {
    /// Predictor entries per L2 (tagged, set-associative).
    pub entries: u64,
    /// Predictor associativity.
    pub assoc: u64,
    /// Train 1-in-2^k lines (0 = every line).
    pub sample_shift: u32,
    /// Allow the copy-back when the predicted reuse distance (in local
    /// L2 misses) is at or below this bound.
    pub max_distance: u64,
}

impl Default for RdcbConfig {
    fn default() -> Self {
        RdcbConfig {
            entries: 32 * 1024,
            assoc: 16,
            sample_shift: 0,
            max_distance: 4 * 1024,
        }
    }
}

/// Counters for one predictor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RdcbStats {
    /// Castout decisions taken (clean victims consulted).
    pub decisions: u64,
    /// Copy-backs vetoed (predicted reuse distance above the bound).
    pub aborted: u64,
    /// Training observations folded into the table.
    pub trained: u64,
    /// Decisions on lines with no prediction (allowed conservatively).
    pub unknown: u64,
}

/// Per-line training state: last-reference clock and smoothed distance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Entry {
    last_seen: u64,
    predicted: u64,
}

/// One L2's sampled reuse-distance predictor.
#[derive(Debug, Clone)]
pub struct ReuseDistanceCopyBack {
    table: HistoryTable<Entry>,
    cfg: RdcbConfig,
    /// Local miss-count clock; advanced by the owning L2's misses.
    clock: u64,
    stats: RdcbStats,
}

impl ReuseDistanceCopyBack {
    /// Builds a predictor; `entries`/`assoc` follow history-table rules.
    pub fn new(cfg: RdcbConfig) -> Result<Self, GeometryError> {
        Ok(ReuseDistanceCopyBack {
            table: HistoryTable::new(cfg.entries, cfg.assoc)?,
            cfg,
            clock: 0,
            stats: RdcbStats::default(),
        })
    }

    /// Is `line` in the training sample?
    #[inline]
    fn sampled(&self, line: LineAddr) -> bool {
        // Mix the line address so striding workloads still sample
        // uniformly, then keep 1-in-2^k.
        let h = line.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) & ((1u64 << self.cfg.sample_shift) - 1) == 0
    }

    /// Observes one local L2 miss for `line`: advances the clock and,
    /// for sampled lines, folds the observed reuse distance into the
    /// per-line estimate (EWMA with weight 1/2).
    pub fn observe_miss(&mut self, line: LineAddr) {
        self.clock += 1;
        if !self.sampled(line) {
            return;
        }
        let now = self.clock;
        match self.table.lookup(line) {
            Some(e) => {
                let observed = now - e.last_seen;
                let predicted = if e.predicted == 0 {
                    observed
                } else {
                    (e.predicted + observed) / 2
                };
                self.table.update(line, |e| {
                    e.last_seen = now;
                    e.predicted = predicted;
                });
            }
            None => self.table.record(
                line,
                Entry {
                    last_seen: now,
                    predicted: 0,
                },
            ),
        }
        self.stats.trained += 1;
    }

    /// Decides a clean castout candidate: `true` aborts the copy-back.
    ///
    /// A line with a trained estimate above [`RdcbConfig::max_distance`]
    /// is predicted dead (or too-distant for a victim cache to retain)
    /// and its copy-back is vetoed; unknown or still-warming lines are
    /// copied back.
    pub fn should_abort(&mut self, line: LineAddr) -> bool {
        self.stats.decisions += 1;
        match self.table.peek(line) {
            Some(e) if e.predicted > 0 => {
                let abort = e.predicted > self.cfg.max_distance;
                if abort {
                    self.stats.aborted += 1;
                }
                abort
            }
            _ => {
                self.stats.unknown += 1;
                false
            }
        }
    }

    /// The configuration.
    pub fn config(&self) -> RdcbConfig {
        self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> RdcbStats {
        self.stats
    }

    /// Valid fraction of the predictor table.
    pub fn occupancy(&self) -> f64 {
        self.table.len() as f64 / self.table.capacity() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(raw: u64) -> LineAddr {
        LineAddr::new(raw)
    }

    fn rdcb(max_distance: u64) -> ReuseDistanceCopyBack {
        ReuseDistanceCopyBack::new(RdcbConfig {
            entries: 256,
            assoc: 4,
            sample_shift: 0,
            max_distance,
        })
        .unwrap()
    }

    #[test]
    fn unknown_lines_are_copied_back() {
        let mut p = rdcb(8);
        assert!(!p.should_abort(line(42)));
        assert_eq!(p.stats().unknown, 1);
        assert_eq!(p.stats().aborted, 0);
    }

    #[test]
    fn single_observation_only_warms_the_entry() {
        let mut p = rdcb(8);
        p.observe_miss(line(7));
        // One sighting has no distance yet: conservative allow.
        assert!(!p.should_abort(line(7)));
        assert_eq!(p.stats().unknown, 1);
    }

    #[test]
    fn threshold_boundary_is_exact() {
        // Re-reference distance of exactly max_distance must copy back;
        // one miss further must abort.
        for (gap, expect_abort) in [(8u64, false), (9, true)] {
            let mut p = rdcb(8);
            p.observe_miss(line(1));
            for k in 0..gap - 1 {
                p.observe_miss(line(1000 + k)); // unrelated misses advance the clock
            }
            p.observe_miss(line(1)); // observed distance == gap
            assert_eq!(
                p.should_abort(line(1)),
                expect_abort,
                "distance {gap} vs bound 8"
            );
        }
    }

    #[test]
    fn estimate_is_smoothed_not_last_value() {
        let mut p = rdcb(8);
        // First observed distance 2, then 20: EWMA(1/2) = 11, above the
        // bound even though a plain last-distance of 20 also is — so
        // follow with distance 2 again: EWMA -> (11+2)/2 = 6 <= 8.
        p.observe_miss(line(1));
        p.observe_miss(line(99));
        p.observe_miss(line(1)); // d=2 -> predicted 2
        for k in 0..19 {
            p.observe_miss(line(2000 + k));
        }
        p.observe_miss(line(1)); // d=20 -> predicted (2+20)/2 = 11
        assert!(p.should_abort(line(1)));
        p.observe_miss(line(99));
        p.observe_miss(line(1)); // d=2 -> predicted (11+2)/2 = 6
        assert!(!p.should_abort(line(1)));
    }

    #[test]
    fn sampling_skips_out_of_sample_lines() {
        let mut p = ReuseDistanceCopyBack::new(RdcbConfig {
            entries: 256,
            assoc: 4,
            sample_shift: 3, // 1-in-8
            max_distance: 8,
        })
        .unwrap();
        for raw in 0..256u64 {
            p.observe_miss(line(raw));
        }
        let trained = p.stats().trained;
        assert!(
            trained > 0 && trained < 256,
            "1-in-8 sampling must train a strict subset, got {trained}"
        );
        // The clock still advances on every miss (distance is measured
        // against all misses, not just sampled ones).
        assert_eq!(p.clock, 256);
    }

    #[test]
    fn decisions_count_even_when_unknown() {
        let mut p = rdcb(8);
        p.should_abort(line(5));
        p.observe_miss(line(5));
        p.should_abort(line(5));
        assert_eq!(p.stats().decisions, 2);
    }
}
