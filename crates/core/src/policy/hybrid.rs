//! Hybrid update/invalidate coherence policy (after Dovgopol & Rosonke,
//! arXiv:1502.00101) — a protocol-level adaptive knob.
//!
//! The base protocol is write-invalidate: a store to a Shared line
//! issues an Upgrade that invalidates every peer copy. For
//! producer-consumer lines that is pessimal — each peer's next read
//! turns into a full miss. This policy keeps a per-line mode table with
//! a saturating counter: lines start in invalidate mode, and each
//! *regretted* invalidation (a peer re-reads the line within
//! [`HybridConfig::regret_window`] cycles of being invalidated) moves
//! the line toward update mode. In update mode a store to a Shared line
//! completes as a write-through-style update instead: the writer keeps
//! its (clean) Shared copy, peers keep theirs, and the store pays
//! [`HybridConfig::update_penalty`] cycles of ring/push latency. A run
//! of [`HybridConfig::demote_after_updates`] updates with no fresh
//! sharing signal decays the line back toward invalidate mode, bounding
//! the cost of wasted updates to dead sharers.
//!
//! Modelling note: updates are modelled timing-only (latency charged to
//! the issuing thread, traffic counted in [`HybridStats`]); the
//! single-writer ownership invariants of the base protocol are
//! untouched because update-mode stores never take the line Modified.

use cmpsim_cache::{GeometryError, HistoryTable, LineAddr};
use cmpsim_engine::Cycle;

/// Configuration of the hybrid update/invalidate mode table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridConfig {
    /// Mode-table entries (tagged, set-associative, chip-wide).
    pub entries: u64,
    /// Mode-table associativity.
    pub assoc: u64,
    /// A peer read within this many cycles of an invalidation counts as
    /// a regretted invalidation (the sharing signal).
    pub regret_window: Cycle,
    /// Regret count at which a line switches to update mode.
    pub promote_threshold: u8,
    /// Consecutive update-mode stores without a fresh sharing signal
    /// before the counter decays one step back toward invalidate.
    pub demote_after_updates: u8,
    /// Cycles charged to the issuing thread per update-mode store
    /// (ring round-trip pushing the new data to sharers).
    pub update_penalty: Cycle,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            entries: 32 * 1024,
            assoc: 16,
            regret_window: 4_000,
            promote_threshold: 2,
            demote_after_updates: 4,
            update_penalty: 16,
        }
    }
}

/// Counters for the hybrid coherence policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Stores to Shared lines that invalidated peers (invalidate mode).
    pub invalidations: u64,
    /// Stores to Shared lines completed as updates (update mode).
    pub updates: u64,
    /// Invalidations regretted by a prompt peer re-read.
    pub regretted_invalidations: u64,
    /// Lines promoted into update mode.
    pub promotions: u64,
    /// Counter decays after a run of unrewarded updates.
    pub demotions: u64,
}

/// Per-line adaptive state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Entry {
    /// Saturating sharing-affinity counter; at or above the promote
    /// threshold the line is in update mode.
    counter: u8,
    /// Cycle of the last invalidation broadcast for this line.
    last_invalidate: Cycle,
    /// Update-mode stores since the last sharing signal.
    updates_run: u8,
}

/// The action the coherence layer should take for a store that hit a
/// Shared line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceAction {
    /// Issue the base-protocol Upgrade (invalidate peer copies).
    Invalidate,
    /// Complete the store as a write-through-style update: the writer
    /// and all peers keep their Shared copies; the store pays `penalty`
    /// extra cycles.
    Update {
        /// Extra cycles charged to the issuing thread.
        penalty: Cycle,
    },
}

/// Chip-wide hybrid update/invalidate mode table.
#[derive(Debug, Clone)]
pub struct HybridUpdateInvalidate {
    table: HistoryTable<Entry>,
    cfg: HybridConfig,
    stats: HybridStats,
}

impl HybridUpdateInvalidate {
    /// Builds the mode table (all lines start in invalidate mode).
    pub fn new(cfg: HybridConfig) -> Result<Self, GeometryError> {
        Ok(HybridUpdateInvalidate {
            table: HistoryTable::new(cfg.entries, cfg.assoc)?,
            cfg,
            stats: HybridStats::default(),
        })
    }

    /// Decides a store that hit a Shared line at time `now`.
    ///
    /// Invalidate mode records the broadcast time (arming the regret
    /// detector); update mode counts the update and decays the line
    /// back toward invalidate after a run of unrewarded updates.
    pub fn on_store_to_shared(&mut self, now: Cycle, line: LineAddr) -> CoherenceAction {
        let cfg = self.cfg;
        let mut action = CoherenceAction::Invalidate;
        let mut demoted = false;
        let known = self.table.update(line, |e| {
            if e.counter >= cfg.promote_threshold {
                e.updates_run += 1;
                if e.updates_run >= cfg.demote_after_updates {
                    e.counter -= 1;
                    e.updates_run = 0;
                    demoted = true;
                }
                action = CoherenceAction::Update {
                    penalty: cfg.update_penalty,
                };
            } else {
                e.last_invalidate = now;
            }
        });
        if !known {
            self.table.record(
                line,
                Entry {
                    counter: 0,
                    last_invalidate: now,
                    updates_run: 0,
                },
            );
        }
        match action {
            CoherenceAction::Invalidate => self.stats.invalidations += 1,
            CoherenceAction::Update { .. } => self.stats.updates += 1,
        }
        if demoted {
            self.stats.demotions += 1;
        }
        action
    }

    /// Observes a miss for `line` at time `now` (any requester): a miss
    /// shortly after an invalidation means a peer still wanted the line
    /// — a regretted invalidation, moving the line toward update mode.
    pub fn observe_miss(&mut self, now: Cycle, line: LineAddr) {
        let cfg = self.cfg;
        let mut regret = false;
        let mut promoted = false;
        self.table.update(line, |e| {
            if e.last_invalidate != 0 && now.saturating_sub(e.last_invalidate) <= cfg.regret_window
            {
                regret = true;
                e.last_invalidate = 0; // one regret per broadcast
                e.updates_run = 0;
                if e.counter < cfg.promote_threshold {
                    e.counter += 1;
                    promoted = e.counter >= cfg.promote_threshold;
                }
            }
        });
        if regret {
            self.stats.regretted_invalidations += 1;
        }
        if promoted {
            self.stats.promotions += 1;
        }
    }

    /// Is `line` currently in update mode?
    pub fn in_update_mode(&self, line: LineAddr) -> bool {
        matches!(self.table.peek(line), Some(e) if e.counter >= self.cfg.promote_threshold)
    }

    /// The configuration.
    pub fn config(&self) -> HybridConfig {
        self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> HybridStats {
        self.stats
    }

    /// Valid fraction of the mode table.
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

    fn hybrid() -> HybridUpdateInvalidate {
        HybridUpdateInvalidate::new(HybridConfig {
            entries: 256,
            assoc: 4,
            regret_window: 100,
            promote_threshold: 2,
            demote_after_updates: 3,
            update_penalty: 16,
        })
        .unwrap()
    }

    #[test]
    fn starts_in_invalidate_mode() {
        let mut h = hybrid();
        assert_eq!(
            h.on_store_to_shared(10, line(1)),
            CoherenceAction::Invalidate
        );
        assert!(!h.in_update_mode(line(1)));
        assert_eq!(h.stats().invalidations, 1);
    }

    #[test]
    fn regretted_invalidations_promote_to_update_mode() {
        let mut h = hybrid();
        // Two invalidate-then-prompt-reread rounds reach the threshold.
        h.on_store_to_shared(10, line(1));
        h.observe_miss(50, line(1)); // regret 1
        assert!(!h.in_update_mode(line(1)));
        h.on_store_to_shared(200, line(1));
        h.observe_miss(250, line(1)); // regret 2 -> promoted
        assert!(h.in_update_mode(line(1)));
        assert_eq!(h.stats().regretted_invalidations, 2);
        assert_eq!(h.stats().promotions, 1);
        assert_eq!(
            h.on_store_to_shared(300, line(1)),
            CoherenceAction::Update { penalty: 16 }
        );
    }

    #[test]
    fn late_rereads_are_not_regrets() {
        let mut h = hybrid();
        h.on_store_to_shared(10, line(1));
        h.observe_miss(111, line(1)); // window is 100: 101 cycles later
        assert_eq!(h.stats().regretted_invalidations, 0);
        assert!(!h.in_update_mode(line(1)));
    }

    #[test]
    fn one_regret_per_invalidation_broadcast() {
        let mut h = hybrid();
        h.on_store_to_shared(10, line(1));
        h.observe_miss(20, line(1));
        h.observe_miss(30, line(1)); // same broadcast: no second regret
        assert_eq!(h.stats().regretted_invalidations, 1);
    }

    #[test]
    fn unrewarded_update_run_decays_back_to_invalidate() {
        let mut h = hybrid();
        h.on_store_to_shared(10, line(1));
        h.observe_miss(20, line(1));
        h.on_store_to_shared(30, line(1));
        h.observe_miss(40, line(1));
        assert!(h.in_update_mode(line(1)));
        // Three updates with no fresh sharing signal decay one step,
        // dropping below the threshold.
        for t in [100, 200, 300] {
            assert!(matches!(
                h.on_store_to_shared(t, line(1)),
                CoherenceAction::Update { .. }
            ));
        }
        assert!(!h.in_update_mode(line(1)));
        assert_eq!(h.stats().demotions, 1);
        assert_eq!(h.stats().updates, 3);
        // The next store invalidates again.
        assert_eq!(
            h.on_store_to_shared(400, line(1)),
            CoherenceAction::Invalidate
        );
    }

    #[test]
    fn miss_outside_regret_window_carries_no_signal() {
        let mut h = hybrid();
        h.on_store_to_shared(10, line(1));
        h.observe_miss(20, line(1));
        h.on_store_to_shared(30, line(1));
        h.observe_miss(40, line(1)); // promoted; updates_run = 0
        h.on_store_to_shared(100, line(1)); // run 1
        h.on_store_to_shared(200, line(1)); // run 2
                                            // A miss outside any regret window carries no signal...
        h.observe_miss(300, line(1));
        // ...so the third update still decays the counter.
        h.on_store_to_shared(400, line(1));
        assert!(!h.in_update_mode(line(1)));
    }

    #[test]
    fn lines_track_modes_independently() {
        let mut h = hybrid();
        h.on_store_to_shared(10, line(1));
        h.observe_miss(20, line(1));
        h.on_store_to_shared(30, line(1));
        h.observe_miss(40, line(1));
        assert!(h.in_update_mode(line(1)));
        assert!(!h.in_update_mode(line(2)));
        assert_eq!(
            h.on_store_to_shared(50, line(2)),
            CoherenceAction::Invalidate
        );
    }
}
