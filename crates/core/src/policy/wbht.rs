//! The Write-Back History Table (paper §2).

use cmpsim_cache::{GeometryError, HistoryTable, LineAddr};
use cmpsim_engine::telemetry::{SimEvent, Telemetry};
use cmpsim_engine::Cycle;

/// Whose WBHT is updated when the combined snoop response reveals that a
/// clean write-back was already valid in the L3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateScope {
    /// Only the L2 performing the write-back allocates an entry
    /// (the Figure 2 configuration).
    #[default]
    Local,
    /// Every L2 allocates an entry — "because of the details of our bus
    /// protocol, all L2 caches see the combined snoop response … we can
    /// place the line's tag in all WBHTs on the chip" (§2.2, Figure 3).
    Global,
}

/// WBHT configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WbhtConfig {
    /// Table entries (paper default: 32K — "about 9% of our L2 cache
    /// size"; Figure 4 sweeps 512–64K).
    pub entries: u64,
    /// Table associativity (paper: 16).
    pub assoc: u64,
    /// Update scope (Figure 2 vs Figure 3).
    pub scope: UpdateScope,
    /// Cache lines covered per table entry (power of two). `1` is the
    /// paper's evaluated design; larger values implement the §7
    /// future-work idea of letting "each entry in the table serve
    /// multiple cache lines, reducing the size of each entry and
    /// providing greater coverage at the risk of increased prediction
    /// errors".
    pub granularity: u64,
}

impl WbhtConfig {
    /// Checks that the granularity is a power of two (zero is not).
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::NotPowerOfTwo`] naming the granularity.
    pub fn check_granularity(&self) -> Result<(), GeometryError> {
        if self.granularity.is_power_of_two() {
            Ok(())
        } else {
            Err(GeometryError::NotPowerOfTwo(
                "wbht granularity",
                self.granularity,
            ))
        }
    }
}

impl Default for WbhtConfig {
    fn default() -> Self {
        WbhtConfig {
            entries: 32 * 1024,
            assoc: 16,
            scope: UpdateScope::Local,
            granularity: 1,
        }
    }
}

/// WBHT decision statistics (Table 4's columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WbhtStats {
    /// Filtering decisions taken while the retry switch was engaged.
    pub decisions: u64,
    /// Decisions that aborted the clean write-back.
    pub aborted: u64,
    /// Decisions the oracle judged correct ("WBHT Correct" in Table 4:
    /// abort was correct iff the line was in the L3; write-back was
    /// correct iff it was not).
    pub correct: u64,
    /// Entry allocations.
    pub allocated: u64,
}

impl WbhtStats {
    /// Fraction of decisions judged correct by the L3-peek oracle.
    pub fn correct_rate(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.correct as f64 / self.decisions as f64
        }
    }

    /// Fraction of decisions that aborted the write-back.
    pub fn abort_rate(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.aborted as f64 / self.decisions as f64
        }
    }
}

/// One L2's Write-Back History Table.
///
/// A cache-organized tag table remembering lines whose clean write-back
/// the L3 squashed as redundant. On the next clean victimization of such
/// a line the write-back is aborted entirely — no address-ring
/// transaction, no snoops, no L3 queue occupancy. "Note that an
/// incorrect decision only affects performance, not correctness" (§1).
///
/// # Example
///
/// ```
/// use cmp_adaptive_wb::policy::{Wbht, WbhtConfig};
/// use cmpsim_cache::LineAddr;
///
/// let mut wbht = Wbht::new(WbhtConfig { entries: 1024, ..Default::default() })?;
/// let line = LineAddr::new(7);
/// assert!(!wbht.should_abort(0, line, /* engaged= */ true, /* in_l3= */ false));
/// wbht.note_redundant(10, line);
/// assert!(wbht.should_abort(20, line, true, true));
/// # Ok::<(), cmpsim_cache::GeometryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Wbht {
    table: HistoryTable<()>,
    cfg: WbhtConfig,
    stats: WbhtStats,
    telemetry: Telemetry,
    owner: u32,
}

impl Wbht {
    /// Creates a WBHT.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] for invalid entry/associativity shapes
    /// or a non-power-of-two granularity.
    pub fn new(cfg: WbhtConfig) -> Result<Self, GeometryError> {
        cfg.check_granularity()?;
        Ok(Wbht {
            table: HistoryTable::new(cfg.entries, cfg.assoc)?,
            cfg,
            stats: WbhtStats::default(),
            telemetry: Telemetry::disabled(),
            owner: 0,
        })
    }

    /// Attaches an event-trace handle; `owner` is the id of the L2 slice
    /// this table belongs to (stamped on every emitted event).
    pub fn attach_telemetry(&mut self, telemetry: Telemetry, owner: u32) {
        self.telemetry = telemetry;
        self.owner = owner;
    }

    /// Maps a line to its covering table tag (granularity > 1 folds
    /// neighbouring lines onto one entry).
    fn tag_of(&self, line: LineAddr) -> LineAddr {
        LineAddr::new(line.raw() >> self.cfg.granularity.trailing_zeros())
    }

    /// The configuration.
    pub fn config(&self) -> WbhtConfig {
        self.cfg
    }

    /// Decides whether a clean write-back of `line` should be aborted.
    ///
    /// `engaged` is the retry switch state: when disengaged the table is
    /// still *consulted* (to keep LRU state realistic) but the write-back
    /// always proceeds and no decision is recorded. `in_l3` is the
    /// oracle's ground truth, used only for the Table 4 "WBHT Correct"
    /// statistic. `now` stamps the emitted trace events.
    pub fn should_abort(&mut self, now: Cycle, line: LineAddr, engaged: bool, in_l3: bool) -> bool {
        let tag = self.tag_of(line);
        let hit = self.table.lookup(tag).is_some();
        if !engaged {
            return false;
        }
        self.stats.decisions += 1;
        let correct = if hit {
            self.stats.aborted += 1;
            if in_l3 {
                self.stats.correct += 1;
            }
            in_l3
        } else {
            if !in_l3 {
                self.stats.correct += 1;
            }
            !in_l3
        };
        let owner = self.owner;
        self.telemetry.emit(now, || SimEvent::WbhtPredict {
            l2: owner,
            line: line.raw(),
            engaged,
            abort: hit,
            correct,
        });
        if !correct {
            self.telemetry.emit(now, || SimEvent::WbhtMispredict {
                l2: owner,
                line: line.raw(),
                abort: hit,
            });
        }
        hit
    }

    /// Records that the L3 reported `line` already valid on a clean
    /// write-back (combined-response step 3 of §2): allocates an entry.
    pub fn note_redundant(&mut self, now: Cycle, line: LineAddr) {
        let tag = self.tag_of(line);
        self.table.record(tag, ());
        self.stats.allocated += 1;
        let owner = self.owner;
        self.telemetry.emit(now, || SimEvent::WbhtAllocate {
            l2: owner,
            line: line.raw(),
        });
    }

    /// Pure peek: does the table currently cover `line`? No recency or
    /// statistics side effects — used by the history-aware replacement
    /// extension (§7: "new replacement algorithms that take into account
    /// information contained in the history tables").
    pub fn knows(&self, line: LineAddr) -> bool {
        let tag = self.tag_of(line);
        self.table.peek(tag).is_some()
    }

    /// Decision statistics.
    pub fn stats(&self) -> WbhtStats {
        self.stats
    }

    /// Entries currently valid (for occupancy diagnostics).
    pub fn occupancy(&self) -> u64 {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wbht() -> Wbht {
        Wbht::new(WbhtConfig {
            entries: 64,
            assoc: 4,
            scope: UpdateScope::Local,
            granularity: 1,
        })
        .unwrap()
    }

    #[test]
    fn unknown_line_writes_back() {
        let mut w = wbht();
        assert!(!w.should_abort(0, LineAddr::new(1), true, false));
        assert_eq!(w.stats().decisions, 1);
        assert_eq!(w.stats().aborted, 0);
        assert_eq!(w.stats().correct, 1); // not in L3, wrote back: correct
    }

    #[test]
    fn known_line_aborts() {
        let mut w = wbht();
        w.note_redundant(0, LineAddr::new(1));
        assert!(w.should_abort(0, LineAddr::new(1), true, true));
        assert_eq!(w.stats().aborted, 1);
        assert_eq!(w.stats().correct, 1);
    }

    #[test]
    fn disengaged_never_aborts_or_counts() {
        let mut w = wbht();
        w.note_redundant(0, LineAddr::new(1));
        assert!(!w.should_abort(0, LineAddr::new(1), false, true));
        assert_eq!(w.stats().decisions, 0);
    }

    #[test]
    fn oracle_scores_mispredictions() {
        let mut w = wbht();
        // Abort but line NOT in L3 (stale entry): incorrect.
        w.note_redundant(0, LineAddr::new(2));
        assert!(w.should_abort(0, LineAddr::new(2), true, false));
        // Write back but line IS in L3 (entry aged out): incorrect.
        assert!(!w.should_abort(0, LineAddr::new(3), true, true));
        assert_eq!(w.stats().decisions, 2);
        assert_eq!(w.stats().correct, 0);
        assert_eq!(w.stats().correct_rate(), 0.0);
    }

    #[test]
    fn entries_age_out() {
        let mut w = Wbht::new(WbhtConfig {
            entries: 4,
            assoc: 2,
            scope: UpdateScope::Local,
            granularity: 1,
        })
        .unwrap();
        // Fill one set (lines with same parity collide in a 2-set table).
        w.note_redundant(0, LineAddr::new(0));
        w.note_redundant(0, LineAddr::new(2));
        w.note_redundant(0, LineAddr::new(4)); // evicts 0
        assert!(!w.should_abort(0, LineAddr::new(0), true, true));
        assert!(w.should_abort(0, LineAddr::new(4), true, true));
    }

    #[test]
    fn stats_rates() {
        let mut w = wbht();
        w.note_redundant(0, LineAddr::new(8));
        w.should_abort(0, LineAddr::new(8), true, true); // abort, correct
        w.should_abort(0, LineAddr::new(9), true, true); // wb, incorrect
        assert!((w.stats().correct_rate() - 0.5).abs() < 1e-12);
        assert!((w.stats().abort_rate() - 0.5).abs() < 1e-12);
        assert_eq!(w.occupancy(), 1);
    }

    #[test]
    fn paper_geometry_constructs() {
        let w = Wbht::new(WbhtConfig::default()).unwrap();
        assert_eq!(w.config().entries, 32 * 1024);
        assert_eq!(w.config().assoc, 16);
        assert_eq!(w.config().granularity, 1);
    }

    #[test]
    fn coarse_granularity_covers_neighbours() {
        // §7 future work: one entry serves 4 consecutive lines.
        let mut w = Wbht::new(WbhtConfig {
            entries: 64,
            assoc: 4,
            scope: UpdateScope::Local,
            granularity: 4,
        })
        .unwrap();
        w.note_redundant(0, LineAddr::new(100)); // covers lines 100..104
        assert!(w.should_abort(0, LineAddr::new(101), true, true));
        assert!(w.should_abort(0, LineAddr::new(103), true, true));
        assert!(!w.should_abort(0, LineAddr::new(104), true, false));
        // Coverage at the cost of errors: a never-written-back
        // neighbour also aborts (incorrect if not in the L3).
        assert!(w.should_abort(0, LineAddr::new(102), true, false));
        assert!(w.stats().correct < w.stats().decisions);
    }

    #[test]
    fn knows_is_side_effect_free() {
        let mut w = wbht();
        w.note_redundant(0, LineAddr::new(5));
        assert!(w.knows(LineAddr::new(5)));
        assert!(!w.knows(LineAddr::new(6)));
        assert_eq!(w.stats().decisions, 0);
    }

    #[test]
    fn telemetry_traces_predicts_and_allocates() {
        use cmpsim_engine::telemetry::{SimEvent, Telemetry};

        let (t, sink) = Telemetry::with_vec_sink();
        let mut w = wbht();
        w.attach_telemetry(t, 3);
        w.note_redundant(10, LineAddr::new(1));
        w.should_abort(20, LineAddr::new(1), true, true); // abort, correct
        w.should_abort(30, LineAddr::new(2), true, true); // wb, incorrect
        w.should_abort(40, LineAddr::new(2), false, true); // disengaged: no event
        let sink = sink.lock().unwrap();
        let kinds: Vec<&str> = sink.events().iter().map(|(_, e)| e.kind()).collect();
        assert_eq!(
            kinds,
            [
                "wbht_allocate",
                "wbht_predict",
                "wbht_predict",
                "wbht_mispredict"
            ]
        );
        match &sink.events()[1] {
            (
                20,
                SimEvent::WbhtPredict {
                    l2, abort, correct, ..
                },
            ) => {
                assert_eq!(*l2, 3);
                assert!(*abort && *correct);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn granularity_must_be_power_of_two() {
        assert!(Wbht::new(WbhtConfig {
            granularity: 3,
            ..Default::default()
        })
        .is_err());
        assert!(Wbht::new(WbhtConfig {
            granularity: 0,
            ..Default::default()
        })
        .is_err());
    }
}
