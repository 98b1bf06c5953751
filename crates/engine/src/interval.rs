//! Interval sampling: cumulative counters snapshotted every N cycles
//! into per-window deltas. Re-exported through
//! [`telemetry`](crate::telemetry), its historical home, alongside the
//! event-trace machinery it feeds.

use crate::Cycle;

/// Default interval-sampler period: the paper's 1M-cycle retry window.
pub const DEFAULT_INTERVAL: Cycle = 1_000_000;

/// One closed sampler window: per-interval deltas of every counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalRecord {
    /// Window start cycle (inclusive).
    pub start: Cycle,
    /// Window end cycle (exclusive). The final record of a run may close
    /// early (`end - start < period`) or late (quiet periods merge).
    pub end: Cycle,
    /// `(name, delta)` pairs in the order the caller supplies them.
    pub counters: Vec<(&'static str, u64)>,
}

/// Snapshots cumulative counters every `period` cycles into per-interval
/// deltas.
///
/// The driver calls [`IntervalSampler::due`] on its event loop (one
/// comparison) and [`IntervalSampler::sample`] only when a boundary has
/// passed; [`IntervalSampler::finish`] closes the trailing partial window
/// so short runs still produce a record.
///
/// # Example
///
/// ```
/// use cmpsim_engine::telemetry::IntervalSampler;
///
/// let mut s = IntervalSampler::new(100);
/// assert!(!s.due(99));
/// assert!(s.due(100));
/// s.sample(105, &[("misses", 7)]);
/// s.finish(130, &[("misses", 9)]);
/// let r = s.records();
/// assert_eq!((r[0].start, r[0].end), (0, 100));
/// assert_eq!(r[0].counters, vec![("misses", 7)]);
/// assert_eq!((r[1].start, r[1].end), (100, 130));
/// assert_eq!(r[1].counters, vec![("misses", 2)]);
/// ```
#[derive(Debug, Clone)]
pub struct IntervalSampler {
    period: Cycle,
    window_start: Cycle,
    prev: Vec<(&'static str, u64)>,
    records: Vec<IntervalRecord>,
}

impl IntervalSampler {
    /// Creates a sampler with the given period (cycles per window).
    ///
    /// # Panics
    ///
    /// Panics if `period` is 0.
    pub fn new(period: Cycle) -> Self {
        assert!(period > 0, "interval period must be positive");
        IntervalSampler {
            period,
            window_start: 0,
            prev: Vec::new(),
            records: Vec::new(),
        }
    }

    /// The sampling period in cycles.
    pub fn period(&self) -> Cycle {
        self.period
    }

    /// Whether `now` has passed the current window's end (cheap hot-path
    /// check; call [`IntervalSampler::sample`] when true).
    #[inline]
    pub fn due(&self, now: Cycle) -> bool {
        now >= self.window_start + self.period
    }

    /// Closes the window(s) the clock has passed, recording the deltas of
    /// `cumulative` against the previous snapshot. In an event-driven
    /// simulation the clock can jump across several boundaries at once; a
    /// single record then covers the whole quiet span.
    pub fn sample(&mut self, now: Cycle, cumulative: &[(&'static str, u64)]) {
        if !self.due(now) {
            return;
        }
        let windows_passed = (now - self.window_start) / self.period;
        let end = self.window_start + windows_passed * self.period;
        self.close_window(end, cumulative);
    }

    /// Closes the trailing partial window at end-of-run (no-op when the
    /// run ended exactly on a boundary and nothing happened since).
    pub fn finish(&mut self, now: Cycle, cumulative: &[(&'static str, u64)]) {
        if now > self.window_start || self.records.is_empty() {
            self.close_window(now.max(self.window_start), cumulative);
        }
    }

    fn close_window(&mut self, end: Cycle, cumulative: &[(&'static str, u64)]) {
        let counters = cumulative
            .iter()
            .enumerate()
            .map(|(i, &(name, v))| {
                let before = self.prev.get(i).map_or(0, |&(_, p)| p);
                (name, v.saturating_sub(before))
            })
            .collect();
        self.records.push(IntervalRecord {
            start: self.window_start,
            end,
            counters,
        });
        self.window_start = end;
        self.prev = cumulative.to_vec();
    }

    /// The closed windows so far.
    pub fn records(&self) -> &[IntervalRecord] {
        &self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_run_shorter_than_one_interval() {
        let mut s = IntervalSampler::new(1_000);
        // No boundary crossed during the run.
        assert!(!s.due(400));
        s.finish(400, &[("misses", 12)]);
        assert_eq!(s.records().len(), 1);
        assert_eq!((s.records()[0].start, s.records()[0].end), (0, 400));
        assert_eq!(s.records()[0].counters, vec![("misses", 12)]);
    }

    #[test]
    fn sampler_run_ending_mid_interval() {
        let mut s = IntervalSampler::new(100);
        s.sample(100, &[("x", 10)]);
        s.sample(250, &[("x", 25)]); // clock jumped over the 200 boundary
        s.finish(275, &[("x", 30)]);
        let r = s.records();
        assert_eq!(r.len(), 3);
        assert_eq!((r[0].start, r[0].end), (0, 100));
        assert_eq!((r[1].start, r[1].end), (100, 200));
        assert_eq!(r[1].counters, vec![("x", 15)]);
        assert_eq!((r[2].start, r[2].end), (200, 275));
        assert_eq!(r[2].counters, vec![("x", 5)]);
    }

    #[test]
    fn finish_closes_partial_final_window() {
        // Run length (733) is not a multiple of the period (100): finish
        // must close a short tail window [700, 733) whose deltas account
        // for exactly the counts accrued since the last full boundary.
        let mut s = IntervalSampler::new(100);
        let mut cum = 0u64;
        for t in (100..=700).step_by(100) {
            cum += t / 50; // arbitrary monotone counter
            assert!(s.due(t));
            s.sample(t, &[("ops", cum)]);
        }
        s.finish(733, &[("ops", cum + 9)]);
        let r = s.records();
        assert_eq!(r.len(), 8);
        let tail = r.last().unwrap();
        assert_eq!((tail.start, tail.end), (700, 733));
        assert!(tail.end - tail.start < s.period());
        assert_eq!(tail.counters, vec![("ops", 9)]);
        // Windows tile [0, 733) with no gaps and deltas sum to the total.
        let mut expect = 0;
        for rec in r {
            assert_eq!(rec.start, expect);
            expect = rec.end;
        }
        assert_eq!(expect, 733);
        let sum: u64 = r.iter().map(|rec| rec.counters[0].1).sum();
        assert_eq!(sum, cum + 9);
    }

    #[test]
    fn sampler_exact_boundary_end_emits_no_empty_tail() {
        let mut s = IntervalSampler::new(100);
        s.sample(100, &[("x", 4)]);
        s.finish(100, &[("x", 4)]);
        assert_eq!(s.records().len(), 1);
    }

    #[test]
    fn sampler_zero_length_run_still_records_once() {
        let mut s = IntervalSampler::new(100);
        s.finish(0, &[("x", 0)]);
        assert_eq!(s.records().len(), 1);
        assert_eq!((s.records()[0].start, s.records()[0].end), (0, 0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn sampler_rejects_zero_period() {
        let _ = IntervalSampler::new(0);
    }
}
