//! Progress heartbeat for long runs: a periodic stderr line with cycles
//! simulated, a cycles/sec EMA, and an ETA from reference completion.
//!
//! Off by default. The driver polls [`ProgressMeter::maybe_beat`] every
//! few thousand events (an `Instant::now` read only on those polls), so
//! the hot loop pays one branch per event when the meter is off and a
//! strided clock check when it is on.

use std::time::Instant;

use crate::Cycle;

/// The shortest reporting period, in seconds.
pub const MIN_PERIOD_SECS: f64 = 0.1;

/// Emits a heartbeat line to stderr at most once per configured period.
#[derive(Debug)]
pub struct ProgressMeter {
    every_secs: f64,
    start: Instant,
    last_beat: Instant,
    last_cycles: Cycle,
    ema_cps: f64,
    beats: u64,
}

impl ProgressMeter {
    /// A meter that reports every `every_secs` wall seconds (values
    /// below [`MIN_PERIOD_SECS`] are clamped up).
    pub fn new(every_secs: f64) -> Self {
        let now = Instant::now();
        ProgressMeter {
            every_secs: every_secs.max(MIN_PERIOD_SECS),
            start: now,
            last_beat: now,
            last_cycles: 0,
            ema_cps: 0.0,
            beats: 0,
        }
    }

    /// The configured reporting period in seconds.
    pub fn every_secs(&self) -> f64 {
        self.every_secs
    }

    /// Heartbeats emitted so far.
    pub fn beats(&self) -> u64 {
        self.beats
    }

    /// Emits a heartbeat if the period has elapsed. `refs_done` /
    /// `refs_total` drive the ETA (pass 0 for `refs_total` when
    /// unknown; the ETA is then omitted).
    pub fn maybe_beat(&mut self, cycles: Cycle, refs_done: u64, refs_total: u64) {
        let dt = self.last_beat.elapsed().as_secs_f64();
        if dt < self.every_secs {
            return;
        }
        let line = self.beat_line(cycles, refs_done, refs_total, dt);
        eprintln!("{line}");
    }

    /// Builds the heartbeat line and advances the meter state (split out
    /// from [`ProgressMeter::maybe_beat`] for testability).
    pub fn beat_line(
        &mut self,
        cycles: Cycle,
        refs_done: u64,
        refs_total: u64,
        dt_secs: f64,
    ) -> String {
        // A degenerate interval (forced beat, stalled clock) carries no
        // rate information: keep the prior EMA instead of folding in a
        // wild or non-finite instantaneous rate. The EMA then stays 0.0
        // (not NaN/inf) until the first real sample window closes.
        if dt_secs >= 1e-3 {
            let inst_cps = (cycles.saturating_sub(self.last_cycles)) as f64 / dt_secs;
            if inst_cps.is_finite() {
                self.ema_cps = if self.beats == 0 {
                    inst_cps
                } else {
                    0.5 * self.ema_cps + 0.5 * inst_cps
                };
            }
        }
        self.last_beat = Instant::now();
        self.last_cycles = cycles;
        self.beats += 1;
        let elapsed = self.start.elapsed().as_secs_f64();
        let mut line = format!(
            "progress: {:.1}M cycles in {:.0}s ({:.2}M cyc/s)",
            cycles as f64 / 1e6,
            elapsed,
            self.ema_cps / 1e6
        );
        if refs_total > 0 {
            let pct = 100.0 * refs_done as f64 / refs_total as f64;
            line.push_str(&format!(", refs {pct:.0}%"));
            if refs_done > 0 && refs_done < refs_total {
                let eta = elapsed * (refs_total - refs_done) as f64 / refs_done as f64;
                if eta.is_finite() {
                    line.push_str(&format!(", eta {eta:.0}s"));
                }
            }
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_beat_seeds_the_ema() {
        let mut m = ProgressMeter::new(5.0);
        let line = m.beat_line(2_000_000, 50, 100, 1.0);
        assert!(line.contains("2.0M cycles"), "{line}");
        assert!(line.contains("2.00M cyc/s"), "{line}");
        assert!(line.contains("refs 50%"), "{line}");
        assert!(line.contains("eta "), "{line}");
        assert_eq!(m.beats(), 1);
    }

    #[test]
    fn ema_smooths_across_beats() {
        let mut m = ProgressMeter::new(5.0);
        m.beat_line(1_000_000, 1, 10, 1.0); // 1M cyc/s
        let line = m.beat_line(4_000_000, 2, 10, 1.0); // inst 3M, ema 2M
        assert!(line.contains("2.00M cyc/s"), "{line}");
    }

    #[test]
    fn eta_omitted_without_totals() {
        let mut m = ProgressMeter::new(5.0);
        let line = m.beat_line(100, 0, 0, 1.0);
        assert!(!line.contains("refs"), "{line}");
        assert!(!line.contains("eta"), "{line}");
    }

    #[test]
    fn zero_length_interval_keeps_prior_rate() {
        let mut m = ProgressMeter::new(5.0);
        m.beat_line(1_000_000, 1, 10, 1.0); // 1M cyc/s
        let line = m.beat_line(2_000_000, 2, 10, 0.0); // no rate info
        assert!(line.contains("1.00M cyc/s"), "{line}");
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
    }

    #[test]
    fn first_window_with_zero_throughput_stays_finite() {
        let mut m = ProgressMeter::new(5.0);
        let line = m.beat_line(0, 0, 100, 0.0);
        assert!(line.contains("0.00M cyc/s"), "{line}");
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
        // No refs done yet: the ETA must be omitted, not infinite.
        assert!(!line.contains("eta"), "{line}");
    }

    #[test]
    fn period_is_clamped() {
        let m = ProgressMeter::new(0.0);
        assert!(m.every_secs() >= MIN_PERIOD_SECS);
    }
}
