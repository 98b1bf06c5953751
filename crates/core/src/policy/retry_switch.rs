//! The retry-rate on/off switch for the WBHT (paper §2.2).

use cmpsim_engine::telemetry::{SimEvent, Telemetry};
use cmpsim_engine::Cycle;

/// Configuration of the retry-rate switch.
///
/// "We implement a simple timer and maintain a count of retry
/// transactions … When the number of retries in a specified period of
/// time goes below a certain threshold, we do not use the WBHT to make
/// decisions … Surprisingly, a common threshold of two thousand retries
/// every one million processor cycles works well" (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrySwitchConfig {
    /// Observation window length in cycles.
    pub window: Cycle,
    /// Retries per window at or above which the WBHT is engaged.
    pub threshold: u64,
}

impl Default for RetrySwitchConfig {
    fn default() -> Self {
        RetrySwitchConfig {
            window: 1_000_000,
            threshold: 2_000,
        }
    }
}

impl RetrySwitchConfig {
    /// Scales the window (and threshold proportionally) for scaled-down
    /// simulations whose runs are shorter than a paper-scale window.
    pub fn scaled(factor: u64) -> Self {
        let d = Self::default();
        RetrySwitchConfig {
            window: (d.window / factor).max(1),
            threshold: (d.threshold / factor).max(1),
        }
    }
}

/// Tracks intrachip-bus retries per window and derives the WBHT enable.
///
/// The decision for the *current* window uses the *previous* window's
/// retry count (a hardware-realistic one-window lag). The switch starts
/// off: under low memory pressure the WBHT stays disengaged, matching
/// the paper's flat curves at 1–2 outstanding loads.
///
/// # Example
///
/// ```
/// use cmp_adaptive_wb::policy::{RetrySwitch, RetrySwitchConfig};
///
/// let mut s = RetrySwitch::new(RetrySwitchConfig { window: 1000, threshold: 10 });
/// assert!(!s.engaged(0));
/// for i in 0..20 { s.record_retry(i * 10); }
/// // Next window sees >= 10 retries in the previous one.
/// assert!(s.engaged(1500));
/// ```
#[derive(Debug, Clone)]
pub struct RetrySwitch {
    cfg: RetrySwitchConfig,
    window_start: Cycle,
    count_this_window: u64,
    engaged: bool,
    engaged_windows: u64,
    windows: u64,
    telemetry: Telemetry,
}

impl RetrySwitch {
    /// Creates a switch (initially disengaged).
    pub fn new(cfg: RetrySwitchConfig) -> Self {
        RetrySwitch {
            cfg,
            window_start: 0,
            count_this_window: 0,
            engaged: false,
            engaged_windows: 0,
            windows: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches an event-trace handle; each engaged/disengaged flip is
    /// emitted as a [`SimEvent::RetrySwitchFlip`] stamped with the window
    /// boundary at which the decision took effect.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn roll(&mut self, now: Cycle) {
        while now >= self.window_start + self.cfg.window {
            let next = self.count_this_window >= self.cfg.threshold;
            if next != self.engaged {
                let boundary = self.window_start + self.cfg.window;
                let window_retries = self.count_this_window;
                let threshold = self.cfg.threshold;
                self.telemetry.emit(boundary, || SimEvent::RetrySwitchFlip {
                    engaged: next,
                    window_retries,
                    threshold,
                });
            }
            self.engaged = next;
            self.windows += 1;
            if self.engaged {
                self.engaged_windows += 1;
            }
            self.count_this_window = 0;
            self.window_start += self.cfg.window;
        }
    }

    /// Records one retry observed on the bus at time `now`.
    pub fn record_retry(&mut self, now: Cycle) {
        self.roll(now);
        self.count_this_window += 1;
    }

    /// Is the WBHT engaged at time `now`?
    pub fn engaged(&mut self, now: Cycle) -> bool {
        self.roll(now);
        self.engaged
    }

    /// (engaged windows, total completed windows).
    pub fn window_counts(&self) -> (u64, u64) {
        (self.engaged_windows, self.windows)
    }

    /// The configuration.
    pub fn config(&self) -> RetrySwitchConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RetrySwitchConfig {
        RetrySwitchConfig {
            window: 100,
            threshold: 5,
        }
    }

    #[test]
    fn starts_disengaged() {
        let mut s = RetrySwitch::new(cfg());
        assert!(!s.engaged(0));
        assert!(!s.engaged(99));
    }

    #[test]
    fn engages_after_busy_window() {
        let mut s = RetrySwitch::new(cfg());
        for t in 0..5 {
            s.record_retry(t);
        }
        // Still within window 0: decision not yet taken.
        assert!(!s.engaged(50));
        // Window 1: previous window had 5 >= 5.
        assert!(s.engaged(100));
        assert!(s.engaged(150));
    }

    #[test]
    fn disengages_after_quiet_window() {
        let mut s = RetrySwitch::new(cfg());
        for t in 0..10 {
            s.record_retry(t);
        }
        assert!(s.engaged(100)); // window 0 busy
                                 // Window 1 quiet (no retries recorded 100..200).
        assert!(!s.engaged(200));
    }

    #[test]
    fn skipped_windows_count_as_quiet() {
        let mut s = RetrySwitch::new(cfg());
        for t in 0..10 {
            s.record_retry(t);
        }
        // Jump far ahead: the intervening empty windows disengage it.
        assert!(!s.engaged(1000));
    }

    #[test]
    fn counters() {
        let mut s = RetrySwitch::new(cfg());
        for t in 0..7 {
            s.record_retry(t);
        }
        let _ = s.engaged(250);
        let (engaged, total) = s.window_counts();
        assert_eq!(total, 2); // windows 0 and 1 completed by t=250
        assert_eq!(engaged, 1);
    }

    #[test]
    fn telemetry_traces_flips_only() {
        use cmpsim_engine::telemetry::{SimEvent, Telemetry};

        let (t, sink) = Telemetry::with_vec_sink();
        let mut s = RetrySwitch::new(cfg());
        s.attach_telemetry(t);
        for t in 0..10 {
            s.record_retry(t);
        }
        assert!(s.engaged(100)); // flip on at the 100 boundary
        assert!(s.engaged(150)); // still on: no event
        assert!(!s.engaged(300)); // quiet window 100..200: flip off at 200
        let sink = sink.lock().unwrap();
        let flips: Vec<(Cycle, bool)> = sink
            .events()
            .iter()
            .map(|(at, e)| match e {
                SimEvent::RetrySwitchFlip { engaged, .. } => (*at, *engaged),
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(flips, [(100, true), (200, false)]);
    }

    #[test]
    fn paper_threshold_boundaries_are_exact() {
        // Paper defaults: 2000 retries / 1M cycles (§2.2). One retry
        // short of the threshold must leave filtering off.
        let d = RetrySwitchConfig::default();
        let mut s = RetrySwitch::new(d);
        for k in 0..1_999 {
            s.record_retry(k);
        }
        assert!(!s.engaged(d.window), "1999 < 2000 must stay disengaged");
        // Exactly 2000 engages at the window boundary, not a cycle
        // before it (the one-window decision lag).
        let mut s = RetrySwitch::new(d);
        for k in 0..2_000 {
            s.record_retry(k);
        }
        assert!(!s.engaged(d.window - 1), "decision lags the window");
        assert!(s.engaged(d.window), "2000 >= 2000 engages at boundary");
        assert!(s.engaged(2 * d.window - 1), "holds through the window");
        // A quiet window flips it off exactly at the next boundary,
        // and a busy one re-engages at its closing boundary.
        assert!(!s.engaged(2 * d.window), "quiet window disengages");
        for k in 0..2_000 {
            s.record_retry(2 * d.window + k);
        }
        assert!(!s.engaged(3 * d.window - 1));
        assert!(s.engaged(3 * d.window), "re-engages after busy window");
        let (engaged, windows) = s.window_counts();
        assert_eq!(windows, 3);
        assert_eq!(engaged, 2, "windows 0 and 2 closed engaged");
    }

    #[test]
    fn paper_default() {
        let d = RetrySwitchConfig::default();
        assert_eq!(d.window, 1_000_000);
        assert_eq!(d.threshold, 2_000);
        let s = RetrySwitchConfig::scaled(10);
        assert_eq!(s.window, 100_000);
        assert_eq!(s.threshold, 200);
    }
}
