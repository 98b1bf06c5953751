//! Host-side profiling: where does the *simulator's* wall-clock time go?
//!
//! The telemetry ([`crate::telemetry`]) and span ([`crate::spans`]) layers
//! observe the *simulated* machine; this module observes the simulator
//! *host process*: per-pipeline-stage wall-time attribution plus periodic
//! [`HostSample`] gauges (event-queue occupancy, MSHR/WBQ depths, RSS,
//! events/sec).
//!
//! # Design
//!
//! * **Zero-cost when off.** [`HostProfiler`] follows the same contract as
//!   `Telemetry`/`SpanTracer`: a disabled handle is a `None` and the event
//!   loop runs its uninstrumented path.
//! * **Stride-sampled when on.** The simulator dispatches ~10M events per
//!   wall-second, so even one clock read per event would cost several
//!   percent. Instead the driver times one full iteration out of every
//!   `stride` (deterministically), scales the observed ticks by `stride`,
//!   and accumulates per-stage. Over the millions of events in a run the
//!   estimate converges on the true attribution while the amortized cost
//!   stays at a fraction of a nanosecond per event.
//! * **TSC-or-Instant clock.** On x86_64 the timestamp counter (~5-10 ns a
//!   read) is used, calibrated once per process against the monotonic OS
//!   clock; elsewhere `Instant` is the fallback. See [`now_ticks`].
//!
//! # Example
//!
//! ```
//! use cmpsim_engine::profiler::{now_ticks, HostProfiler, HostStage};
//!
//! let prof = HostProfiler::with_stride(1);
//! let t0 = now_ticks();
//! let n: u64 = (0..10_000).sum(); // the "stage work"
//! assert!(n > 0);
//! prof.add_sampled(HostStage::Frontend, now_ticks().saturating_sub(t0), 1);
//! prof.record_run_wall(1_000_000);
//! let report = prof.report();
//! assert!(report.stage_ns[HostStage::Frontend as usize] > 0);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::Cycle;

/// One host-side attribution bucket. The first six mirror the system's
/// pipeline-stage modules; `EventQueue` is time inside the calendar
/// queue's pop path, `Observe` is sampler/progress bookkeeping between
/// dispatches, and `Other` is the residual the report derives (never
/// accumulated directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HostStage {
    /// Thread issue: reference processing, L1/L2 lookup, MSHRs.
    Frontend = 0,
    /// Miss path: ring issue and combined-response handling.
    BusIssue = 1,
    /// Snoop window: peer/L3/memory response collection.
    Snoop = 2,
    /// Write-back path: WBQ drain, WBHT filter, castout issue.
    Castout = 3,
    /// Completion: fills, snarf absorption, invalidations.
    Fill = 4,
    /// Interval sampling, progress, and debug-invariant bookkeeping.
    Observe = 5,
    /// Calendar-queue pop (bucket scan, rebase, overflow migration).
    EventQueue = 6,
    /// Residual wall time not covered by a timed bucket.
    Other = 7,
}

/// Number of [`HostStage`] buckets (including the derived `Other`).
pub const STAGE_COUNT: usize = 8;

/// Buckets the profiler accumulates directly (everything but `Other`).
pub const TIMED_STAGES: usize = 7;

impl HostStage {
    /// Stable lower-case tag used in JSON output and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            HostStage::Frontend => "frontend",
            HostStage::BusIssue => "bus_issue",
            HostStage::Snoop => "snoop",
            HostStage::Castout => "castout",
            HostStage::Fill => "fill",
            HostStage::Observe => "observe",
            HostStage::EventQueue => "event_queue",
            HostStage::Other => "other",
        }
    }

    /// All stages, in index order.
    pub fn all() -> [HostStage; STAGE_COUNT] {
        [
            HostStage::Frontend,
            HostStage::BusIssue,
            HostStage::Snoop,
            HostStage::Castout,
            HostStage::Fill,
            HostStage::Observe,
            HostStage::EventQueue,
            HostStage::Other,
        ]
    }
}

/// Name of the tick clock backing [`now_ticks`] on this build.
#[cfg(target_arch = "x86_64")]
pub const CLOCK_BACKEND: &str = "tsc";
/// Name of the tick clock backing [`now_ticks`] on this build.
#[cfg(not(target_arch = "x86_64"))]
pub const CLOCK_BACKEND: &str = "instant";

/// Reads the raw tick clock: the x86_64 timestamp counter, or
/// nanoseconds of a process-global `Instant` elsewhere. Convert with
/// [`ticks_to_ns`]; raw ticks from different processes are not
/// comparable.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn now_ticks() -> u64 {
    // SAFETY: RDTSC is unprivileged and always available on x86_64.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Reads the raw tick clock (monotonic nanoseconds on this build).
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn now_ticks() -> u64 {
    process_epoch().elapsed().as_nanos() as u64
}

#[cfg(not(target_arch = "x86_64"))]
fn process_epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Ticks per nanosecond of the [`now_ticks`] clock, calibrated once per
/// process (a ~5 ms sleep against the OS monotonic clock on the TSC
/// backend; exactly 1.0 on the `Instant` backend).
pub fn ticks_per_ns() -> f64 {
    static TPN: OnceLock<f64> = OnceLock::new();
    *TPN.get_or_init(|| {
        if CLOCK_BACKEND == "instant" {
            return 1.0;
        }
        let wall = Instant::now();
        let t0 = now_ticks();
        std::thread::sleep(Duration::from_millis(5));
        let ns = wall.elapsed().as_nanos() as u64;
        let ticks = now_ticks().saturating_sub(t0);
        if ns == 0 || ticks == 0 {
            1.0
        } else {
            ticks as f64 / ns as f64
        }
    })
}

/// Converts raw [`now_ticks`] ticks to nanoseconds.
pub fn ticks_to_ns(ticks: u64) -> u64 {
    (ticks as f64 / ticks_per_ns()) as u64
}

/// Current and peak resident-set size in kB, from `/proc/self/status`
/// (`(0, 0)` when unreadable, e.g. on non-Linux hosts).
pub fn rss_kb() -> (u64, u64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let field = |tag: &str| -> u64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(tag))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Default sampling stride: one timed event-loop iteration in 128.
///
/// A sampled iteration costs roughly 300 ns (four clock reads, the
/// accounting, and an icache-cold out-of-line call), so at stride 128
/// the default profiler costs ~2.4 ns per ~150 ns event — comfortably
/// inside the 3% overhead gate — while still collecting tens of
/// thousands of samples per wall-clock second.
pub const DEFAULT_STRIDE: u32 = 128;

/// Simulator-side gauge values the host supplies when a [`HostSample`]
/// is taken (the profiler itself only knows wall time and RSS).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostGauges {
    /// Simulated cycle at the sample point.
    pub cycles: Cycle,
    /// Events dispatched so far.
    pub events: u64,
    /// Total pending events in the calendar queue.
    pub eq_len: u64,
    /// Pending events in the near-future bucket ring.
    pub eq_ring_len: u64,
    /// Pending events parked in the far-future overflow heap.
    pub eq_overflow_len: u64,
    /// Allocated MSHR slab entries across all L2s.
    pub mshr_used: u64,
    /// Total MSHR slab capacity across all L2s.
    pub mshr_cap: u64,
    /// Entries across all L2 write-back queues.
    pub wbq_depth: u64,
}

/// One periodic host-side sample: gauges plus cumulative per-stage
/// wall-time attribution, taken on the interval-sampler cadence.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSample {
    /// Sample index within the profiler's life (0-based).
    pub sample: u64,
    /// Wall nanoseconds since the profiler was created.
    pub wall_ns: u64,
    /// Simulated cycles per wall second since the previous sample.
    pub cycles_per_sec: u64,
    /// Events dispatched per wall second since the previous sample.
    pub events_per_sec: u64,
    /// Current resident-set size in kB.
    pub rss_kb: u64,
    /// Simulator gauges at the sample point.
    pub gauges: HostGauges,
    /// Cumulative per-stage attribution estimate in nanoseconds
    /// (indices follow [`HostStage`]; `Other` stays 0 here).
    pub stage_ns: [u64; STAGE_COUNT],
}

impl HostSample {
    /// Serializes the sample as a flat JSON object *body* (no braces):
    /// ready to splice into a stream frame. Key order is fixed.
    /// Wall-clock-dependent keys are `wall_ns`, `cycles_per_sec`,
    /// `events_per_sec`, `rss_kb`, and every `*_ns` key; the rest is
    /// deterministic for a fixed seed.
    pub fn to_json_body(&self) -> String {
        let g = &self.gauges;
        let mut s = format!(
            "\"sample\":{},\"cycles\":{},\"events\":{},\"eq_len\":{},\
             \"eq_ring_len\":{},\"eq_overflow_len\":{},\"mshr_used\":{},\
             \"mshr_cap\":{},\"wbq_depth\":{},\"wall_ns\":{},\
             \"cycles_per_sec\":{},\"events_per_sec\":{},\"rss_kb\":{}",
            self.sample,
            g.cycles,
            g.events,
            g.eq_len,
            g.eq_ring_len,
            g.eq_overflow_len,
            g.mshr_used,
            g.mshr_cap,
            g.wbq_depth,
            self.wall_ns,
            self.cycles_per_sec,
            self.events_per_sec,
            self.rss_kb,
        );
        for st in HostStage::all().iter().take(TIMED_STAGES) {
            s.push_str(&format!(
                ",\"{}_ns\":{}",
                st.as_str(),
                self.stage_ns[*st as usize]
            ));
        }
        s
    }
}

/// End-of-run host-profiling summary, carried on `RunReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct HostReport {
    /// Tick-clock backend (`"tsc"` or `"instant"`).
    pub backend: &'static str,
    /// Sampling stride the attribution estimates were scaled by.
    pub stride: u32,
    /// Measured wall nanoseconds inside `System::run` (summed across
    /// repeated runs on one system).
    pub run_wall_ns: u64,
    /// Per-stage attribution estimate in nanoseconds. `Other` holds the
    /// residual `run_wall_ns - attributed` when positive.
    pub stage_ns: [u64; STAGE_COUNT],
    /// Scaled per-stage event-count estimates (timed buckets only).
    pub stage_events: [u64; STAGE_COUNT],
    /// Peak resident-set size in kB at report time (process-wide).
    pub peak_rss_kb: u64,
    /// The periodic samples taken during the run.
    pub samples: Vec<HostSample>,
}

impl HostReport {
    /// Nanoseconds directly attributed to timed buckets (excludes the
    /// derived `Other` residual).
    pub fn attributed_ns(&self) -> u64 {
        HostStage::all()
            .iter()
            .take(TIMED_STAGES)
            .map(|&s| self.stage_ns[s as usize])
            .sum()
    }

    /// Attribution accuracy: how close the stride-scaled estimate comes
    /// to the measured run wall time (1.0 = exact; symmetric, so an
    /// overshoot scores the same as an equal undershoot).
    pub fn coverage(&self) -> f64 {
        let attr = self.attributed_ns();
        let wall = self.run_wall_ns;
        if wall == 0 || attr == 0 {
            return 0.0;
        }
        attr.min(wall) as f64 / attr.max(wall) as f64
    }

    /// Share of the measured run wall time attributed to `stage`
    /// (the `Other` row reports the unattributed residual share).
    pub fn stage_share(&self, stage: HostStage) -> f64 {
        if self.run_wall_ns == 0 {
            return 0.0;
        }
        self.stage_ns[stage as usize] as f64 / self.run_wall_ns as f64
    }

    /// Renders a per-stage text table (totals, self-time share, scaled
    /// event-count estimate).
    pub fn render(&self) -> String {
        let mut out = format!(
            "host profile: {:.1} ms run wall ({} clock, stride {}), coverage {:.1}%\n",
            self.run_wall_ns as f64 / 1e6,
            self.backend,
            self.stride,
            self.coverage() * 100.0
        );
        out.push_str("  stage         time_ms   share    events\n");
        for st in HostStage::all() {
            out.push_str(&format!(
                "  {:<12} {:>9.2}  {:>5.1}%  {:>8}\n",
                st.as_str(),
                self.stage_ns[st as usize] as f64 / 1e6,
                self.stage_share(st) * 100.0,
                self.stage_events[st as usize],
            ));
        }
        out
    }
}

#[derive(Debug, Default)]
struct SampleBook {
    samples: Vec<HostSample>,
    last_wall_ns: u64,
    last_events: u64,
    last_cycles: Cycle,
}

#[derive(Debug)]
struct Core {
    stride: u32,
    created: Instant,
    stage_ticks: [AtomicU64; TIMED_STAGES],
    stage_hits: [AtomicU64; TIMED_STAGES],
    run_wall_ns: AtomicU64,
    book: Mutex<SampleBook>,
}

/// Cheap-to-clone handle for host-side profiling.
///
/// A disabled profiler holds no core: the driver checks
/// [`HostProfiler::is_enabled`] once and runs its uninstrumented loop,
/// preserving the zero-cost-when-off property of the observability
/// stack. Clones share one accumulator, mirroring `Telemetry`.
#[derive(Debug, Clone, Default)]
pub struct HostProfiler {
    core: Option<Arc<Core>>,
}

impl HostProfiler {
    /// A profiler that records nothing (the default).
    pub fn disabled() -> Self {
        HostProfiler { core: None }
    }

    /// An enabled profiler at the default stride.
    pub fn enabled() -> Self {
        Self::with_stride(DEFAULT_STRIDE)
    }

    /// An enabled profiler timing one event-loop iteration in `stride`
    /// (1 = every iteration; higher = cheaper, noisier).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is 0.
    pub fn with_stride(stride: u32) -> Self {
        assert!(stride > 0, "profiler stride must be at least 1");
        // Force calibration up front so the first timed iteration does
        // not pay the 5 ms calibration sleep.
        let _ = ticks_per_ns();
        HostProfiler {
            core: Some(Arc::new(Core {
                stride,
                created: Instant::now(),
                stage_ticks: Default::default(),
                stage_hits: Default::default(),
                run_wall_ns: AtomicU64::new(0),
                book: Mutex::new(SampleBook::default()),
            })),
        }
    }

    /// Whether profiling is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// The sampling stride (1 when disabled, so callers can divide).
    pub fn stride(&self) -> u32 {
        self.core.as_ref().map_or(1, |c| c.stride)
    }

    /// Accumulates `ticks` of observed time and `hits` sampled events
    /// into `stage` (raw, unscaled; scaling by the stride happens at
    /// report time). No-op when disabled or for the derived `Other`.
    #[inline]
    pub fn add_sampled(&self, stage: HostStage, ticks: u64, hits: u64) {
        if let Some(core) = &self.core {
            let i = stage as usize;
            if i < TIMED_STAGES {
                core.stage_ticks[i].fetch_add(ticks, Ordering::Relaxed);
                core.stage_hits[i].fetch_add(hits, Ordering::Relaxed);
            }
        }
    }

    /// Adds measured wall time of one `System::run` call.
    pub fn record_run_wall(&self, ns: u64) {
        if let Some(core) = &self.core {
            core.run_wall_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    fn scaled_stage_ns(core: &Core) -> [u64; STAGE_COUNT] {
        let mut out = [0u64; STAGE_COUNT];
        for (i, slot) in out.iter_mut().enumerate().take(TIMED_STAGES) {
            let ticks = core.stage_ticks[i].load(Ordering::Relaxed);
            *slot = ticks_to_ns(ticks.saturating_mul(u64::from(core.stride)));
        }
        out
    }

    /// Takes one [`HostSample`] from the supplied simulator gauges and
    /// appends it to the sample series. Returns `None` when disabled.
    pub fn sample(&self, gauges: HostGauges) -> Option<HostSample> {
        let core = self.core.as_ref()?;
        let wall_ns = core.created.elapsed().as_nanos() as u64;
        let (rss_now, _) = rss_kb();
        let mut book = core.book.lock().expect("profiler sample lock");
        let dt_ns = wall_ns.saturating_sub(book.last_wall_ns);
        // A sub-microsecond window carries no usable rate information
        // (a first sample racing the clock): report zero rather than a
        // billion-fold-amplified spike.
        let rate = |delta: u64| {
            if dt_ns < 1_000 {
                0
            } else {
                ((delta as f64) * 1e9 / dt_ns as f64) as u64
            }
        };
        let s = HostSample {
            sample: book.samples.len() as u64,
            wall_ns,
            cycles_per_sec: rate(gauges.cycles.saturating_sub(book.last_cycles)),
            events_per_sec: rate(gauges.events.saturating_sub(book.last_events)),
            rss_kb: rss_now,
            gauges,
            stage_ns: Self::scaled_stage_ns(core),
        };
        book.last_wall_ns = wall_ns;
        book.last_events = gauges.events;
        book.last_cycles = gauges.cycles;
        book.samples.push(s.clone());
        Some(s)
    }

    /// The samples taken so far (empty when disabled).
    pub fn samples(&self) -> Vec<HostSample> {
        match &self.core {
            Some(core) => core
                .book
                .lock()
                .expect("profiler sample lock")
                .samples
                .clone(),
            None => Vec::new(),
        }
    }

    /// Builds the end-of-run report (zeroed when disabled).
    pub fn report(&self) -> HostReport {
        let Some(core) = &self.core else {
            return HostReport {
                backend: CLOCK_BACKEND,
                stride: 1,
                run_wall_ns: 0,
                stage_ns: [0; STAGE_COUNT],
                stage_events: [0; STAGE_COUNT],
                peak_rss_kb: 0,
                samples: Vec::new(),
            };
        };
        let mut stage_ns = Self::scaled_stage_ns(core);
        let mut stage_events = [0u64; STAGE_COUNT];
        for (i, slot) in stage_events.iter_mut().enumerate().take(TIMED_STAGES) {
            *slot = core.stage_hits[i].load(Ordering::Relaxed) * u64::from(core.stride);
        }
        let run_wall_ns = core.run_wall_ns.load(Ordering::Relaxed);
        let attributed: u64 = stage_ns.iter().take(TIMED_STAGES).sum();
        stage_ns[HostStage::Other as usize] = run_wall_ns.saturating_sub(attributed);
        let (_, peak) = rss_kb();
        HostReport {
            backend: CLOCK_BACKEND,
            stride: core.stride,
            run_wall_ns,
            stage_ns,
            stage_events,
            peak_rss_kb: peak,
            samples: self.samples(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let p = HostProfiler::disabled();
        assert!(!p.is_enabled());
        assert_eq!(p.stride(), 1);
        p.add_sampled(HostStage::Frontend, 100, 1);
        assert!(p.sample(HostGauges::default()).is_none());
        let r = p.report();
        assert_eq!(r.run_wall_ns, 0);
        assert_eq!(r.coverage(), 0.0);
    }

    #[test]
    fn attribution_scales_by_stride() {
        let p = HostProfiler::with_stride(4);
        // 1000 raw ticks at stride 4 reports ~4000 ticks worth of ns.
        p.add_sampled(HostStage::Fill, 1000, 3);
        let r = p.report();
        let want = ticks_to_ns(4000);
        let got = r.stage_ns[HostStage::Fill as usize];
        assert!((got as i64 - want as i64).abs() <= 1, "{got} vs {want}");
        assert_eq!(r.stage_events[HostStage::Fill as usize], 12);
    }

    #[test]
    fn other_bucket_is_the_residual() {
        let p = HostProfiler::with_stride(1);
        p.add_sampled(HostStage::Frontend, 0, 0);
        p.record_run_wall(10_000);
        let r = p.report();
        assert_eq!(r.stage_ns[HostStage::Other as usize], 10_000);
        // Nothing attributed: coverage is 0, not NaN.
        assert_eq!(r.coverage(), 0.0);
    }

    #[test]
    fn coverage_is_symmetric() {
        let mk = |attr_ns: u64, wall: u64| {
            let p = HostProfiler::with_stride(1);
            // Convert the ns we want into raw ticks.
            let ticks = (attr_ns as f64 * ticks_per_ns()) as u64;
            p.add_sampled(HostStage::Snoop, ticks, 1);
            p.record_run_wall(wall);
            p.report().coverage()
        };
        let under = mk(90_000_000, 100_000_000);
        let over = mk(100_000_000, 90_000_000);
        assert!((under - over).abs() < 0.02, "{under} vs {over}");
        assert!(under > 0.85 && under < 0.95);
    }

    #[test]
    fn samples_track_deltas() {
        let p = HostProfiler::with_stride(1);
        let s0 = p
            .sample(HostGauges {
                cycles: 1000,
                events: 5000,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(s0.sample, 0);
        let s1 = p
            .sample(HostGauges {
                cycles: 3000,
                events: 9000,
                eq_len: 7,
                eq_ring_len: 6,
                eq_overflow_len: 1,
                mshr_used: 3,
                mshr_cap: 32,
                wbq_depth: 2,
            })
            .unwrap();
        assert_eq!(s1.sample, 1);
        assert_eq!(s1.gauges.eq_len, 7);
        assert_eq!(p.samples().len(), 2);
        // Rates are computed from deltas, so they are finite and the
        // JSON body carries every advertised key.
        let body = s1.to_json_body();
        for key in [
            "\"sample\":",
            "\"cycles\":",
            "\"events\":",
            "\"eq_len\":",
            "\"eq_ring_len\":",
            "\"eq_overflow_len\":",
            "\"mshr_used\":",
            "\"mshr_cap\":",
            "\"wbq_depth\":",
            "\"wall_ns\":",
            "\"cycles_per_sec\":",
            "\"events_per_sec\":",
            "\"rss_kb\":",
            "\"frontend_ns\":",
            "\"event_queue_ns\":",
        ] {
            assert!(body.contains(key), "missing {key} in {body}");
        }
        assert!(!body.contains("\"other_ns\":"));
    }

    #[test]
    fn clones_share_one_accumulator() {
        let p = HostProfiler::with_stride(2);
        let q = p.clone();
        q.add_sampled(HostStage::Castout, 500, 1);
        assert!(p.report().stage_ns[HostStage::Castout as usize] > 0);
    }

    #[test]
    fn render_names_every_stage() {
        let p = HostProfiler::with_stride(1);
        p.record_run_wall(1_000_000);
        let text = p.report().render();
        for st in HostStage::all() {
            assert!(text.contains(st.as_str()), "missing {}", st.as_str());
        }
    }
}
