//! The one run path: [`run`] builds a [`System`] from a [`RunSpec`],
//! attaches the spec's instruments, runs it and assembles the
//! [`RunReport`]. The `cmpsim` CLI, the experiment grid and the report
//! tools all go through it.

use cmpsim_engine::metrics::MetricsRegistry;
use cmpsim_engine::profiler::{HostProfiler, HostReport};
use cmpsim_engine::progress::ProgressMeter;
use cmpsim_engine::spans::{SpanRecord, SpanSummary, SpanTracer};
use cmpsim_engine::stream::TelemetryStream;
use cmpsim_engine::telemetry::{IntervalRecord, Telemetry, DEFAULT_INTERVAL};
use cmpsim_engine::Cycle;
use cmpsim_trace::{ReferenceSource, TracePlayback, Workload, WorkloadParams};

use crate::config::SystemConfig;
use crate::policy::{HybridStats, RdcbStats, SnarfStats, WbhtStats};
use crate::system::{DecisionAuditSummary, System, SystemError, SystemStats};

/// Everything one simulation run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name: the synthetic workload's, or a trace's playback
    /// name, which for `cmpsim --trace` is the file's path.
    pub workload: String,
    /// Policy label.
    pub policy: &'static str,
    /// Outstanding-miss limit used.
    pub max_outstanding: u32,
    /// System statistics.
    pub stats: SystemStats,
    /// L3 statistics.
    pub l3: cmpsim_mem::L3Stats,
    /// Memory statistics.
    pub mem: cmpsim_mem::MemoryStats,
    /// Ring statistics.
    pub ring: cmpsim_ring::RingStats,
    /// Merged WBHT statistics.
    pub wbht: WbhtStats,
    /// Snarf-table statistics, when snarfing is on.
    pub snarf_table: Option<SnarfStats>,
    /// Reuse-distance copy-back statistics, when the rdcb policy is on.
    /// Registered into [`RunReport::metrics`] as an `rdcb_*` section —
    /// only when present, so legacy exports stay byte-identical.
    pub rdcb: Option<RdcbStats>,
    /// Hybrid update/invalidate statistics, when the hybrid policy is
    /// on. Registered into [`RunReport::metrics`] as a `hybrid_*`
    /// section — only when present.
    pub hybrid: Option<HybridStats>,
    /// Interval snapshots, when interval sampling was enabled.
    pub intervals: Vec<IntervalRecord>,
    /// Completed transaction spans, when span tracing was enabled
    /// (empty otherwise). Feed to
    /// [`cmpsim_engine::chrome::ChromeTrace`] for Perfetto.
    pub spans: Vec<SpanRecord>,
    /// Span accounting (counts + per-fill-source latency histograms),
    /// when span tracing was enabled.
    pub span_summary: Option<SpanSummary>,
    /// Host-side profiling summary (stage attribution, gauges, peak
    /// RSS), when host profiling was enabled. Deliberately kept out of
    /// [`RunReport::metrics`]: wall-clock numbers must never perturb the
    /// byte-stable JSON/CSV exports.
    pub host: Option<HostReport>,
    /// Decision-quality audit aggregates, when the audit was enabled.
    /// Registered into [`RunReport::metrics`] as an `audit_*` section —
    /// only when present, so audited-off exports stay byte-identical.
    pub audit: Option<DecisionAuditSummary>,
}

impl RunReport {
    /// Execution time in cycles.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// The run's metrics as a registry — the single source both the
    /// JSON and CSV exports render from, so the formats agree
    /// field-for-field by construction.
    pub fn metrics(&self) -> MetricsRegistry {
        let s = &self.stats;
        let l3_total = self.l3.read_hits + self.l3.read_misses;
        let l3_hit = if l3_total == 0 {
            0.0
        } else {
            self.l3.read_hits as f64 / l3_total as f64
        };
        let mut m = MetricsRegistry::new();
        m.set_text("workload", self.workload.clone());
        m.set_text("policy", self.policy);
        m.set_counter("max_outstanding", u64::from(self.max_outstanding));
        m.set_counter("cycles", s.cycles);
        m.set_counter("refs", s.refs);
        m.set_counter("loads", s.loads);
        m.set_counter("stores", s.stores);
        m.set_counter("l1_hits", s.l1_hits);
        m.set_gauge("l2_hit_rate", s.l2_hit_rate());
        m.set_gauge("l3_load_hit_rate", l3_hit);
        m.set_counter("fills_from_l2", s.fills_from_l2);
        m.set_counter("fills_from_l3", s.fills_from_l3);
        m.set_counter("fills_from_memory", s.fills_from_memory);
        m.set_counter("wb_requests", s.wb.requests());
        m.set_counter("wb_dirty", s.wb.dirty_requests);
        m.set_counter("wb_clean", s.wb.clean_requests);
        m.set_counter("wb_clean_aborted", s.wb.clean_aborted);
        m.set_gauge("wb_clean_redundant_rate", s.wb.clean_redundant_rate());
        m.set_counter("wb_snarfed", s.wb.snarfed);
        m.set_counter("wb_squashed_peer", s.wb.squashed_peer);
        m.set_counter("wb_accepted_l3", s.wb.accepted_l3);
        m.set_counter("retries_total", s.retries_total);
        m.set_counter("retries_l3", s.retries_l3);
        m.set_counter("upgrades", s.upgrades);
        m.set_gauge("mean_miss_latency", s.miss_latency.mean());
        m.set_counter("wbht_decisions", self.wbht.decisions);
        m.set_gauge("wbht_correct_rate", self.wbht.correct_rate());
        m.set_counter("ring_addr_txns", self.ring.addr_issued);
        m.set_counter("mem_reads", self.mem.reads);
        m.set_counter("mem_writes", self.mem.writes);
        m.set_counter("mshr_high_water", s.mshr_high_water);
        m.set_counter("wbq_high_water", s.wbq_high_water);
        m.set_counter("event_queue_high_water", s.event_queue_high_water);
        m.set_counter("l3_read_queue_high_water", self.l3.read_queue_high_water);
        m.set_counter("l3_data_queue_high_water", self.l3.data_queue_high_water);
        if let Some(r) = &self.rdcb {
            m.set_counter("rdcb_decisions", r.decisions);
            m.set_counter("rdcb_aborted", r.aborted);
            m.set_counter("rdcb_trained", r.trained);
            m.set_counter("rdcb_unknown", r.unknown);
        }
        if let Some(h) = &self.hybrid {
            m.set_counter("hybrid_invalidations", h.invalidations);
            m.set_counter("hybrid_updates", h.updates);
            m.set_counter("hybrid_regretted_invalidations", h.regretted_invalidations);
            m.set_counter("hybrid_promotions", h.promotions);
            m.set_counter("hybrid_demotions", h.demotions);
            m.set_counter("coherence_updates", s.coherence_updates);
        }
        if let Some(spans) = &self.span_summary {
            spans.register_into(&mut m);
        }
        if let Some(audit) = &self.audit {
            audit.register_into(&mut m);
        }
        m
    }

    /// A compact JSON summary of the run, rendered from
    /// [`RunReport::metrics`].
    pub fn to_json(&self) -> String {
        self.metrics().to_json()
    }

    /// A `(header, row)` CSV pair rendered from the same registry as
    /// [`RunReport::to_json`].
    pub fn to_csv(&self) -> (String, String) {
        self.metrics().to_csv()
    }

    /// Percentage runtime improvement of this run over a baseline run
    /// (positive = faster, as plotted in Figures 2/3/5/7).
    pub fn improvement_over(&self, baseline: &RunReport) -> f64 {
        if baseline.stats.cycles == 0 {
            return 0.0;
        }
        (1.0 - self.stats.cycles as f64 / baseline.stats.cycles as f64) * 100.0
    }
}

/// Where a run's references come from.
#[derive(Debug, Clone)]
pub enum Source {
    /// A synthetic workload generator, seeded by the configuration.
    Synthetic(WorkloadParams),
    /// A recorded trace played back per thread, matching the paper's
    /// trace-driven method.
    Trace(TracePlayback),
}

impl Source {
    /// The name the run's report carries.
    pub(crate) fn name(&self) -> &str {
        match self {
            Source::Synthetic(params) => &params.name,
            Source::Trace(playback) => playback.name(),
        }
    }
}

/// Options for a single run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// System configuration (policy, pressure, geometry).
    pub config: SystemConfig,
    /// The reference stream.
    pub source: Source,
    /// References each thread executes.
    pub refs_per_thread: u64,
    /// Event-trace handle (disabled by default: zero cost).
    pub telemetry: Telemetry,
    /// Interval-sampling period in cycles, when set.
    pub interval_stats: Option<Cycle>,
    /// Transaction span tracer (disabled by default: zero cost).
    pub span_tracer: SpanTracer,
    /// Host-side wall-clock profiler (disabled by default: zero cost).
    /// When enabled with no `interval_stats` period, sampling falls back
    /// to [`DEFAULT_INTERVAL`] so the gauges have a cadence.
    pub host_profiler: HostProfiler,
    /// Live telemetry stream (disabled by default: zero cost).
    pub stream: TelemetryStream,
    /// Cell id tagged on this run's streamed frames (grid multiplexing).
    pub stream_cell: u64,
    /// `--progress` heartbeat period in wall seconds, when set.
    pub progress_secs: Option<f64>,
    /// Enables the decision-quality audit (disabled by default: zero
    /// cost, byte-identical outputs).
    pub audit: bool,
}

impl RunSpec {
    /// Builds a spec with every instrument off.
    pub fn new(config: SystemConfig, source: Source, refs_per_thread: u64) -> Self {
        RunSpec {
            config,
            source,
            refs_per_thread,
            telemetry: Telemetry::disabled(),
            interval_stats: None,
            span_tracer: SpanTracer::disabled(),
            host_profiler: HostProfiler::disabled(),
            stream: TelemetryStream::disabled(),
            stream_cell: 0,
            progress_secs: None,
            audit: false,
        }
    }

    /// Builds a spec for one of the paper's workloads on a configuration.
    pub fn for_workload(config: SystemConfig, workload: Workload, refs_per_thread: u64) -> Self {
        let params = workload.params(config.num_threads(), config.cache_scale());
        Self::new(config, Source::Synthetic(params), refs_per_thread)
    }
}

/// Runs one simulation to completion.
///
/// # Errors
///
/// Returns [`SystemError`] for invalid configurations or workloads.
///
/// # Example
///
/// ```
/// use cmp_adaptive_wb::{run, RunSpec, SystemConfig};
/// use cmpsim_trace::Workload;
///
/// let spec = RunSpec::for_workload(SystemConfig::scaled(16), Workload::Cpw2, 1_000);
/// let report = run(spec)?;
/// assert!(report.cycles() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run(spec: RunSpec) -> Result<RunReport, SystemError> {
    let workload = spec.source.name().to_string();
    let policy = spec.config.policy.label();
    let max_outstanding = spec.config.max_outstanding;
    let mut sys = match spec.source {
        Source::Synthetic(params) => System::new(spec.config, params)?,
        Source::Trace(playback) => System::with_source(spec.config, Box::new(playback))?,
    };
    if spec.telemetry.is_enabled() {
        sys.set_telemetry(spec.telemetry.clone());
    }
    let observing = spec.host_profiler.is_enabled() || spec.stream.is_enabled();
    match spec.interval_stats {
        Some(period) => sys.enable_interval_sampling(period),
        // Host observation samples on the interval cadence, so give it
        // one; the sampler only reads counters, never changes them.
        None if observing => sys.enable_interval_sampling(DEFAULT_INTERVAL),
        None => {}
    }
    let tracing = spec.span_tracer.is_enabled();
    if tracing {
        sys.set_span_tracer(spec.span_tracer.clone());
    }
    let profiling = spec.host_profiler.is_enabled();
    if profiling {
        sys.set_host_profiler(spec.host_profiler.clone());
    }
    if spec.stream.is_enabled() {
        sys.set_stream(spec.stream.clone(), spec.stream_cell);
    }
    if let Some(secs) = spec.progress_secs {
        sys.set_progress(ProgressMeter::new(secs));
    }
    if spec.audit {
        sys.enable_decision_audit();
    }
    let stats = sys.run(spec.refs_per_thread);
    Ok(RunReport {
        workload,
        policy,
        max_outstanding,
        stats,
        l3: sys.l3_stats(),
        mem: sys.memory().stats(),
        ring: sys.ring_stats(),
        wbht: sys.wbht_stats(),
        snarf_table: sys.snarf_table_stats(),
        rdcb: sys.rdcb_stats(),
        hybrid: sys.hybrid_stats(),
        intervals: sys.interval_records().to_vec(),
        spans: if tracing {
            spec.span_tracer.finished_spans()
        } else {
            Vec::new()
        },
        span_summary: tracing.then(|| spec.span_tracer.summary()),
        host: profiling.then(|| spec.host_profiler.report()),
        audit: sys.decision_audit_summary(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RetrySwitchConfig;

    #[test]
    fn smoke_run_baseline() {
        let spec = RunSpec::for_workload(SystemConfig::scaled(16), Workload::NotesBench, 500);
        let r = run(spec).unwrap();
        assert!(r.cycles() > 0);
        assert_eq!(r.stats.refs, 500 * 16);
        assert_eq!(r.policy, "baseline");
    }

    #[test]
    fn json_summary_is_valid_shape() {
        let spec = RunSpec::for_workload(SystemConfig::scaled(16), Workload::Cpw2, 400);
        let r = run(spec).unwrap();
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"workload\":\"CPW2\""));
        assert!(j.contains("\"cycles\":"));
        // Balanced braces and quotes.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('"').count() % 2, 0);
    }

    #[test]
    fn json_and_csv_share_one_registry() {
        let spec = RunSpec::for_workload(SystemConfig::scaled(16), Workload::Cpw2, 400);
        let r = run(spec).unwrap();
        let (header, row) = r.to_csv();
        let names: Vec<&str> = header.split(',').collect();
        let values: Vec<&str> = row.split(',').collect();
        assert_eq!(names.len(), values.len());
        let json = r.to_json();
        for (name, value) in names.iter().zip(&values) {
            let quoted = format!("\"{name}\":\"{value}\"");
            let bare = format!("\"{name}\":{value}");
            assert!(
                json.contains(&quoted) || json.contains(&bare),
                "CSV field {name}={value} missing from JSON {json}"
            );
        }
    }

    #[test]
    fn telemetry_spec_collects_events_and_intervals() {
        use cmpsim_engine::telemetry::Telemetry;

        let (tel, sink) = Telemetry::with_vec_sink();
        let mut spec = RunSpec::for_workload(SystemConfig::scaled(16), Workload::Cpw2, 400);
        spec.telemetry = tel;
        spec.interval_stats = Some(5_000);
        let r = run(spec).unwrap();
        assert!(!sink.lock().unwrap().events().is_empty());
        assert!(!r.intervals.is_empty());
        let last = r.intervals.last().unwrap();
        assert_eq!(last.end, r.cycles());
    }

    #[test]
    fn span_tracer_spec_collects_spans() {
        let mut spec = RunSpec::for_workload(SystemConfig::scaled(16), Workload::Cpw2, 400);
        spec.span_tracer = SpanTracer::sampled(1);
        let r = run(spec).unwrap();
        assert!(!r.spans.is_empty());
        let summary = r.span_summary.as_ref().unwrap();
        assert_eq!(summary.recorded, r.spans.len() as u64);
        // Telescoping: queue wait + service tiles every span exactly.
        for s in &r.spans {
            assert_eq!(s.queue_wait() + s.service(), s.total(), "span {}", s.id);
            assert!(s.outcome.is_some(), "span {} left unfinished", s.id);
        }
        // The summary's histograms surface in the metrics registry.
        let json = r.to_json();
        assert!(json.contains("\"spans_recorded\":"));
        assert!(json.contains("\"span_memory_total.count\":"));
    }

    #[test]
    fn high_water_metrics_exported() {
        let spec = RunSpec::for_workload(SystemConfig::scaled(16), Workload::Trade2, 400);
        let r = run(spec).unwrap();
        assert!(r.stats.mshr_high_water > 0);
        assert!(r.stats.event_queue_high_water > 0);
        let json = r.to_json();
        assert!(json.contains("\"mshr_high_water\":"));
        assert!(json.contains("\"wbq_high_water\":"));
        assert!(json.contains("\"l3_read_queue_high_water\":"));
    }

    #[test]
    fn audit_preserves_base_metrics_and_records_switch_state() {
        use crate::policy::{PolicyConfig, SnarfConfig, WbhtConfig};

        let mut cfg = SystemConfig::scaled(16);
        cfg.policy = PolicyConfig::combined(
            WbhtConfig {
                entries: 1024,
                assoc: 16,
                ..Default::default()
            },
            SnarfConfig {
                entries: 1024,
                ..Default::default()
            },
        );
        cfg.max_outstanding = 6;
        let plain = run(RunSpec::for_workload(cfg.clone(), Workload::Trade2, 2_000)).unwrap();
        let mut spec = RunSpec::for_workload(cfg, Workload::Trade2, 2_000);
        spec.audit = true;
        let audited = run(spec).unwrap();
        assert!(plain.audit.is_none());
        // The audit must not perturb the simulation or the base export:
        // the audited run's metrics minus the audit_* section are
        // byte-identical to the plain run's.
        let base_rows = plain.metrics().flat_rows();
        let audited_rows: Vec<_> = audited
            .metrics()
            .flat_rows()
            .into_iter()
            .filter(|(name, _)| !name.starts_with("audit_"))
            .collect();
        assert_eq!(base_rows, audited_rows);
        // Decision coverage: every clean-castout verdict is recorded
        // with its retry-switch state, and every recorded decision gets
        // an outcome by run end.
        let a = audited.audit.as_ref().unwrap();
        assert!(a.totals.wbht_decisions > 0, "no WBHT verdicts audited");
        assert!(a.totals.snarfs > 0, "no snarf placements audited");
        assert_eq!(
            a.totals.decisions_engaged + a.totals.decisions_disengaged(),
            a.totals.wbht_decisions
        );
        assert_eq!(
            a.totals.aborts,
            a.totals.aborts_correct + a.totals.aborts_mispredicted
        );
        assert!((a.resolved_coverage() - 1.0).abs() < 1e-12);
        let json = audited.to_json();
        assert!(json.contains("\"audit_abort_precision\":"));
        assert!(json.contains("\"audit_useful_snarf_rate\":"));
    }

    #[test]
    fn scaled_out_32_core_topology_runs() {
        // The >8-core axis: 32 cores, 64 threads, 16 L2 agents on the
        // ring — shrunk caches keep the test fast.
        let mut cfg = SystemConfig::with_cores(32).unwrap();
        cfg.l2_slice_bytes = 32 * 1024;
        cfg.l3 = cmpsim_mem::L3Config::scaled(16);
        if let Some(l1) = &mut cfg.l1 {
            l1.size_bytes = 4 * 1024;
        }
        cfg.retry_switch = RetrySwitchConfig::scaled(16);
        let r = run(RunSpec::for_workload(cfg, Workload::Cpw2, 150)).unwrap();
        assert_eq!(r.stats.refs, 150 * 64);
    }

    #[test]
    fn improvement_math() {
        let spec = RunSpec::for_workload(SystemConfig::scaled(16), Workload::NotesBench, 300);
        let a = run(spec.clone()).unwrap();
        let mut b = a.clone();
        b.stats.cycles = a.stats.cycles * 9 / 10;
        assert!(b.improvement_over(&a) > 9.0);
        assert!(a.improvement_over(&a).abs() < 1e-9);
    }
}
