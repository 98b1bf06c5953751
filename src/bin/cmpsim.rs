//! `cmpsim` — command-line driver for the CMP cache-hierarchy simulator.
//!
//! Runs one simulation and prints a report, optionally as CSV or JSON
//! (both rendered from one shared metrics registry, so the two formats
//! always agree). `--trace-events` streams typed simulator events to a
//! JSONL file, `--interval-stats` samples counters periodically, and
//! `--trace-spans` writes per-transaction phase timelines as a Chrome
//! trace-event JSON file loadable in Perfetto. The flags become one
//! `RunSpec`; the library's `run` builds, instruments and reports the
//! simulation, and this binary only prints and writes what it returns.
//!
//! ```text
//! cmpsim [--workload tp|cpw2|notesbench|trade2] [--policy NAME[+NAME...]]
//!        [--entries N] [--outstanding 1..64] [--refs N] [--scale N] [--seed N]
//!        [--cores N]
//!        [--trace FILE] [--granularity N] [--global-wbht] [--csv] [--json]
//!        [--audit] [--metrics-out FILE]
//!        [--trace-events FILE] [--interval-stats N]
//!        [--trace-spans FILE] [--span-sample N]
//!        [--profile-host] [--profile-stride N] [--stream-telemetry[=PATH]]
//!        [--progress[=SECS]] [--quiet] [--verbose]
//! ```

use std::fmt;
use std::io::{self, Write};
use std::ops::RangeBounds;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use cmp_hierarchies::adaptive::{
    run, PolicyConfig, RunReport, RunSpec, Source, SystemConfig, SystemError, UpdateScope,
};
use cmp_hierarchies::engine::chrome::ChromeTrace;
use cmp_hierarchies::engine::metrics::{Metric, MetricsRegistry};
use cmp_hierarchies::engine::profiler::{HostProfiler, DEFAULT_STRIDE};
use cmp_hierarchies::engine::progress::MIN_PERIOD_SECS;
use cmp_hierarchies::engine::spans::SpanTracer;
use cmp_hierarchies::engine::stream::TelemetryStream;
use cmp_hierarchies::engine::telemetry::{JsonlSink, Telemetry};
use cmp_hierarchies::engine::Cycle;
use cmp_hierarchies::trace::{file as trace_file, TracePlayback, Workload};

#[derive(Debug)]
struct Args {
    workload: Workload,
    policy: String,
    entries: u64,
    outstanding: u32,
    refs: u64,
    scale: u64,
    seed: u64,
    cores: Option<u8>,
    trace: Option<String>,
    granularity: u64,
    global_wbht: bool,
    csv: bool,
    json: bool,
    audit: bool,
    metrics_out: Option<String>,
    trace_events: Option<String>,
    interval_stats: Option<Cycle>,
    trace_spans: Option<String>,
    span_sample: u64,
    profile_host: bool,
    profile_stride: u32,
    /// `Some(None)` = stream to stdout, `Some(Some(path))` = Unix socket.
    stream_telemetry: Option<Option<String>>,
    progress_secs: Option<f64>,
    quiet: bool,
    verbose: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workload: Workload::Trade2,
            policy: "baseline".into(),
            entries: 0, // 0 = scaled paper default
            outstanding: 6,
            refs: 20_000,
            scale: 8,
            seed: 0x1BAD_B002,
            cores: None,
            trace: None,
            granularity: 1,
            global_wbht: false,
            csv: false,
            json: false,
            audit: false,
            metrics_out: None,
            trace_events: None,
            interval_stats: None,
            trace_spans: None,
            span_sample: 1,
            profile_host: false,
            profile_stride: DEFAULT_STRIDE,
            stream_telemetry: None,
            progress_secs: None,
            quiet: false,
            verbose: false,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" | "-w" => {
                let name = value()?;
                args.workload =
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
            }
            "--policy" | "-p" => args.policy = value()?,
            "--entries" => args.entries = parse_num(&flag, &value()?)?,
            "--outstanding" | "-o" => args.outstanding = parse_in(&flag, &value()?, 1..=64)?,
            "--refs" | "-n" => args.refs = parse_num(&flag, &value()?)?,
            "--scale" => args.scale = parse_in(&flag, &value()?, 1..)?,
            "--seed" => args.seed = parse_num(&flag, &value()?)?,
            "--cores" => args.cores = Some(parse_num(&flag, &value()?)?),
            "--trace" => args.trace = Some(value()?),
            "--granularity" => args.granularity = parse_num(&flag, &value()?)?,
            "--global-wbht" => args.global_wbht = true,
            "--csv" => args.csv = true,
            "--json" => args.json = true,
            "--audit" => args.audit = true,
            "--metrics-out" => args.metrics_out = Some(value()?),
            "--trace-events" => args.trace_events = Some(value()?),
            "--interval-stats" => {
                args.interval_stats = Some(parse_in(&flag, &value()?, 1..)?);
            }
            "--trace-spans" => args.trace_spans = Some(value()?),
            "--span-sample" => args.span_sample = parse_in(&flag, &value()?, 1..)?,
            "--profile-host" => args.profile_host = true,
            "--profile-stride" => args.profile_stride = parse_in(&flag, &value()?, 1..)?,
            "--stream-telemetry" => args.stream_telemetry = Some(None),
            "--progress" => args.progress_secs = Some(5.0),
            "--quiet" | "-q" => args.quiet = true,
            "--verbose" | "-v" => args.verbose = true,
            "--help" | "-h" => {
                write_stdout(|out| writeln!(out, "{HELP}"))?;
                std::process::exit(0);
            }
            other => {
                if let Some(path) = other.strip_prefix("--stream-telemetry=") {
                    args.stream_telemetry = Some(Some(path.to_string()));
                } else if let Some(raw) = other.strip_prefix("--progress=") {
                    // The meter's own floor: below it the meter would
                    // clamp silently, and an infinite period never beats.
                    let secs: f64 = raw.parse().map_err(|e| format!("{other}: {e}"))?;
                    if !(secs.is_finite() && secs >= MIN_PERIOD_SECS) {
                        return Err(format!(
                            "{other}: out of range (finite, >= {MIN_PERIOD_SECS})"
                        ));
                    }
                    args.progress_secs = Some(secs);
                } else {
                    return Err(format!("unknown flag {other} (try --help)"));
                }
            }
        }
    }
    Ok(args)
}

/// Parses the value of a numeric flag (decimal or `0x` hex, `_`
/// separators allowed) into the flag's own integer type. Errors name
/// the flag and the value as typed; a value that parses but does not
/// fit the type is an error, never a silent wrap or truncation.
fn parse_num<T: TryFrom<u64>>(flag: &str, raw: &str) -> Result<T, String> {
    let s = raw.replace('_', "");
    let n = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("{flag} {raw}: {e}"))?;
    T::try_from(n).map_err(|_| format!("{flag} {raw}: out of range"))
}

/// [`parse_num`] for a flag whose values are limited to `range`: a
/// value outside it is an error, never clamped.
fn parse_in<T, R>(flag: &str, raw: &str, range: R) -> Result<T, String>
where
    T: TryFrom<u64> + PartialOrd,
    R: RangeBounds<T> + fmt::Debug,
{
    let n = parse_num(flag, raw)?;
    if range.contains(&n) {
        Ok(n)
    } else {
        Err(format!("{flag} {raw}: out of range ({range:?})"))
    }
}

const HELP: &str = "cmpsim - CMP cache-hierarchy simulator (ISCA 2005 reproduction)

USAGE:
    cmpsim [OPTIONS]

OPTIONS:
    -w, --workload NAME    tp | cpw2 | notesbench | trade2   [trade2]
    -p, --policy NAME      baseline | wbht | snarf | combined | rdcb |
                           hybrid, joinable with '+' (e.g. wbht+hybrid)
                           [baseline]
        --entries N        history-table entries, a power of two from 16
                           to 1048576 (0 = scaled 32K) [0]
    -o, --outstanding N    max outstanding misses/thread, 1-64 (the paper
                           sweeps 1-6) [6]
    -n, --refs N           references per thread [20000]
        --scale N          capacity divisor vs the paper system, >= 1 [8]
        --seed N           workload RNG seed
        --cores N          cores on the chip (multiple of 2, 2-254; scales
                           the L2 agent count on the ring with it) [8]
        --trace FILE       replay a CMPTRC01 trace instead of a synthetic workload
        --granularity N    lines per WBHT entry (power of two) [1]
        --global-wbht      allocate WBHT entries in all L2s (Figure 3 mode)
        --csv              machine-readable one-line CSV output
        --json             machine-readable JSON summary
        --audit            record adaptive-decision outcomes (WBHT
                           abort precision, snarf usefulness, net
                           cycles) as audit_* metrics, decision frames
                           on --stream-telemetry, and a counter track
                           in --trace-spans
        --metrics-out F    also write the metrics registry to F (JSON,
                           or CSV with --csv); composes with
                           --stream-telemetry on stdout
        --trace-events F   stream typed simulator events to F as JSON lines
        --interval-stats N snapshot counters every N cycles, N >= 1 (see
                           --verbose)
        --trace-spans F    write per-transaction phase spans to F as a
                           Chrome trace-event JSON (open in Perfetto)
        --span-sample N    trace every Nth transaction span only, N >= 1 [1]
        --profile-host     attribute host wall-clock time per pipeline
                           stage (summary on stderr; merged into
                           --trace-spans as a separate Perfetto track)
        --profile-stride N time 1 of every N (>= 1) event-loop iterations [128]
        --stream-telemetry[=PATH]
                           stream interval counters + host samples as
                           length-prefixed NDJSON to stdout, or serve
                           them on a Unix socket at PATH (attach with
                           report tail; combine stdout mode with -q)
        --progress[=SECS]  heartbeat to stderr every SECS wall-seconds,
                           SECS >= 0.1 (cycles, cycles/sec EMA, ETA) [5]
    -q, --quiet            suppress the human-readable report (also
                           silences --progress and the host summary)
    -v, --verbose          additionally print per-interval counter deltas

OBSERVABILITY:
    --trace-events, --interval-stats, --trace-spans, --profile-host, and
    --stream-telemetry are zero-cost when off. The `report` tool (in
    cmpsim-bench) reads their output: `report events` summarizes the
    JSONL event trace and `report tail` follows a stream. Span traces
    open in Perfetto; `report spans` prints their attribution:
        cmpsim -p combined --trace-events out.jsonl --interval-stats 100000
        report events out.jsonl
        cmpsim -p combined --trace-spans spans.json --span-sample 16
        cmpsim -p combined --profile-host --trace-spans spans.json
        cmpsim -q --stream-telemetry | report tail -";

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cmpsim: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `print` against one buffered, locked stdout and flushes it. A
/// reader that closed the pipe early (`cmpsim ... | head`) ends the run
/// quietly; any other write error is reported.
fn write_stdout(print: impl FnOnce(&mut dyn Write) -> io::Result<()>) -> Result<(), String> {
    let mut out = io::BufWriter::new(io::stdout().lock());
    match print(&mut out).and_then(|()| out.flush()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(format!("stdout: {e}")),
        _ => Ok(()),
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let mut cfg = SystemConfig::try_scaled(args.scale)
        .map_err(|e| format!("--scale {}: invalid geometry: {e}", args.scale))?;
    cfg.max_outstanding = args.outstanding;
    cfg.seed = args.seed;
    if let Some(cores) = args.cores {
        // The >8-core topology axis: more core pairs, more L2 agents on
        // the ring, same per-L2 capacity at the chosen scale.
        cfg.cores = cores;
        cfg.num_l2 = cores / 2;
        cfg.check_cores().map_err(|e| format!("--cores: {e}"))?;
    }
    let entries = if args.entries == 0 {
        PolicyConfig::scaled_entries(args.scale)
    } else {
        args.entries
    };
    let scope = if args.global_wbht {
        UpdateScope::Global
    } else {
        UpdateScope::Local
    };
    cfg.policy = PolicyConfig::parse(&args.policy, entries, scope, args.granularity)
        .map_err(|e| e.to_string())?;
    if let Some(wbht) = &cfg.policy.wbht {
        wbht.check_granularity()
            .map_err(|e| format!("--granularity {}: {e}", args.granularity))?;
    }
    // Every configuration error surfaces here, before an output file is
    // opened or a table allocated.
    cfg.validate().map_err(|e| match e {
        SystemError::Table(e) => format!("--entries {}: {e}", args.entries),
        e => e.to_string(),
    })?;

    let source = match &args.trace {
        Some(path) => {
            let data = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
            let records = trace_file::read_trace(&data[..]).map_err(|e| format!("{path}: {e}"))?;
            let playback = TracePlayback::new(path.clone(), records, cfg.num_threads(), 1)
                .map_err(|e| format!("{path}: {e}"))?;
            Source::Trace(playback)
        }
        None => Source::Synthetic(args.workload.params(cfg.num_threads(), cfg.cache_scale())),
    };
    let mut spec = RunSpec::new(cfg, source, args.refs);
    // The sink keeps its first write error; the handle kept here reads
    // it back once the run is over.
    let events = match &args.trace_events {
        Some(path) => {
            let sink =
                JsonlSink::create(path).map_err(|e| format!("--trace-events {path}: {e}"))?;
            let sink = Arc::new(Mutex::new(sink));
            spec.telemetry = Telemetry::from_shared(sink.clone());
            Some((path, sink))
        }
        None => None,
    };
    spec.interval_stats = args.interval_stats;
    if args.trace_spans.is_some() {
        spec.span_tracer = SpanTracer::sampled(args.span_sample);
    }
    // Streaming implies the profiler: HostSample frames (gauges, rates,
    // per-stage attribution) are the payload a tail attaches for.
    if args.profile_host || args.stream_telemetry.is_some() {
        spec.host_profiler = HostProfiler::with_stride(args.profile_stride);
    }
    spec.stream = match &args.stream_telemetry {
        None => TelemetryStream::disabled(),
        Some(None) => TelemetryStream::stdout(),
        Some(Some(path)) => TelemetryStream::listen_unix(std::path::Path::new(path))
            .map_err(|e| format!("--stream-telemetry {path}: {e}"))?,
    };
    spec.progress_secs = args.progress_secs.filter(|_| !args.quiet);
    spec.audit = args.audit;

    let report = run(spec).map_err(|e| e.to_string())?;
    if let Some((path, sink)) = &events {
        let sink = sink
            .lock()
            .expect("no thread panicked while writing events");
        if let Some(e) = sink.error() {
            return Err(format!("--trace-events {path}: {e}"));
        }
    }

    if let Some(path) = &args.trace_spans {
        let file = std::fs::File::create(path).map_err(|e| format!("--trace-spans {path}: {e}"))?;
        let trace = ChromeTrace {
            spans: &report.spans,
            host_samples: report.host.as_ref().map_or(&[], |h| &h.samples),
            decisions: report.audit.as_ref().map_or(&[], |a| &a.history),
        };
        let mut w = std::io::BufWriter::new(file);
        trace
            .write(&mut w)
            .and_then(|()| w.flush())
            .map_err(|e| format!("--trace-spans {path}: {e}"))?;
    }
    if let Some(host) = report.host.as_ref().filter(|_| !args.quiet) {
        eprint!("{}", host.render());
    }

    // One registry feeds every machine-readable format, so JSON and CSV
    // cannot drift apart (they once disagreed on which snarf counter the
    // "snarfed" column reported).
    let metrics = report.metrics();

    if let Some(path) = &args.metrics_out {
        let body = if args.csv {
            let (header, row) = metrics.to_csv();
            format!("{header}\n{row}\n")
        } else {
            format!("{}\n", metrics.to_json())
        };
        std::fs::write(path, body).map_err(|e| format!("--metrics-out {path}: {e}"))?;
    }

    write_stdout(|out| print_report(out, &args, &report, &metrics))
}

/// The report on stdout: JSON, CSV or the human-readable summary, then
/// the per-interval deltas under `--verbose`.
fn print_report(
    out: &mut dyn Write,
    args: &Args,
    report: &RunReport,
    metrics: &MetricsRegistry,
) -> io::Result<()> {
    if args.json {
        writeln!(out, "{}", metrics.to_json())?;
    } else if args.csv {
        let (header, row) = metrics.to_csv();
        writeln!(out, "{header}")?;
        writeln!(out, "{row}")?;
    } else if !args.quiet {
        let s = &report.stats;
        let l3_hit = match metrics.get("l3_load_hit_rate") {
            Some(Metric::Gauge(v)) => *v,
            _ => 0.0,
        };
        writeln!(out, "workload      : {}", report.workload)?;
        writeln!(out, "policy        : {}", report.policy)?;
        writeln!(out, "outstanding   : {}", report.max_outstanding)?;
        writeln!(out, "cycles        : {}", s.cycles)?;
        writeln!(out, "references    : {}", s.refs)?;
        writeln!(out, "L2 hit rate   : {:.1}%", s.l2_hit_rate() * 100.0)?;
        writeln!(out, "L3 load hits  : {:.1}%", l3_hit * 100.0)?;
        writeln!(out, "WB requests   : {}", s.wb.requests())?;
        writeln!(
            out,
            "  redundant   : {:.1}%",
            s.wb.clean_redundant_rate() * 100.0
        )?;
        writeln!(out, "  WBHT aborts : {}", s.wb.clean_aborted)?;
        writeln!(out, "  snarfed     : {}", s.wb.snarfed)?;
        writeln!(out, "L3 retries    : {}", s.retries_l3)?;
        writeln!(out, "off-chip      : {}", s.off_chip_accesses())?;
        writeln!(out, "mean miss lat : {:.0} cycles", s.miss_latency.mean())?;
    }

    if args.verbose && !report.intervals.is_empty() {
        let period = args.interval_stats.unwrap_or_default();
        writeln!(
            out,
            "intervals     : {} (period {period})",
            report.intervals.len()
        )?;
        for rec in &report.intervals {
            let deltas: Vec<String> = rec
                .counters
                .iter()
                .filter(|(_, v)| *v > 0)
                .map(|(n, v)| format!("{n}={v}"))
                .collect();
            writeln!(out, "  [{}, {}) {}", rec.start, rec.end, deltas.join(" "))?;
        }
    }
    Ok(())
}
