//! The cmpsim benchmark: named workloads run through the simulator's
//! public API, reporting end-to-end metrics from untraced runs and
//! per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` repeats the workload's timed run for `--seconds` and
//! prints the end-to-end metrics; `--trace 1` prints the per-layer
//! metrics (host profiler at stride 1, sampled span tracer, replays of
//! the headline run's own traffic through each crate). Every run's output is
//! checked; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Workloads, metrics and
//! the end-to-end metric each layer metric should move are described in
//! `perfbench/README.md`.

mod host;
mod layers;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cmp_adaptive_wb::{
    PolicyConfig, RunReport, RunSpec, SnarfConfig, System, SystemConfig, SystemStats, UpdateScope,
    WbhtConfig,
};
use cmpsim_engine::profiler::{HostProfiler, HostReport, HostStage, CLOCK_BACKEND};
use cmpsim_engine::spans::{SpanOutcome, SpanRecord, SpanTracer};
use cmpsim_engine::telemetry::{FillSource, Telemetry};
use cmpsim_engine::Cycle;
use cmpsim_trace::{Workload, WorkloadParams};

use layers::{LayerInputs, SpanLog};

/// The seed EXPERIMENTS.md was calibrated on.
const DEFAULT_SEED: u64 = 0x1BAD_B002;
/// A seed never used for calibration: the traced run also reports the
/// model's distance from the paper on it.
const HELDOUT_SEED: u64 = 0x0DD5_EED5;
/// `System::new` calls timed per cell; setup time is their median.
const SETUP_REPS: usize = 25;
/// Fewest repetitions of the timed phase; the first only warms up.
const MIN_REPS: usize = 3;
/// Host interference only ever slows a timing sample down, and on a
/// shared host it comes and goes over seconds to minutes, moving a run's
/// median rate by up to a third. Throughput is therefore taken at the
/// fast quartile of a run's samples (the rate the simulator sustains
/// when least disturbed, with a quarter of the samples still beyond it)
/// and divided by the fast quartile of the reference workload's speed,
/// measured once before every sample; see [`host::Reference`].
const FAST_QUARTILE: f64 = 0.75;
/// The traced run keeps every `SPAN_SAMPLE`-th transaction span.
const SPAN_SAMPLE: u64 = 8;
/// Replay rounds in the traced run; per-layer times are their medians.
const REPLAY_ROUNDS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    Baseline,
    Wbht,
    Snarf,
}

/// A benchmark workload: a paper workload, a policy and its baseline at
/// one or more outstanding-load settings.
struct Bench {
    name: &'static str,
    workload: Workload,
    /// Capacity divisor (1 = the paper's geometry).
    scale: u64,
    policy: Policy,
    /// Per-thread references run before the timed window (0: cold).
    warm_refs: u64,
    /// Per-thread references in the timed window.
    refs: u64,
    /// `System::run` calls the timed window is split into; each is one
    /// timing sample, so a repetition yields several.
    chunks: u64,
    /// Outstanding-load settings; policy and baseline run at each.
    pressures: &'static [u32],
    /// Cells run through `run_grid` (the figure path) instead of one
    /// `System` per timed repetition.
    grid: bool,
    /// The paper's runtime gain at 6 loads, percent.
    paper_gain_pct: f64,
}

const BENCHES: [Bench; 3] = [
    // Fig. 2's headline WBHT point on the paper geometry: the heaviest
    // write-back traffic; castout filtering, blocked-fill polls and the
    // event queue dominate, and the tag arrays exceed host caches.
    Bench {
        name: "paper_trade2_wbht",
        workload: Workload::Trade2,
        scale: 1,
        policy: Policy::Wbht,
        warm_refs: 60_000,
        refs: 40_000,
        chunks: 16,
        pressures: &[6],
        grid: false,
        paper_gain_pct: 13.0,
    },
    // Private-dominated: the retry switch never engages, so the WBHT is
    // consulted but never aborts. Castout/fill/policy optimisations must
    // show no change here; the frontend dominates host time.
    Bench {
        name: "quick_notes_wbht",
        workload: Workload::NotesBench,
        scale: 8,
        policy: Policy::Wbht,
        warm_refs: 30_000,
        refs: 120_000,
        chunks: 8,
        pressures: &[6],
        grid: false,
        paper_gain_pct: 0.0,
    },
    // How users produce a figure (Fig. 5 / Table 5): 12 short cells
    // through the grid runner; dirty, retried castouts on a thrashed L3.
    Bench {
        name: "quick_tp_snarf_sweep",
        workload: Workload::Tp,
        scale: 8,
        policy: Policy::Snarf,
        warm_refs: 0,
        refs: 10_000,
        chunks: 1,
        pressures: &[1, 2, 3, 4, 5, 6],
        grid: true,
        paper_gain_pct: 13.1,
    },
];

/// One simulation of a workload: a configuration and its stream length.
#[derive(Clone)]
struct Cell {
    cfg: SystemConfig,
    workload: Workload,
    warm_refs: u64,
    refs: u64,
    chunks: u64,
    policy: bool,
    pressure: u32,
}

impl Bench {
    fn config(&self, policy: Policy, pressure: u32, seed: u64) -> SystemConfig {
        let mut c = if self.scale == 1 {
            SystemConfig::paper()
        } else {
            SystemConfig::scaled(self.scale)
        };
        c.max_outstanding = pressure;
        c.seed = seed;
        let entries = layers::table_entries(self.scale);
        c.policy = match policy {
            Policy::Baseline => PolicyConfig::baseline(),
            Policy::Wbht => PolicyConfig::wbht(WbhtConfig {
                entries,
                assoc: 16,
                scope: UpdateScope::Local,
                granularity: 1,
            }),
            Policy::Snarf => PolicyConfig::snarf(SnarfConfig {
                entries,
                ..Default::default()
            }),
        };
        c
    }

    /// Every cell, baseline then policy at each pressure (the order the
    /// experiment harness's pressure sweeps use).
    fn cells(&self, seed: u64) -> Vec<Cell> {
        let mut out = Vec::new();
        for &n in self.pressures {
            for (policy, is_policy) in [(Policy::Baseline, false), (self.policy, true)] {
                out.push(Cell {
                    cfg: self.config(policy, n, seed),
                    workload: self.workload,
                    warm_refs: self.warm_refs,
                    refs: self.refs,
                    chunks: self.chunks,
                    policy: is_policy,
                    pressure: n,
                });
            }
        }
        out
    }

    fn jobs(&self) -> usize {
        if self.grid {
            host::host_cores().min(2)
        } else {
            1
        }
    }
}

impl Cell {
    fn params(&self) -> WorkloadParams {
        self.workload
            .params(self.cfg.num_threads(), self.cfg.cache_scale())
    }

    fn spec(&self) -> RunSpec {
        RunSpec::for_workload(self.cfg.clone(), self.workload, self.refs)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => {
                    let v = value()?;
                    let parsed = match v.strip_prefix("0x") {
                        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
                        None => v.replace('_', "").parse(),
                    };
                    args.seed = parsed.map_err(|_| format!("--seed: bad number {v:?}"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    args.seconds = v
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or(format!("--seconds: expected a positive number, got {v:?}"))?;
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let names = BENCHES.map(|b| b.name).join("|");
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{names}> [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let Some(bench) = BENCHES.iter().find(|b| b.name == args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (known: {names})",
            args.workload
        );
        return ExitCode::from(2);
    };
    println!(
        "# perfbench workload={} seed={:#x} seconds={} trace={}",
        bench.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host_cores={} cpu_model={:?} cpu_clock={:?} profiler_clock={} git_rev={}",
        host::host_cores(),
        host::cpu_model(),
        host::CPU_CLOCK,
        CLOCK_BACKEND,
        host::git_rev()
    );
    let mut ledger = Ledger::default();
    let metrics = if args.trace {
        traced(bench, &args, &mut ledger)
    } else {
        untraced(bench, &args, &mut ledger)
    }
    .unwrap_or_default();
    for note in &ledger.notes {
        println!("# FAILED {note}");
    }
    let mut json = String::new();
    for (i, m) in metrics.iter().enumerate() {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints every digit an f64 carries; a non-finite value
        // only arises from a failed run, which the ledger reports.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed
    );
    ExitCode::SUCCESS
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Attempts and failures of every run, plus what failed.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Ledger {
    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.notes.push(format!("{what}: {e}"));
        }
    }

    /// Runs one checked cell, counting it.
    fn run(
        &mut self,
        what: &str,
        cell: &Cell,
        obs: Option<&Observers>,
        reference: Option<&mut host::Reference>,
    ) -> Option<CellRun> {
        let run = run_cell(cell, obs, reference);
        let result = run.as_ref().map(|_| ()).map_err(Clone::clone);
        self.check(what, result);
        run.ok()
    }
}

/// Observers attached to a run. The host profiler (shared by every
/// cell) and the span tracer (on the headline policy cell) attach after
/// the warm-up; the event sink attaches before it, so it sees the whole
/// run.
struct Observers {
    profiler: HostProfiler,
    spans: SpanTracer,
    telemetry: Telemetry,
}

/// One timed `System::run` call.
struct Sample {
    cycles: u64,
    cpu_s: f64,
    wall_s: f64,
    /// The reference workload's speed right before this call, when the
    /// run interleaves it.
    reference_rate: Option<f64>,
}

/// One finished cell: its report and its timed window.
struct CellRun {
    report: RunReport,
    /// Modelled cycles of the timed window.
    cycles: u64,
    /// References, and fills plus upgrades, in the timed window.
    refs: u64,
    fills: u64,
    /// The timed window's chunks (empty for a grid cell, which is timed
    /// with its whole grid).
    samples: Vec<Sample>,
}

impl CellRun {
    fn cpu_s(&self) -> f64 {
        self.samples.iter().map(|s| s.cpu_s).sum()
    }

    fn wall_s(&self) -> f64 {
        self.samples.iter().map(|s| s.wall_s).sum()
    }
}

/// Demand fills plus upgrades: the completions a Fill event serves.
fn completions(s: &SystemStats) -> u64 {
    s.fills_from_l2 + s.fills_from_l3 + s.fills_from_memory + s.upgrades
}

/// Runs a cell on its own `System`: an untimed warm-up run, then the
/// timed chunks (each preceded by one unit of `reference` work, when
/// given, so every chunk starts from the same host-cache state), then
/// the output checks (outside the timed window).
fn run_cell(
    cell: &Cell,
    obs: Option<&Observers>,
    mut reference: Option<&mut host::Reference>,
) -> Result<CellRun, String> {
    let mut sys = System::new(cell.cfg.clone(), cell.params()).map_err(|e| e.to_string())?;
    if let Some(o) = obs.filter(|o| o.telemetry.is_enabled()) {
        sys.set_telemetry(o.telemetry.clone());
    }
    if cell.warm_refs > 0 {
        sys.run(cell.warm_refs);
    }
    let warm = sys.stats().clone();
    if let Some(o) = obs {
        sys.set_host_profiler(o.profiler.clone());
        sys.set_span_tracer(o.spans.clone());
    }
    let mut samples = Vec::with_capacity(cell.chunks as usize);
    for _ in 0..cell.chunks {
        let reference_rate = reference.as_deref_mut().map(host::Reference::rate);
        let before = sys.stats().cycles;
        let (cpu0, wall0) = (host::cpu_s(), Instant::now());
        sys.run(cell.refs / cell.chunks);
        let (cpu_s, wall_s) = (host::cpu_s() - cpu0, wall0.elapsed().as_secs_f64());
        samples.push(Sample {
            cycles: sys.stats().cycles - before,
            cpu_s,
            wall_s,
            reference_rate,
        });
    }
    sys.check_invariants()
        .map_err(|v| format!("invariant violated at run end: {v}"))?;
    let report = RunReport {
        workload: cell.params().name,
        policy: cell.cfg.policy.label(),
        max_outstanding: cell.cfg.max_outstanding,
        stats: sys.stats().clone(),
        l3: sys.l3_stats(),
        mem: sys.memory().stats(),
        ring: sys.ring_stats(),
        wbht: sys.wbht_stats(),
        snarf_table: sys.snarf_table_stats(),
        rdcb: sys.rdcb_stats(),
        hybrid: sys.hybrid_stats(),
        intervals: Vec::new(),
        spans: Vec::new(),
        span_summary: None,
        host: None,
        audit: None,
    };
    check_report(cell, &report)?;
    Ok(CellRun {
        cycles: report.stats.cycles - warm.cycles,
        refs: report.stats.refs - warm.refs,
        fills: completions(&report.stats) - completions(&warm),
        report,
        samples,
    })
}

/// The checks every report must pass: all references ran, and the JSON
/// and CSV exports agree field for field. Both exports render from one
/// metrics registry, so the second check guards the export layer only.
fn check_report(cell: &Cell, r: &RunReport) -> Result<(), String> {
    let want = (cell.warm_refs + cell.refs) * u64::from(cell.cfg.num_threads());
    if r.stats.refs != want {
        return Err(format!("refs {} != {want}", r.stats.refs));
    }
    let (header, row) = r.to_csv();
    let csv: Vec<(&str, &str)> = header.split(',').zip(row.split(',')).collect();
    if header.split(',').count() != row.split(',').count() {
        return Err("CSV header and row differ in length".into());
    }
    // The JSON export is one flat object; split it into name/value
    // pairs, text values unquoted as the CSV writes them.
    let json = r.to_json();
    let body = json
        .strip_prefix('{')
        .and_then(|j| j.strip_suffix('}'))
        .ok_or("JSON export is not one object")?;
    let pairs: Vec<(&str, &str)> = body
        .split(',')
        .map(|kv| {
            let (k, v) = kv.split_once(':').unwrap_or((kv, ""));
            (k.trim_matches('"'), v.trim_matches('"'))
        })
        .collect();
    if pairs.len() != csv.len() {
        return Err(format!(
            "JSON has {} fields, CSV {}",
            pairs.len(),
            csv.len()
        ));
    }
    if let Some((c, j)) = csv.iter().zip(&pairs).find(|(c, j)| c != j) {
        return Err(format!(
            "CSV field {}={} but JSON {}={}",
            c.0, c.1, j.0, j.1
        ));
    }
    Ok(())
}

/// The modelled part of a report: every exported field except span
/// accounting, which only a traced run carries.
fn modelled(r: &RunReport) -> String {
    r.metrics()
        .flat_rows()
        .into_iter()
        .filter(|(name, _)| !name.starts_with("span"))
        .map(|(name, value)| format!("{name}={value:?};"))
        .collect()
}

/// Modelled outputs repeat exactly for a fixed seed.
fn same_model(a: &CellRun, b: &CellRun) -> Result<(), String> {
    if a.cycles != b.cycles || modelled(&a.report) != modelled(&b.report) {
        return Err(format!(
            "modelled metrics of {} max_outstanding={} differ between runs",
            a.report.policy, a.report.max_outstanding
        ));
    }
    Ok(())
}

/// Every cell once on its own `System`, serially, with the full checks
/// (the grid runner hides its systems, so invariants are checked here).
fn check_pass(ledger: &mut Ledger, cells: &[Cell]) -> Option<Vec<CellRun>> {
    let runs: Vec<Option<CellRun>> = cells
        .iter()
        .map(|c| {
            ledger.run(
                &format!("check pass, max_outstanding={}", c.pressure),
                c,
                None,
                None,
            )
        })
        .collect();
    runs.into_iter().collect()
}

/// A grid repetition: every cell through `run_grid`, timed as a whole.
struct GridRun {
    runs: Vec<CellRun>,
    cpu_s: f64,
    wall_s: f64,
}

fn run_grid_timed(cells: &[Cell], obs: Option<&Observers>, jobs: usize) -> GridRun {
    let top = top_pressure(cells);
    let specs = cells
        .iter()
        .map(|c| {
            let mut s = c.spec();
            if let Some(o) = obs {
                s.host_profiler = o.profiler.clone();
                // The headline cell's spans give the fill-latency tiers.
                if c.policy && c.pressure == top {
                    s.span_tracer = o.spans.clone();
                }
            }
            s
        })
        .collect();
    let (cpu0, wall0) = (host::cpu_s(), Instant::now());
    let reports = cmpsim_bench::run_grid(specs, jobs);
    let (cpu_s, wall_s) = (host::cpu_s() - cpu0, wall0.elapsed().as_secs_f64());
    let runs = reports
        .into_iter()
        .map(|r| CellRun {
            cycles: r.stats.cycles,
            refs: r.stats.refs,
            fills: completions(&r.stats),
            report: r,
            samples: Vec::new(),
        })
        .collect();
    GridRun {
        runs,
        cpu_s,
        wall_s,
    }
}

/// Median `System::new` time of each cell, summed over cells.
fn setup_s(cells: &[Cell]) -> Result<f64, String> {
    let mut total = 0.0;
    for cell in cells {
        let mut times = Vec::with_capacity(SETUP_REPS);
        for _ in 0..SETUP_REPS {
            let params = cell.params();
            let t = Instant::now();
            let sys = System::new(cell.cfg.clone(), params).map_err(|e| e.to_string())?;
            times.push(t.elapsed().as_secs_f64());
            drop(std::hint::black_box(sys));
        }
        total += host::median(&times);
    }
    Ok(total)
}

fn top_pressure(cells: &[Cell]) -> u32 {
    cells.iter().map(|c| c.pressure).max().unwrap_or(0)
}

/// Index of the policy (or baseline) cell at the highest pressure: the
/// workload's headline point.
fn headline(cells: &[Cell], policy: bool) -> usize {
    let top = top_pressure(cells);
    cells
        .iter()
        .position(|c| c.pressure == top && c.policy == policy)
        .expect("every workload runs policy and baseline at its top pressure")
}

fn gain_pct(policy: u64, baseline: u64) -> f64 {
    (1.0 - policy as f64 / baseline.max(1) as f64) * 100.0
}

/// The end-to-end metrics: the timed phase repeats until `--seconds`
/// have passed (at least [`MIN_REPS`] times).
fn untraced(bench: &Bench, args: &Args, ledger: &mut Ledger) -> Option<Vec<Metric>> {
    let cells = bench.cells(args.seed);
    let (top, base) = (headline(&cells, true), headline(&cells, false));
    let setup = setup_s(&cells).unwrap_or_else(|e| {
        ledger.check("setup", Err(e));
        f64::NAN
    });
    let start = Instant::now();
    let mut reps = 0;
    // Throughput samples (cycles per CPU-second), wall-time samples, and
    // the reference workload's speed after each sample.
    let mut rates = Vec::new();
    let mut walls = Vec::new();
    let mut reference_rates = Vec::new();
    // The first repetition only warms up: its samples are dropped. It
    // gives the peak RSS, read before the reference workload's table
    // exists (later repetitions only add allocator churn, and how many
    // there are depends on host speed); every later sample runs right
    // after a unit of reference work.
    let mut peak = 0.0;
    let mut host_ref: Option<host::Reference> = None;
    let runs = if bench.grid {
        let reference = check_pass(ledger, &cells)?;
        let total: u64 = reference.iter().map(|r| r.cycles).sum();
        while reps < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
            reps += 1;
            let g = run_grid_timed(&cells, None, bench.jobs());
            for (i, r) in g.runs.iter().enumerate() {
                let ok =
                    same_model(&reference[i], r).and_then(|()| check_report(&cells[i], &r.report));
                ledger.check("grid repetition", ok);
            }
            if reps == 1 {
                peak = host::peak_rss_mb();
            } else {
                rates.push(total as f64 / g.cpu_s);
                walls.push(g.wall_s);
            }
            let r = host_ref.get_or_insert_with(host::Reference::new);
            reference_rates.push(r.rate());
        }
        reference
    } else {
        let companion = ledger.run("baseline companion", &cells[base], None, None);
        let mut first: Option<CellRun> = None;
        while reps < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
            reps += 1;
            let run = ledger.run("policy run", &cells[top], None, host_ref.as_mut())?;
            if reps == 1 {
                peak = host::peak_rss_mb();
                host_ref = Some(host::Reference::new());
            } else {
                rates.extend(run.samples.iter().map(|s| s.cycles as f64 / s.cpu_s));
                // Wall time per modelled cycle; scaled to the window below.
                walls.extend(run.samples.iter().map(|s| s.wall_s / s.cycles as f64));
                reference_rates.extend(run.samples.iter().filter_map(|s| s.reference_rate));
            }
            match &first {
                None => first = Some(run),
                Some(f) => ledger.check("policy repetition", same_model(f, &run)),
            }
        }
        let mut runs = vec![companion?, first?];
        if top < base {
            runs.swap(0, 1);
        }
        runs
    };
    let window_cycles = runs[top].cycles;
    let sim_cycles: u64 = if bench.grid {
        cells
            .iter()
            .zip(&runs)
            .filter(|(c, _)| c.policy)
            .map(|(_, r)| r.cycles)
            .sum()
    } else {
        window_cycles
    };
    // Host speed relative to the tuning host: above 1 on a faster or
    // quieter host, below 1 while other tenants slow this one down.
    let host_speed = host::quantile(&reference_rates, FAST_QUARTILE) / host::REFERENCE_NOMINAL_RATE;
    let raw_rate = host::quantile(&rates, FAST_QUARTILE);
    // Wall time at the fast quartile too: the fastest-quartile time of a
    // grid repetition, or a single run's window at its chunks' fastest-
    // quartile wall time per cycle.
    let raw_wall = host::quantile(&walls, 1.0 - FAST_QUARTILE)
        * if bench.grid {
            1.0
        } else {
            window_cycles as f64
        };
    let gain = gain_pct(window_cycles, runs[base].cycles);
    println!(
        "# timed repetitions={reps} samples={} cyc/cpu-s: median={:.0} fast_quartile={raw_rate:.0}",
        rates.len(),
        host::median(&rates),
    );
    println!(
        "# host_speed={host_speed:.4} (reference fast quartile / nominal) raw_wall_s={raw_wall:.6} raw_setup_s={setup:.9}"
    );
    println!(
        "# policy_gain_pct={gain:.4} paper_gain_pct={} paper_err_pts={:.4} failed_frac={:.4}",
        bench.paper_gain_pct,
        (gain - bench.paper_gain_pct).abs(),
        ledger.failed as f64 / ledger.attempted.max(1) as f64
    );
    Some(vec![
        metric("sim_cycles_per_cpu_s", raw_rate / host_speed, "cyc/s"),
        metric("wall_s", raw_wall * host_speed, "s"),
        metric("peak_rss_mb", peak, "MB"),
        metric("setup_s", setup * host_speed, "s"),
        metric("sim_cycles", sim_cycles as f64, "cycles"),
        metric(
            "policy_speedup",
            runs[base].cycles as f64 / window_cycles.max(1) as f64,
            "x",
        ),
    ])
}

/// Median total latency of the sampled fill spans from `source`, cycles.
fn fill_tier(spans: &[SpanRecord], source: FillSource) -> f64 {
    let lat: Vec<f64> = spans
        .iter()
        .filter(|s| s.outcome == Some(SpanOutcome::Filled(source)))
        .map(|s| s.total() as f64)
        .collect();
    if lat.is_empty() {
        0.0
    } else {
        host::median(&lat)
    }
}

const STAGES: [HostStage; 7] = [
    HostStage::Frontend,
    HostStage::BusIssue,
    HostStage::Snoop,
    HostStage::Castout,
    HostStage::Fill,
    HostStage::Observe,
    HostStage::EventQueue,
];

fn stage_metrics(h: &HostReport, out: &mut Vec<Metric>) {
    // Observe is bookkeeping after every dispatch, so its events are the
    // loop's iterations (one popped event each).
    let iterations = h.stage_events[HostStage::EventQueue as usize];
    for st in STAGES {
        let i = st as usize;
        let events = if st == HostStage::Observe {
            iterations
        } else {
            h.stage_events[i]
        };
        let name = st.as_str();
        out.push(metric(
            &format!("core.{name}.share"),
            h.stage_share(st),
            "ratio",
        ));
        out.push(metric(
            &format!("core.{name}.ns_per_event"),
            h.stage_ns[i] as f64 / events.max(1) as f64,
            "ns",
        ));
        out.push(metric(
            &format!("core.{name}.events"),
            events as f64,
            "count",
        ));
    }
    out.push(metric("core.coverage", h.coverage(), "ratio"));
}

fn model_metrics(r: &RunReport, spans: &[SpanRecord], out: &mut Vec<Metric>) {
    let s = &r.stats;
    let per = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    out.push(metric("model.l2_hit_rate", s.l2_hit_rate(), "ratio"));
    out.push(metric(
        "model.l3_load_hit_rate",
        per(r.l3.read_hits, r.l3.read_hits + r.l3.read_misses),
        "ratio",
    ));
    out.push(metric(
        "model.retries_per_addr_txn",
        per(s.retries_total, r.ring.addr_issued),
        "ratio",
    ));
    out.push(metric("model.wb_abort_rate", r.wbht.abort_rate(), "ratio"));
    out.push(metric(
        "model.wbht_correct_rate",
        r.wbht.correct_rate(),
        "ratio",
    ));
    out.push(metric(
        "model.snarf_used_rate",
        per(
            s.snarf.used_locally + s.snarf.used_for_intervention,
            s.snarf.snarfed,
        ),
        "ratio",
    ));
    out.push(metric(
        "model.mean_miss_latency_cy",
        s.miss_latency.mean(),
        "cycles",
    ));
    out.push(metric(
        "model.mshr_high_water",
        s.mshr_high_water as f64,
        "count",
    ));
    out.push(metric(
        "model.wbq_high_water",
        s.wbq_high_water as f64,
        "count",
    ));
    out.push(metric(
        "model.fill_l2_cy",
        fill_tier(spans, FillSource::L2Peer),
        "cycles",
    ));
    out.push(metric(
        "model.fill_l3_cy",
        fill_tier(spans, FillSource::L3),
        "cycles",
    ));
    out.push(metric(
        "model.fill_mem_cy",
        fill_tier(spans, FillSource::Memory),
        "cycles",
    ));
}

/// Policy gain at the top pressure on `seed`, from fresh untraced runs.
fn gain_on_seed(bench: &Bench, seed: u64, ledger: &mut Ledger) -> Option<f64> {
    let cells = bench.cells(seed);
    let policy = ledger.run(
        "held-out policy run",
        &cells[headline(&cells, true)],
        None,
        None,
    )?;
    let base = ledger.run(
        "held-out baseline run",
        &cells[headline(&cells, false)],
        None,
        None,
    )?;
    Some(gain_pct(policy.cycles, base.cycles))
}

/// The per-layer metrics, from runs separate from the timed phase.
fn traced(bench: &Bench, args: &Args, ledger: &mut Ledger) -> Option<Vec<Metric>> {
    let cells = bench.cells(args.seed);
    let (top, base) = (headline(&cells, true), headline(&cells, false));
    let obs = Observers {
        profiler: HostProfiler::with_stride(1),
        spans: SpanTracer::sampled(SPAN_SAMPLE),
        telemetry: Telemetry::disabled(),
    };
    let mut log = SpanLog::new();
    let root = log.open("traced_run", None);

    // Untraced runs of every cell, then the traced run(s): modelled
    // outputs must agree, and the CPU ratio is the tracing overhead. The
    // traced grid runs on one worker so the profiler's shared counters
    // are not contended.
    let (plain, traced, plain_cpu, traced_cpu, parallel_eff) = if bench.grid {
        log.scope("check_pass", Some(root), || check_pass(ledger, &cells))?;
        let plain = log.scope("grid.untraced", Some(root), || {
            run_grid_timed(&cells, None, bench.jobs())
        });
        let traced = log.scope("grid.traced", Some(root), || {
            run_grid_timed(&cells, Some(&obs), 1)
        });
        let eff = plain.cpu_s / (bench.jobs() as f64 * plain.wall_s);
        (plain.runs, traced.runs, plain.cpu_s, traced.cpu_s, eff)
    } else {
        let plain: Option<Vec<CellRun>> = log.scope("cells.untraced", Some(root), || {
            cells
                .iter()
                .map(|c| ledger.run("untraced run", c, None, None))
                .collect()
        });
        let traced = log.scope("policy.traced", Some(root), || {
            ledger.run("traced run", &cells[top], Some(&obs), None)
        });
        let (plain, traced) = (plain?, traced?);
        let (cpu, eff) = (plain[top].cpu_s(), plain[top].cpu_s() / plain[top].wall_s());
        let traced_cpu = traced.cpu_s();
        (plain, vec![traced], cpu, traced_cpu, eff)
    };
    // Each traced run against its untraced counterpart.
    let counterparts = if bench.grid {
        &plain[..]
    } else {
        &plain[top..=top]
    };
    for (a, b) in counterparts.iter().zip(&traced) {
        ledger.check("traced run matches untraced", same_model(a, b));
    }
    let (t_refs, t_fills) = traced
        .iter()
        .fold((0, 0), |(r, f), c| (r + c.refs, f + c.fills));

    let host_report = obs.profiler.report();
    let sim_spans = obs.spans.finished_spans();
    let gain = gain_pct(plain[top].cycles, plain[base].cycles);
    let heldout = log.scope("heldout_seed", Some(root), || {
        gain_on_seed(bench, HELDOUT_SEED, ledger)
    });

    let mut out = Vec::new();
    stage_metrics(&host_report, &mut out);
    out.push(metric(
        "core.fill.polls_per_fill",
        host_report.stage_events[HostStage::Fill as usize] as f64 / t_fills.max(1) as f64,
        "ratio",
    ));
    out.push(metric(
        "engine.events_per_ref",
        host_report.stage_events[HostStage::EventQueue as usize] as f64 / t_refs.max(1) as f64,
        "ratio",
    ));

    // Layer replays on the headline cell's own traffic: its events, from
    // one more run with a recorder attached before its first reference
    // (recording must not change the modelled outputs either), and the
    // traced run's transaction delays.
    let cell = &cells[top];
    let recorder = Arc::new(Mutex::new(layers::Recorder::new(
        cell.cfg.num_l2,
        bench.policy == Policy::Wbht,
    )));
    let rec_obs = Observers {
        profiler: HostProfiler::disabled(),
        spans: SpanTracer::disabled(),
        telemetry: Telemetry::from_shared(recorder.clone()),
    };
    let recorded = log.scope("headline.recorded", Some(root), || {
        ledger.run("recorded run", cell, Some(&rec_obs), None)
    });
    if let Some(rec) = &recorded {
        ledger.check(
            "recorded run matches untraced",
            same_model(&plain[top], rec),
        );
    }
    drop(rec_obs);
    let traffic =
        std::mem::take(&mut *recorder.lock().expect("the recorded run has ended")).finish();
    let delays: Vec<Cycle> = sim_spans
        .iter()
        .flat_map(|s| s.segments().map(|(_, _, len)| len))
        .collect();
    let r = &plain[top].report;
    let params = cell.params();
    let inputs = LayerInputs {
        cfg: &cell.cfg,
        params: &params,
        records: ((cell.warm_refs + cell.refs) * u64::from(cell.cfg.num_threads())) as usize,
        table_entries: layers::table_entries(bench.scale),
        eq_population: r.stats.event_queue_high_water as usize,
        delays: &delays,
        traffic: &traffic,
    };
    let rounds: Vec<layers::LayerMetrics> = (0..REPLAY_ROUNDS)
        .map(|i| {
            let span = log.open(&format!("replay.round{i}"), Some(root));
            let m = layers::replay(&inputs, &mut log, span);
            log.close(span);
            m
        })
        .collect();
    for (i, (name, _)) in rounds[0].iter().enumerate() {
        let values: Vec<f64> = rounds.iter().map(|m| m[i].1).collect();
        let unit = if name.ends_with("_ns") { "ns" } else { "ratio" };
        out.push(metric(name, host::median(&values), unit));
    }

    model_metrics(r, &sim_spans, &mut out);
    out.push(metric("model.policy_gain_pct", gain, "%"));
    out.push(metric(
        "model.paper_err_pts",
        (gain - bench.paper_gain_pct).abs(),
        "pts",
    ));
    out.push(metric(
        "model.paper_err_pts_heldout",
        heldout.map_or(f64::NAN, |g| (g - bench.paper_gain_pct).abs()),
        "pts",
    ));
    out.push(metric("bench.grid.parallel_eff", parallel_eff, "ratio"));
    out.push(metric(
        "bench.trace_overhead",
        traced_cpu / plain_cpu - 1.0,
        "ratio",
    ));

    log.close(root);
    let dir = Path::new(".bench_out");
    let stem = format!("{}-{:x}", bench.name, args.seed);
    if let Err(e) = log.write_chrome(&dir.join(format!("{stem}.spans.json"))) {
        eprintln!("perfbench: could not write benchmark spans: {e}");
    }
    println!(
        "# traced: coverage={:.4} stride={} spans={} recorded_bus_txns={} policy_gain_pct={gain:.4}",
        host_report.coverage(),
        host_report.stride,
        sim_spans.len(),
        traffic.transactions()
    );
    Some(out)
}
