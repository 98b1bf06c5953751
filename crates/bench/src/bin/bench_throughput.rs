//! Pinned-workload throughput benchmark behind `scripts/bench.sh`.
//!
//! Runs a fixed suite of simulations and reports, per entry, simulated
//! cycles per wall-clock second, events per second, and the process
//! peak RSS. The suite is pinned (workload, policy, refs, scale, seed)
//! so numbers are comparable across commits on the same machine:
//!
//! * `quick_trade2_combined` / `quick_cpw2_baseline` — single
//!   quick-profile runs (scale 8, 30 k refs/thread).
//! * `full_trade2_snarf` / `full_cpw2_wbht` — paper-scale runs (scale
//!   1, 100 k refs/thread): the Figure 5 snarf point and a WBHT point.
//!   These are the entries whose recorded pre→post ratio must
//!   demonstrate the packed tag-array win (>= 1.10x).
//! * `smoke_grid` — 2 workloads x 4 policies at the smoke profile,
//!   aggregated; watched by the `BENCH_PR10.json` regression gate.
//!
//! ```text
//! bench_throughput --emit [BASE.json]   measure; print JSON (carrying
//!                                       pre_cycles_per_sec over from BASE)
//! bench_throughput --check FILE.json    measure; fail (exit 1) when any
//!                                       entry regresses >20% in
//!                                       cycles/sec vs FILE's post numbers,
//!                                       or when a full-scale entry's
//!                                       recorded pre→post speedup sits
//!                                       below 1.10x. Entries whose
//!                                       recorded pre_cycles_per_sec is 0
//!                                       (unmeasured baseline) skip the
//!                                       speedup floor with a note instead
//!                                       of dividing by zero
//! bench_throughput --overhead-check     measure profiler-on vs -off on a
//!                                       pinned case; fail (exit 1) when
//!                                       the default observability stack
//!                                       costs more than 3% cycles/sec
//! bench_throughput --audit-overhead-check
//!                                       same gate for the decision-audit
//!                                       layer (--audit): at most 3%
//! ```
//!
//! `CMPSIM_BENCH_NO_GATE=1` turns a `--check` or `--overhead-check`
//! failure into a warning (escape hatch for busy or slower CI machines).

use std::time::Instant;

use cmp_adaptive_wb::{PolicyConfig, System, SystemConfig, UpdateScope};
use cmpsim_engine::profiler::HostProfiler;
use cmpsim_engine::stream::TelemetryStream;
use cmpsim_engine::telemetry::DEFAULT_INTERVAL;
use cmpsim_trace::Workload;

/// One pinned simulation: mirrors `cmpsim`'s CLI construction (same
/// seed, same table-entry scaling) so shell-timed `cmpsim` runs and
/// this harness measure the same work.
#[derive(Clone, Copy)]
struct Case {
    workload: Workload,
    policy: &'static str,
    refs: u64,
    scale: u64,
}

struct Measurement {
    id: &'static str,
    sim_cycles: u64,
    events: u64,
    wall_sec: f64,
    peak_rss_kb: u64,
}

impl Measurement {
    fn cycles_per_sec(&self) -> u64 {
        (self.sim_cycles as f64 / self.wall_sec) as u64
    }

    fn events_per_sec(&self) -> u64 {
        (self.events as f64 / self.wall_sec) as u64
    }
}

const SEED: u64 = 0x1BAD_B002;

fn config_for(scale: u64, policy: &str) -> SystemConfig {
    let mut cfg = if scale <= 1 {
        SystemConfig::paper()
    } else {
        SystemConfig::scaled(scale)
    };
    cfg.seed = SEED;
    let entries = PolicyConfig::scaled_entries(scale);
    cfg.policy = PolicyConfig::parse(policy, entries, UpdateScope::Local, 1)
        .unwrap_or_else(|e| panic!("pinned case: {e}"));
    cfg
}

/// Runs one case, returning (simulated cycles, events dispatched).
fn run_case(c: Case) -> (u64, u64) {
    let cfg = config_for(c.scale, c.policy);
    let params = c.workload.params(cfg.num_threads(), cfg.cache_scale());
    let mut sys = System::new(cfg, params).expect("pinned case is valid");
    let stats = sys.run(c.refs);
    (stats.cycles, sys.events_processed())
}

/// Process peak RSS in kB from /proc/self/status (0 when unreadable,
/// e.g. on non-Linux). Monotonic over the process lifetime, so later
/// entries report the running maximum.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn measure(id: &'static str, cases: &[Case]) -> Measurement {
    let t0 = Instant::now();
    let mut sim_cycles = 0;
    let mut events = 0;
    for &c in cases {
        let (cyc, ev) = run_case(c);
        sim_cycles += cyc;
        events += ev;
    }
    Measurement {
        id,
        sim_cycles,
        events,
        wall_sec: t0.elapsed().as_secs_f64(),
        peak_rss_kb: peak_rss_kb(),
    }
}

fn suite() -> Vec<Measurement> {
    let mut out = vec![
        measure(
            "quick_trade2_combined",
            &[Case {
                workload: Workload::Trade2,
                policy: "combined",
                refs: 30_000,
                scale: 8,
            }],
        ),
        measure(
            "quick_cpw2_baseline",
            &[Case {
                workload: Workload::Cpw2,
                policy: "baseline",
                refs: 30_000,
                scale: 8,
            }],
        ),
        measure(
            "full_trade2_snarf",
            &[Case {
                workload: Workload::Trade2,
                policy: "snarf",
                refs: 100_000,
                scale: 1,
            }],
        ),
        measure(
            "full_cpw2_wbht",
            &[Case {
                workload: Workload::Cpw2,
                policy: "wbht",
                refs: 100_000,
                scale: 1,
            }],
        ),
    ];
    let mut grid = Vec::new();
    for workload in [Workload::Trade2, Workload::Cpw2] {
        for policy in ["baseline", "wbht", "snarf", "combined"] {
            grid.push(Case {
                workload,
                policy,
                refs: 2_000,
                scale: 16,
            });
        }
    }
    out.push(measure("smoke_grid", &grid));
    out
}

/// Pulls `"key": <integer>` values out of our own flat JSON format.
/// Not a general JSON parser — `BENCH_PR10.json` is machine-written by
/// `--emit`, one entry object per line.
fn scan_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = line[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn scan_id(line: &str) -> Option<&str> {
    let at = line.find("\"id\":")? + 5;
    let rest = line[at..].trim_start().strip_prefix('"')?;
    rest.split('"').next()
}

/// Reads `(id, key)` values from a committed benchmark file.
fn read_field(path: &str, key: &str) -> Vec<(String, u64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|l| Some((scan_id(l)?.to_string(), scan_u64(l, key)?)))
        .collect()
}

fn emit(results: &[Measurement], base: Option<&str>) {
    let pre: Vec<(String, u64)> = base
        .map(|p| read_field(p, "pre_cycles_per_sec"))
        .unwrap_or_default();
    println!("{{");
    println!("  \"schema\": \"cmpsim-bench/1\",");
    println!("  \"generated_by\": \"scripts/bench.sh (bench_throughput --emit)\",");
    println!("  \"note\": \"pre_cycles_per_sec measured on the pre-PR build, same machine, same pinned cases; post_* from this build\",");
    println!("  \"entries\": [");
    for (i, m) in results.iter().enumerate() {
        let pre_cps = pre.iter().find(|(id, _)| id == m.id).map_or(0, |&(_, v)| v);
        let comma = if i + 1 == results.len() { "" } else { "," };
        println!(
            "    {{\"id\": \"{}\", \"pre_cycles_per_sec\": {}, \"post_cycles_per_sec\": {}, \"post_events_per_sec\": {}, \"post_peak_rss_kb\": {}, \"sim_cycles\": {}, \"events\": {}, \"wall_sec\": {:.3}}}{}",
            m.id,
            pre_cps,
            m.cycles_per_sec(),
            m.events_per_sec(),
            m.peak_rss_kb,
            m.sim_cycles,
            m.events,
            m.wall_sec,
            comma,
        );
    }
    println!("  ]");
    println!("}}");
}

/// Entries whose committed pre→post ratio must demonstrate the packed
/// tag-array win; other entries (quick, smoke) only report it.
const SPEEDUP_FLOOR_IDS: [&str; 2] = ["full_trade2_snarf", "full_cpw2_wbht"];

fn check(results: &[Measurement], path: &str) -> bool {
    let committed = read_field(path, "post_cycles_per_sec");
    let baseline = read_field(path, "pre_cycles_per_sec");
    if committed.is_empty() {
        eprintln!("bench: no post_cycles_per_sec entries found in {path}");
        return false;
    }
    let mut ok = true;
    for m in results {
        let Some(&(_, want)) = committed.iter().find(|(id, _)| id == m.id) else {
            eprintln!("bench: {path} has no entry for {}", m.id);
            ok = false;
            continue;
        };
        let got = m.cycles_per_sec();
        let floor = want * 8 / 10; // >20% regression fails
        let verdict = if got >= floor { "ok" } else { "REGRESSED" };
        eprintln!(
            "bench: {:<24} {:>10} cycles/sec (committed {:>10}, floor {:>10}) {}",
            m.id, got, want, floor, verdict
        );
        if got < floor {
            ok = false;
        }
        // The recorded pre→post speedup, taken from the committed file
        // (both sides measured on the same host, same pinned cases). A
        // recorded pre of 0 means the baseline was never measured there,
        // so the ratio is undefined: skip it with a note rather than
        // divide by zero or fail spuriously.
        match baseline.iter().find(|(id, _)| id == m.id) {
            Some(&(_, 0)) => eprintln!(
                "bench: {:<24} recorded pre_cycles_per_sec is 0 (unmeasured \
                 baseline); speedup floor skipped",
                m.id
            ),
            Some(&(_, pre)) => {
                let speedup = want as f64 / pre as f64;
                if SPEEDUP_FLOOR_IDS.contains(&m.id) {
                    let pass = speedup >= 1.10;
                    let verdict = if pass { "ok" } else { "TOO SLOW" };
                    eprintln!(
                        "bench: {:<24} recorded speedup {speedup:.2}x \
                         (pre {pre}, floor 1.10) {verdict}",
                        m.id
                    );
                    ok &= pass;
                } else {
                    eprintln!(
                        "bench: {:<24} recorded speedup {speedup:.2}x (informational)",
                        m.id
                    );
                }
            }
            None => {}
        }
    }
    ok
}

/// Runs one case with the full default-cadence observability stack on:
/// host profiler at the default stride, telemetry streamed to a sink
/// writer, and interval sampling at the default period — the exact
/// configuration `--profile-host --stream-telemetry` enables.
fn run_case_observed(c: Case) -> (u64, u64) {
    let cfg = config_for(c.scale, c.policy);
    let params = c.workload.params(cfg.num_threads(), cfg.cache_scale());
    let mut sys = System::new(cfg, params).expect("pinned case is valid");
    sys.set_host_profiler(HostProfiler::enabled());
    sys.set_stream(TelemetryStream::to_writer(std::io::sink()), 0);
    sys.enable_interval_sampling(DEFAULT_INTERVAL);
    let stats = sys.run(c.refs);
    (stats.cycles, sys.events_processed())
}

/// Nanoseconds this thread group has spent on-CPU, from
/// `/proc/self/schedstat`. Unlike wall clocks this excludes scheduler
/// preemption entirely, which is what makes a small overhead threshold
/// measurable on busy shared machines. `None` when unavailable
/// (non-Linux), in which case the gate falls back to wall time.
fn cpu_now_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Runs one case with the decision-audit layer enabled — the exact
/// configuration `cmpsim --audit` enables.
fn run_case_audited(c: Case) -> (u64, u64) {
    let cfg = config_for(c.scale, c.policy);
    let params = c.workload.params(cfg.num_threads(), cfg.cache_scale());
    let mut sys = System::new(cfg, params).expect("pinned case is valid");
    sys.enable_decision_audit();
    let stats = sys.run(c.refs);
    (stats.cycles, sys.events_processed())
}

/// An on/off overhead gate: interleaves feature-off and feature-on runs
/// of one pinned case and gates on the median of the per-pair on/off
/// cycles-per-CPU-second ratios. On-CPU time (see [`cpu_now_ns`]) is
/// immune to preemption, and adjacent runs share whatever cache
/// pressure the machine is under, so per-pair ratios stay stable where
/// absolute best-of wall comparisons flap. Passes while the feature
/// costs at most 3%.
fn paired_overhead_gate(what: &str, run_on: &dyn Fn(Case) -> (u64, u64)) -> bool {
    const PAIRS: usize = 25;
    let case = Case {
        workload: Workload::Trade2,
        policy: "combined",
        refs: 5_000,
        scale: 8,
    };
    // Warm both paths (caches, branch predictors, TSC calibration) so
    // neither side of the comparison pays first-run costs.
    run_case(case);
    run_on(case);
    let timed = |run: &dyn Fn() -> (u64, u64)| {
        let cpu0 = cpu_now_ns();
        let t = Instant::now();
        let (cycles, _) = run();
        let wall_ns = t.elapsed().as_nanos() as u64;
        let ns = match (cpu0, cpu_now_ns()) {
            (Some(a), Some(b)) if b > a => b - a,
            _ => wall_ns,
        };
        cycles as f64 / ns as f64
    };
    let off_case = || run_case(case);
    let on_case = || run_on(case);
    let mut ratios = Vec::with_capacity(PAIRS);
    let mut best_off = 0.0f64;
    let mut best_on = 0.0f64;
    for pair in 0..PAIRS {
        // Alternate the order within each pair so a monotonic load ramp
        // cannot bias every pair the same way.
        let (off, on) = if pair % 2 == 0 {
            let off = timed(&off_case);
            let on = timed(&on_case);
            (off, on)
        } else {
            let on = timed(&on_case);
            let off = timed(&off_case);
            (off, on)
        };
        best_off = best_off.max(off);
        best_on = best_on.max(on);
        ratios.push(on / off);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let median = ratios[PAIRS / 2];
    // Two robust views of the same question; noise bursts can depress
    // either one, but a real >3% overhead depresses both.
    let best_ratio = best_on / best_off;
    let pass = median >= 0.97 || best_ratio >= 0.97;
    let verdict = if pass { "ok" } else { "TOO SLOW" };
    eprintln!(
        "bench: {what} overhead: on/off cycles-per-cpu-second ratio {median:.3} \
         (median of {PAIRS} interleaved pairs, spread {:.3}..{:.3}), {best_ratio:.3} \
         (best-vs-best), floor 0.970 on either {verdict}",
        ratios.first().copied().unwrap_or(0.0),
        ratios.last().copied().unwrap_or(0.0),
    );
    pass
}

fn overhead_check() -> bool {
    paired_overhead_gate("profiler", &run_case_observed)
}

fn audit_overhead_check() -> bool {
    paired_overhead_gate("decision audit", &run_case_audited)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--emit") => {
            let results = suite();
            emit(&results, args.get(1).map(String::as_str));
        }
        Some("--overhead-check") => {
            if !overhead_check() {
                if std::env::var_os("CMPSIM_BENCH_NO_GATE").is_some() {
                    eprintln!("bench: overhead gate bypassed (CMPSIM_BENCH_NO_GATE)");
                } else {
                    eprintln!(
                        "bench: observability overhead exceeds 3%; investigate, or \
                         re-run with CMPSIM_BENCH_NO_GATE=1"
                    );
                    std::process::exit(1);
                }
            }
        }
        Some("--audit-overhead-check") => {
            if !audit_overhead_check() {
                if std::env::var_os("CMPSIM_BENCH_NO_GATE").is_some() {
                    eprintln!("bench: audit overhead gate bypassed (CMPSIM_BENCH_NO_GATE)");
                } else {
                    eprintln!(
                        "bench: decision-audit overhead exceeds 3%; investigate, or \
                         re-run with CMPSIM_BENCH_NO_GATE=1"
                    );
                    std::process::exit(1);
                }
            }
        }
        Some("--check") => {
            let path = args.get(1).map(String::as_str).unwrap_or("BENCH_PR10.json");
            let results = suite();
            if !check(&results, path) {
                if std::env::var_os("CMPSIM_BENCH_NO_GATE").is_some() {
                    eprintln!("bench: regression gate bypassed (CMPSIM_BENCH_NO_GATE)");
                } else {
                    eprintln!("bench: throughput regressed >20%; investigate, or re-run with CMPSIM_BENCH_NO_GATE=1 / refresh via scripts/bench.sh --update");
                    std::process::exit(1);
                }
            }
        }
        _ => {
            let results = suite();
            emit(&results, None);
        }
    }
}
