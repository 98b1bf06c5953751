//! Throughput gates behind `scripts/bench.sh` and `scripts/verify.sh`.
//!
//! The ledger modes time nothing themselves: they read what perfbench
//! (the benchmark `BENCHMARK.json` declares) printed, one file per run.
//!
//! ```text
//! bench_throughput --record LEDGER OUT...
//!     append one entry to LEDGER: per workload, the median of each
//!     metric over its runs in OUT. Fails, recording nothing, when
//!     sim_cycles or policy_speedup differ between runs of a workload
//!     or when any run reports a failure
//! bench_throughput --check LEDGER OUT...
//!     compare each workload's runs in OUT (their median) with LEDGER's
//!     last entry for the same host_cores and seconds:
//!     sim_cycles_per_cpu_s >= 0.80x the entry, wall_s and peak_rss_mb
//!     <= 1.20x, sim_cycles and policy_speedup equal, correct and no
//!     failed run. Any violation, or no matching entry, exits 1
//! bench_throughput --overhead-check
//!     measure profiler-on vs -off on a pinned case; fail (exit 1) when
//!     the default observability stack costs more than 3% cycles/sec
//! bench_throughput --audit-overhead-check
//!     same gate for the decision-audit layer (--audit): at most 3%
//! ```
//!
//! The ledger (`BENCH.jsonl`) is append-only, one JSON object per line
//! with flat keys: `schema`, `git_rev`, `host_cores`, `seconds`, then
//! `<workload>.host_speed` and `<workload>.<metric>` for each of
//! perfbench's six end-to-end metrics.
//!
//! `CMPSIM_BENCH_NO_GATE=1` turns an overhead-gate failure into a
//! warning (escape hatch for busy machines); the ledger check has none.

use std::fmt::Write as _;
use std::io::Write as _;
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

const SEED: u64 = 0x1BAD_B002;

fn config_for(scale: u64, policy: &str) -> SystemConfig {
    let mut cfg = SystemConfig::scaled(scale);
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

const SCHEMA: &str = "cmpsim-bench/2";

/// How the ledger check holds one metric against its entry.
#[derive(Clone, Copy)]
enum Bound {
    /// At least this multiple of the entry.
    Floor(f64),
    /// At most this multiple of the entry.
    Ceiling(f64),
    /// Exactly the entry: modelled outputs repeat for a fixed seed.
    Exact,
    /// Recorded, not checked: too noisy for a bound.
    Unchecked,
}

/// A ledger entry's values per workload: perfbench's `host_speed`, then
/// its six end-to-end metrics in print order.
const METRICS: [(&str, Bound); 7] = [
    ("host_speed", Bound::Unchecked),
    ("sim_cycles_per_cpu_s", Bound::Floor(0.80)),
    ("wall_s", Bound::Ceiling(1.20)),
    ("peak_rss_mb", Bound::Ceiling(1.20)),
    ("setup_s", Bound::Unchecked),
    ("sim_cycles", Bound::Exact),
    ("policy_speedup", Bound::Exact),
];

/// One workload's perfbench result: one run's, or per-metric medians
/// over several runs.
#[derive(Debug, Clone)]
struct Run {
    workload: String,
    git_rev: String,
    host_cores: u64,
    seconds: f64,
    /// `correct` held in every run.
    correct: bool,
    /// Failed runs, summed over the runs.
    failed: u64,
    /// Values of [`METRICS`], in order.
    metrics: [f64; 7],
}

/// The value of ` key=` in perfbench's `#` header lines.
fn scan_word<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!(" {key}=");
    let at = text.find(&needle)? + needle.len();
    text[at..].split_whitespace().next()
}

/// Pulls `"key": <number>` out of a flat, machine-written JSON line (a
/// ledger entry or perfbench's result line). Not a general JSON parser.
fn scan_f64(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = line[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `"key": "<text>"` from a flat JSON line.
fn scan_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = line[at..].trim_start().strip_prefix('"')?;
    rest.split('"').next()
}

/// Reads one perfbench run from its standard output: the `#` header
/// lines and the JSON result line.
fn parse_run(text: &str) -> Result<Run, String> {
    let header =
        |key: &str| scan_word(text, key).ok_or_else(|| format!("no {key}= in a perfbench output"));
    let number = |key: &str| -> Result<f64, String> {
        let raw = header(key)?;
        raw.parse().map_err(|e| format!("{key}={raw}: {e}"))
    };
    let result = text
        .lines()
        .rfind(|l| l.starts_with("{\"correct\""))
        .ok_or("no result line in a perfbench output")?;
    let mut metrics = [0.0; 7];
    for (value, (name, _)) in metrics.iter_mut().zip(METRICS) {
        *value = match name {
            "host_speed" => number(name)?,
            _ => result
                .find(&format!("\"{name}\":"))
                .and_then(|at| scan_f64(&result[at..], "value"))
                .ok_or_else(|| format!("no {name} in a perfbench result line"))?,
        };
    }
    Ok(Run {
        workload: header("workload")?.to_string(),
        git_rev: header("git_rev")?.to_string(),
        host_cores: header("host_cores")?
            .parse()
            .map_err(|e| format!("host_cores: {e}"))?,
        seconds: number("seconds")?,
        correct: result.starts_with("{\"correct\": true"),
        failed: scan_f64(result, "failed").ok_or("no failed count in a perfbench result line")?
            as u64,
        metrics,
    })
}

/// Parses perfbench outputs, which must share one host and run length,
/// and merges each workload's runs into one [`Run`] of per-metric
/// medians, in first-seen workload order. A workload's runs must agree
/// on every modelled output.
fn summarize(outputs: &[String]) -> Result<Vec<Run>, String> {
    let runs = outputs
        .iter()
        .map(|text| parse_run(text))
        .collect::<Result<Vec<_>, _>>()?;
    let first = runs.first().ok_or("no perfbench output")?;
    if runs
        .iter()
        .any(|r| (r.host_cores, r.seconds) != (first.host_cores, first.seconds))
    {
        return Err("the perfbench outputs differ in host_cores or seconds".into());
    }
    let mut merged: Vec<Run> = Vec::new();
    for r in &runs {
        if merged.iter().any(|m| m.workload == r.workload) {
            continue;
        }
        let group: Vec<&Run> = runs.iter().filter(|g| g.workload == r.workload).collect();
        let mut m = r.clone();
        for (i, (name, bound)) in METRICS.iter().enumerate() {
            let mut v: Vec<f64> = group.iter().map(|g| g.metrics[i]).collect();
            if matches!(bound, Bound::Exact) && v.iter().any(|&x| x != v[0]) {
                return Err(format!(
                    "{}: {name} differs between runs: {v:?}",
                    r.workload
                ));
            }
            v.sort_by(f64::total_cmp);
            m.metrics[i] = (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0;
        }
        m.correct = group.iter().all(|g| g.correct);
        m.failed = group.iter().map(|g| g.failed).sum();
        merged.push(m);
    }
    Ok(merged)
}

/// One ledger line holding every workload's result; a failed run is
/// never recorded.
fn entry(runs: &[Run]) -> Result<String, String> {
    let first = &runs[0];
    let mut line = format!(
        "{{\"schema\":\"{SCHEMA}\",\"git_rev\":\"{}\",\"host_cores\":{},\"seconds\":{}",
        first.git_rev, first.host_cores, first.seconds
    );
    for r in runs {
        if !r.correct || r.failed > 0 {
            return Err(format!("{}: {} failed run(s)", r.workload, r.failed));
        }
        for ((name, _), value) in METRICS.iter().zip(r.metrics) {
            let _ = write!(line, ",\"{}.{name}\":{value}", r.workload);
        }
    }
    line.push('}');
    Ok(line)
}

/// The last ledger entry recorded with `host_cores` and `seconds`.
fn last_entry(ledger: &str, host_cores: u64, seconds: f64) -> Option<&str> {
    ledger.lines().rev().find(|l| {
        scan_str(l, "schema") == Some(SCHEMA)
            && scan_f64(l, "host_cores") == Some(host_cores as f64)
            && scan_f64(l, "seconds") == Some(seconds)
    })
}

/// Holds each workload's result against the ledger's last entry for
/// the same host and run length: one line per metric, each with
/// whether it passed.
fn check(ledger: &str, runs: &[Run]) -> Result<Vec<(String, bool)>, String> {
    let (host_cores, seconds) = (runs[0].host_cores, runs[0].seconds);
    let record = "record one with scripts/bench.sh --record";
    let entry = last_entry(ledger, host_cores, seconds).ok_or_else(|| {
        format!("no ledger entry for host_cores={host_cores} seconds={seconds}; {record}")
    })?;
    let git_rev = scan_str(entry, "git_rev").unwrap_or("?");
    let mut lines = vec![(
        format!("bench: against the entry of git_rev {git_rev}"),
        true,
    )];
    for r in runs {
        let w = &r.workload;
        for ((name, bound), got) in METRICS.into_iter().zip(r.metrics) {
            let want = scan_f64(entry, &format!("{w}.{name}"))
                .ok_or_else(|| format!("the ledger entry has no {w}.{name}; {record}"))?;
            let (ok, note) = match bound {
                Bound::Floor(f) => {
                    let margin = got / (f * want) - 1.0;
                    (
                        margin >= 0.0,
                        format!("floor {f:.2}x, margin {:+.1}%", margin * 100.0),
                    )
                }
                Bound::Ceiling(c) => {
                    let margin = 1.0 - got / (c * want);
                    (
                        margin >= 0.0,
                        format!("ceiling {c:.2}x, margin {:+.1}%", margin * 100.0),
                    )
                }
                Bound::Exact => (got == want, "must equal".to_string()),
                Bound::Unchecked => (true, "not checked".to_string()),
            };
            let verdict = match (bound, ok) {
                (Bound::Unchecked, _) => "",
                (_, true) => " ok",
                (_, false) => " REGRESSED",
            };
            lines.push((
                format!("bench: {w:<21} {name:<21} {got:>16.6} (entry {want:.6}, {note}){verdict}"),
                ok,
            ));
        }
        for (name, got, ok) in [
            ("correct", r.correct.to_string(), r.correct),
            ("failed", r.failed.to_string(), r.failed == 0),
        ] {
            let verdict = if ok { "ok" } else { "REGRESSED" };
            lines.push((format!("bench: {w:<21} {name:<21} {got:>16} {verdict}"), ok));
        }
    }
    Ok(lines)
}

/// `--record` and `--check`: reads the ledger and the perfbench outputs
/// named in `args`, returning whether the check passed.
fn ledger_gate(record: bool, args: &[String]) -> Result<bool, String> {
    let (path, outs) = args
        .split_first()
        .filter(|(_, outs)| !outs.is_empty())
        .ok_or("usage: bench_throughput --record|--check LEDGER OUT...")?;
    let outputs = outs
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let runs = summarize(&outputs)?;
    if record {
        let line = entry(&runs).map_err(|e| format!("{e}; nothing recorded"))?;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("bench: appended an entry to {path}");
        return Ok(true);
    }
    let ledger = std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: {e}; record an entry with scripts/bench.sh --record"))?;
    let lines = check(&ledger, &runs)?;
    for (line, _) in &lines {
        eprintln!("{line}");
    }
    Ok(lines.iter().all(|&(_, ok)| ok))
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
        Some(mode @ ("--record" | "--check")) => {
            match ledger_gate(mode == "--record", &args[1..]) {
                Ok(true) => {}
                Ok(false) => {
                    eprintln!(
                        "bench: throughput or a modelled output regressed against the ledger"
                    );
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("bench: {e}");
                    std::process::exit(1);
                }
            }
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
        _ => {
            eprintln!(
                "usage: bench_throughput --record|--check LEDGER OUT... | --overhead-check \
                 | --audit-overhead-check"
            );
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENTRY_RATE: f64 = 2_000_000.0;
    const ENTRY_WALL: f64 = 1.5;
    const ENTRY_CYCLES: u64 = 3_000_000;

    /// A perfbench output in the format it prints, with the policy
    /// run's timed metrics and modelled outputs given.
    fn output(host_cores: u64, rate: f64, wall: f64, cycles: u64, failed: u64) -> String {
        format!(
            "# perfbench workload=paper_trade2_wbht seed=0x1badb002 seconds=10 trace=0\n\
             # host_cores={host_cores} cpu_model=\"x\" cpu_clock=\"c\" profiler_clock=tsc git_rev=abc123\n\
             # timed repetitions=4 samples=48 cyc/cpu-s: median=1 fast_quartile=1\n\
             # host_speed=0.9500 (reference fast quartile / nominal) raw_wall_s=1.0 raw_setup_s=0.01\n\
             sim_cycles_per_cpu_s {rate:.6} cyc/s\n\
             {{\"correct\": {}, \"attempted\": 3, \"failed\": {failed}, \"metrics\": {{\
             \"sim_cycles_per_cpu_s\": {{\"value\": {rate:?}, \"unit\": \"cyc/s\"}}, \
             \"wall_s\": {{\"value\": {wall:?}, \"unit\": \"s\"}}, \
             \"peak_rss_mb\": {{\"value\": 13.8125, \"unit\": \"MB\"}}, \
             \"setup_s\": {{\"value\": 6.065182953227934e-5, \"unit\": \"s\"}}, \
             \"sim_cycles\": {{\"value\": {:?}, \"unit\": \"cycles\"}}, \
             \"policy_speedup\": {{\"value\": 1.1234567890123, \"unit\": \"x\"}}}}}}\n",
            failed == 0,
            cycles as f64,
        )
    }

    fn ledger() -> String {
        let run = summarize(&[output(2, ENTRY_RATE, ENTRY_WALL, ENTRY_CYCLES, 0)]).unwrap();
        format!("{}\n", entry(&run).unwrap())
    }

    /// The metrics that failed the check of one run against [`ledger`].
    fn regressed(run: String) -> Result<Vec<String>, String> {
        let lines = check(&ledger(), &summarize(&[run])?)?;
        Ok(lines
            .into_iter()
            .filter(|(_, ok)| !ok)
            .map(|(line, _)| line.split_whitespace().nth(2).unwrap().to_string())
            .collect())
    }

    #[test]
    fn a_run_like_the_entry_passes() {
        let run = output(2, ENTRY_RATE * 0.81, ENTRY_WALL * 1.19, ENTRY_CYCLES, 0);
        assert_eq!(regressed(run), Ok(vec![]));
    }

    #[test]
    fn a_rate_21_percent_below_the_entry_fails() {
        let run = output(2, ENTRY_RATE * 0.79, ENTRY_WALL, ENTRY_CYCLES, 0);
        assert_eq!(regressed(run), Ok(vec!["sim_cycles_per_cpu_s".into()]));
    }

    #[test]
    fn wall_time_21_percent_above_the_entry_fails() {
        let run = output(2, ENTRY_RATE, ENTRY_WALL * 1.21, ENTRY_CYCLES, 0);
        assert_eq!(regressed(run), Ok(vec!["wall_s".into()]));
    }

    #[test]
    fn a_sim_cycles_mismatch_fails() {
        let run = output(2, ENTRY_RATE, ENTRY_WALL, ENTRY_CYCLES + 1, 0);
        assert_eq!(regressed(run), Ok(vec!["sim_cycles".into()]));
    }

    #[test]
    fn a_failed_run_fails_and_is_never_recorded() {
        let run = output(2, ENTRY_RATE, ENTRY_WALL, ENTRY_CYCLES, 1);
        assert_eq!(
            regressed(run.clone()),
            Ok(vec!["correct".into(), "failed".into()])
        );
        assert!(entry(&summarize(&[run]).unwrap()).is_err());
    }

    #[test]
    fn no_entry_for_this_host_cores_names_record() {
        let run = output(4, ENTRY_RATE, ENTRY_WALL, ENTRY_CYCLES, 0);
        let err = regressed(run).unwrap_err();
        assert!(
            err.contains("host_cores=4") && err.contains("--record"),
            "{err}"
        );
    }

    #[test]
    fn the_last_matching_entry_is_the_reference() {
        let older = ledger().replace("\"host_cores\":2", "\"host_cores\":4");
        let newer = ledger().replace(&format!("{ENTRY_RATE}"), "9000000");
        let run = summarize(&[output(2, ENTRY_RATE, ENTRY_WALL, ENTRY_CYCLES, 0)]).unwrap();
        let failed = check(&(ledger() + &newer + &older), &run).unwrap();
        assert!(failed
            .iter()
            .any(|(l, ok)| !ok && l.contains("sim_cycles_per_cpu_s")));
    }

    #[test]
    fn an_entry_holds_medians_and_modelled_outputs_must_agree() {
        let runs: Vec<String> = [1.0, 5.0, 2.0]
            .map(|r| output(2, r, ENTRY_WALL, ENTRY_CYCLES, 0))
            .into();
        let line = entry(&summarize(&runs).unwrap()).unwrap();
        assert_eq!(
            scan_f64(&line, "paper_trade2_wbht.sim_cycles_per_cpu_s"),
            Some(2.0)
        );
        assert_eq!(scan_str(&line, "schema"), Some(SCHEMA));
        assert_eq!(
            scan_f64(&line, "paper_trade2_wbht.setup_s"),
            Some(6.065182953227934e-5)
        );
        let differ = [
            output(2, 1.0, ENTRY_WALL, ENTRY_CYCLES, 0),
            output(2, 1.0, ENTRY_WALL, ENTRY_CYCLES + 1, 0),
        ];
        assert!(summarize(&differ)
            .unwrap_err()
            .contains("sim_cycles differs"));
    }
}
