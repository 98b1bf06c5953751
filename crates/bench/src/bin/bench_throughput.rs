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
//!     time each instrument stack (the host profiler with its telemetry
//!     stream, and the decision audit) against a plain twin of one
//!     pinned case; exit 1 when either costs more than 3% cycles per
//!     CPU-second or moves a simulated cycle
//! ```
//!
//! The ledger (`BENCH.jsonl`) is append-only, one JSON object per line
//! with flat keys: `schema`, `git_rev`, `host_cores`, `seconds`, then
//! `<workload>.host_speed` and `<workload>.<metric>` for each of
//! perfbench's six end-to-end metrics. No gate has an escape.

use std::fmt::Write as _;
use std::io::Write as _;

use cmp_adaptive_wb::{PolicyConfig, System, SystemConfig, UpdateScope};
use cmpsim_engine::profiler::HostProfiler;
use cmpsim_engine::stream::TelemetryStream;
use cmpsim_engine::telemetry::DEFAULT_INTERVAL;
use cmpsim_trace::Workload;

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

/// The median of `v`, which must not be empty (sorts it in place).
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
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
            m.metrics[i] = median(&mut v);
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

/// An instrument stack the overhead gate holds to [`FLOOR`]: its name
/// and how it attaches to a plain system.
type Stack = (&'static str, fn(&mut System));

/// The two stacks, each exactly as `cmpsim` enables it.
const STACKS: [Stack; 2] = [
    // `--profile-host --stream-telemetry`: the profiler at its default
    // stride, frames streamed to a writer, and interval sampling at the
    // default period.
    ("profiler", |sys| {
        sys.set_host_profiler(HostProfiler::enabled());
        sys.set_stream(TelemetryStream::to_writer(std::io::sink()), 0);
        sys.enable_interval_sampling(DEFAULT_INTERVAL);
    }),
    // `--audit`: the decision-outcome lineage.
    ("decision audit", System::enable_decision_audit),
];

/// The least on/off ratio of cycles per CPU-second a stack may have.
const FLOOR: f64 = 0.97;
/// Timed chunk pairs per stack.
const PAIRS: usize = 200;
/// Pairs of twins built per stack: both build orders, each both leading
/// and following, so no one placement of a twin in memory sets the
/// median.
const BUILDS: usize = 4;
/// References per thread that warm both systems before any timing.
const WARM_REFS: u64 = 5_000;
/// References per thread in one timed chunk: about 25 ms of CPU on a
/// 2-vCPU x86_64 host. Every `System::run` closes a partial interval
/// window (a host sample with an RSS read, stream frames, the audit's
/// end-of-run pass), so much shorter chunks would bill that per-run
/// work to the stack.
const CHUNK_REFS: u64 = 1_000;

/// The pinned case: Trade2 under `combined` at scale 8, with `cmpsim`'s
/// seed and table-entry scaling.
fn pinned_system() -> System {
    let scale = 8;
    let mut cfg = SystemConfig::scaled(scale);
    cfg.seed = 0x1BAD_B002;
    let entries = PolicyConfig::scaled_entries(scale);
    cfg.policy = PolicyConfig::parse("combined", entries, UpdateScope::Local, 1)
        .expect("the pinned policy parses");
    let params = Workload::Trade2.params(cfg.num_threads(), cfg.cache_scale());
    System::new(cfg, params).expect("the pinned case is valid")
}

/// CPU nanoseconds consumed so far by every thread of this process: the
/// clock perfbench's `host::cpu_s` reads. Time other tenants take shows
/// up in wall time, not here.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_ns() -> u64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C
    // layout; clock_gettime writes only into it and the clock id is a
    // constant every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Wall nanoseconds since the first call, where perfbench too has no
/// process CPU clock.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// One timed `System::run` chunk.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    /// Simulated cycles the chunk advanced the system by.
    cycles: u64,
    /// CPU time it took.
    cpu_ns: u64,
}

/// Times one chunk of `sys`.
fn chunk(sys: &mut System) -> Chunk {
    let from = sys.stats().cycles;
    let start = cpu_ns();
    let to = sys.run(CHUNK_REFS).cycles;
    Chunk {
        cycles: to - from,
        cpu_ns: cpu_ns() - start,
    }
}

/// Times [`PAIRS`] pairs of (plain, instrumented) chunks, from
/// [`BUILDS`] pairs of warmed twins of the pinned case, one twin of each
/// pair carrying `attach`'s stack.
fn measure(attach: fn(&mut System)) -> Vec<(Chunk, Chunk)> {
    let mut pairs = Vec::with_capacity(PAIRS);
    for build in 0..BUILDS {
        // Both twins are built before either runs: a twin built after
        // the other's warm-up runs 1.2-1.8% slower, plain against plain.
        // Even built together, the twin built first has run up to 5%
        // faster for a whole process, so odd builds instrument it.
        let mut twins = [pinned_system(), pinned_system()];
        if build % 2 == 1 {
            twins.swap(0, 1);
        }
        let [off, on] = &mut twins;
        attach(on);
        off.run(WARM_REFS);
        on.run(WARM_REFS);
        // The twins take strict turns, so every chunk starts right after
        // a chunk of the other twin: one that follows its own twin runs
        // ~3.5% faster. The later builds let the instrumented twin lead.
        for _ in 0..PAIRS / BUILDS {
            if build < BUILDS / 2 {
                let off = chunk(off);
                pairs.push((off, chunk(on)));
            } else {
                let on = chunk(on);
                pairs.push((chunk(off), on));
            }
        }
    }
    pairs
}

/// The gate's verdict on one stack from its timed (plain, instrumented)
/// pairs: the line to print and whether the stack passed. It fails when
/// the two chunks of a pair simulated different cycles (the stack moved
/// the model), and otherwise passes when the median per-pair on/off
/// ratio of cycles per CPU-second is at least [`FLOOR`].
fn judge(stack: &str, pairs: &[(Chunk, Chunk)]) -> (String, bool) {
    for (i, (off, on)) in pairs.iter().enumerate() {
        if off.cycles != on.cycles {
            let line = format!(
                "bench: {stack} overhead: chunk {i} simulated {} cycles plain but {} \
                 instrumented; the stack moved the model",
                off.cycles, on.cycles
            );
            return (line, false);
        }
    }
    // Both chunks of a pair simulated the same cycles, so their ratio
    // of cycles per CPU-second is the inverse ratio of their CPU times.
    let mut ratios: Vec<f64> = pairs
        .iter()
        .map(|(off, on)| off.cpu_ns as f64 / on.cpu_ns as f64)
        .collect();
    let m = median(&mut ratios);
    let quartile = |q: usize| ratios[(ratios.len() - 1) * q / 4];
    let pass = m >= FLOOR;
    let line = format!(
        "bench: {stack} overhead: on/off cycles per CPU-second {m:.4} (median of {} \
         chunk pairs, quartiles {:.3}..{:.3}), floor {FLOOR:.3} {}",
        pairs.len(),
        quartile(1),
        quartile(3),
        if pass { "ok" } else { "TOO SLOW" },
    );
    (line, pass)
}

/// `--overhead-check`: judges every stack, printing one verdict each;
/// true when all passed.
fn overhead_check() -> bool {
    let mut pass = true;
    for (stack, attach) in STACKS {
        let (line, ok) = judge(stack, &measure(attach));
        eprintln!("{line}");
        pass &= ok;
    }
    pass
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
                eprintln!("bench: an instrument stack costs more than 3% or moved the model");
                std::process::exit(1);
            }
        }
        _ => {
            eprintln!("usage: bench_throughput --record|--check LEDGER OUT... | --overhead-check");
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

    /// `PAIRS` pairs whose plain chunk took 1 ms and whose instrumented
    /// chunk ran at `ratio` times its speed, both over 40,000 cycles.
    fn pairs_at(ratio: f64) -> Vec<(Chunk, Chunk)> {
        let chunk = |cpu_ns: f64| Chunk {
            cycles: 40_000,
            cpu_ns: cpu_ns as u64,
        };
        vec![(chunk(1e6), chunk(1e6 / ratio)); PAIRS]
    }

    #[test]
    fn a_stack_at_0_975_passes_and_one_at_0_965_fails() {
        assert!(judge("profiler", &pairs_at(0.975)).1);
        let (line, pass) = judge("profiler", &pairs_at(0.965));
        assert!(!pass && line.contains("TOO SLOW"), "{line}");
    }

    #[test]
    fn outlier_pairs_do_not_flip_the_verdict() {
        let (fast, slow) = (pairs_at(2.0)[0], pairs_at(0.5)[0]);
        let mut pairs = pairs_at(0.98);
        pairs[..5].fill(fast);
        pairs[5..10].fill(slow);
        assert!(judge("profiler", &pairs).1);
        let mut pairs = pairs_at(0.96);
        pairs[..10].fill(fast);
        assert!(!judge("profiler", &pairs).1);
    }

    #[test]
    fn unequal_chunk_cycles_fail_naming_the_chunk() {
        let mut pairs = pairs_at(1.0);
        pairs[17].1.cycles += 1;
        let (line, pass) = judge("decision audit", &pairs);
        assert!(!pass && line.contains("chunk 17"), "{line}");
    }

    #[test]
    fn the_verdict_line_names_the_stack() {
        for stack in STACKS.map(|(name, _)| name) {
            let (line, _) = judge(stack, &pairs_at(1.0));
            assert!(
                line.starts_with(&format!("bench: {stack} overhead:")),
                "{line}"
            );
        }
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
