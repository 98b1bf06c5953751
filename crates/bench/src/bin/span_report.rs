//! `span_report` — critical-path attribution from transaction spans.
//!
//! Runs one simulation with span tracing enabled and reports, from the
//! completed spans:
//!
//! * **Latency tiers** per fill source — the paper's contention-free
//!   hierarchy of ~77 cycles for an L2-to-L2 intervention, ~167 for an
//!   L3 hit, and ~431 for memory — as observed means alongside the
//!   queue-wait/service split that explains any inflation over them.
//! * **Critical-path attribution** — total cycles spent in every span
//!   phase across the run, split queue-wait vs. service, answering
//!   "where do miss cycles actually go?".
//! * **Top-N slowest transactions** with their full phase timelines,
//!   the starting point for any tail-latency investigation.
//!
//! ```sh
//! span_report [--workload tp|cpw2|notesbench|trade2] [--policy NAME[+NAME...]]
//!             [--refs N] [--scale N] [--sample N] [--top N]
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

use cmp_adaptive_wb::{run, PolicyConfig, RetrySwitchConfig, RunSpec, SystemConfig, UpdateScope};
use cmpsim_engine::spans::{SpanRecord, SpanTracer};
use cmpsim_engine::telemetry::FillSource;
use cmpsim_trace::Workload;

#[derive(Debug)]
struct Args {
    workload: Workload,
    policy: String,
    refs: u64,
    scale: u64,
    sample: u64,
    top: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Trade2,
        policy: "baseline".into(),
        refs: 20_000,
        scale: 8,
        sample: 1,
        top: 5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--workload" | "-w" => {
                let name = value("--workload")?;
                args.workload =
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
            }
            "--policy" | "-p" => args.policy = value("--policy")?,
            "--refs" | "-n" => args.refs = parse_num(&value("--refs")?)?,
            "--scale" => args.scale = parse_num(&value("--scale")?)?.max(1),
            "--sample" => args.sample = parse_num(&value("--sample")?)?.max(1),
            "--top" => args.top = parse_num(&value("--top")?)? as usize,
            "--help" | "-h" => {
                println!(
                    "usage: span_report [--workload NAME] [--policy NAME] [--refs N] \
                     [--scale N] [--sample N] [--top N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(args)
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.replace('_', "")
        .parse()
        .map_err(|e| format!("bad number {s}: {e}"))
}

fn source_label(src: FillSource) -> &'static str {
    match src {
        FillSource::L2Peer => "L2-to-L2 intervention",
        FillSource::L3 => "L3 hit",
        FillSource::Memory => "memory",
    }
}

/// Mean of `f` over `spans`, as f64 (0.0 when empty).
fn mean_of(spans: &[&SpanRecord], f: impl Fn(&SpanRecord) -> u64) -> f64 {
    if spans.is_empty() {
        return 0.0;
    }
    spans.iter().map(|s| f(s)).sum::<u64>() as f64 / spans.len() as f64
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("span_report: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let mut cfg = if args.scale <= 1 {
        SystemConfig::paper()
    } else {
        SystemConfig::scaled(args.scale)
    };
    // Tables scale with the caches, as in `cmpsim` without --entries.
    cfg.policy = PolicyConfig::parse(
        &args.policy,
        PolicyConfig::scaled_entries(args.scale),
        UpdateScope::Local,
        1,
    )
    .map_err(|e| e.to_string())?;
    let mut spec = RunSpec::for_workload(cfg, args.workload, args.refs);
    spec.retry_switch = Some(RetrySwitchConfig::scaled(args.scale));
    spec.span_tracer = SpanTracer::sampled(args.sample);
    let report = run(spec).map_err(|e| e.to_string())?;
    let spans = &report.spans;
    let summary = report.span_summary.as_ref().expect("tracer was enabled");

    println!(
        "workload {} policy {} | {} cycles, {} spans recorded ({} started, {} sampled out)",
        report.workload,
        report.policy,
        report.cycles(),
        summary.recorded,
        summary.started,
        summary.sampled_out,
    );

    // --- latency tiers per fill source ----------------------------------
    println!("\nfill-source latency tiers (paper: intervention ~77, L3 ~167, memory ~431):");
    println!(
        "  {:<24} {:>7} {:>9} {:>9} {:>9}",
        "source", "fills", "mean", "q-wait", "service"
    );
    for src in [FillSource::L2Peer, FillSource::L3, FillSource::Memory] {
        let of_src: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.outcome.and_then(|o| o.fill_source()) == Some(src))
            .collect();
        println!(
            "  {:<24} {:>7} {:>9.1} {:>9.1} {:>9.1}",
            source_label(src),
            of_src.len(),
            mean_of(&of_src, SpanRecord::total),
            mean_of(&of_src, SpanRecord::queue_wait),
            mean_of(&of_src, SpanRecord::service),
        );
    }

    // --- critical-path attribution by phase ------------------------------
    let mut by_phase: BTreeMap<&'static str, (u64, u64, bool)> = BTreeMap::new();
    let mut grand_total: u64 = 0;
    for s in spans {
        for (phase, _start, len) in s.segments() {
            let e = by_phase
                .entry(phase.as_str())
                .or_insert((0, 0, phase.is_queue_wait()));
            e.0 += len;
            e.1 += 1;
            grand_total += len;
        }
    }
    let mut phases: Vec<_> = by_phase.into_iter().collect();
    phases.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(b.0)));
    println!("\ncritical-path attribution (all spans, by phase):");
    println!(
        "  {:<16} {:>12} {:>7} {:>10} {:>8}",
        "phase", "cycles", "share", "segments", "class"
    );
    for (name, (cycles, segs, is_wait)) in &phases {
        println!(
            "  {:<16} {:>12} {:>6.1}% {:>10} {:>8}",
            name,
            cycles,
            *cycles as f64 * 100.0 / grand_total.max(1) as f64,
            segs,
            if *is_wait { "queue" } else { "service" },
        );
    }
    let queued: u64 = phases
        .iter()
        .filter(|(_, (_, _, w))| *w)
        .map(|(_, (c, _, _))| c)
        .sum();
    println!(
        "  total {grand_total} cycles across segments; {:.1}% queueing, {:.1}% service",
        queued as f64 * 100.0 / grand_total.max(1) as f64,
        (grand_total - queued) as f64 * 100.0 / grand_total.max(1) as f64,
    );

    // --- top-N slowest transactions --------------------------------------
    let mut slowest: Vec<&SpanRecord> = spans.iter().collect();
    slowest.sort_by(|a, b| b.total().cmp(&a.total()).then(a.id.cmp(&b.id)));
    println!(
        "\ntop {} slowest transactions:",
        args.top.min(slowest.len())
    );
    for s in slowest.iter().take(args.top) {
        let outcome = s.outcome.map_or("unfinished", |o| o.as_str());
        println!(
            "  span {} {} L2#{} line {:#x}: {} cycles ({} queued) -> {}",
            s.id,
            s.kind.as_str(),
            s.l2,
            s.line,
            s.total(),
            s.queue_wait(),
            outcome,
        );
        let timeline: Vec<String> = s
            .segments()
            .map(|(phase, start, len)| format!("{}@{start}+{len}", phase.as_str()))
            .collect();
        println!("      {}", timeline.join(" "));
    }
    Ok(())
}
