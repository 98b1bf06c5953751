//! `report spans` — critical-path attribution from transaction spans.
//!
//! Runs one simulation with span tracing enabled and reports:
//!
//! * **Latency tiers** per fill source — the paper's contention-free
//!   hierarchy of ~77 cycles for an L2-to-L2 intervention, ~167 for an
//!   L3 hit, and ~431 for memory — as observed means alongside the
//!   queue-wait/service split that explains any inflation over them.
//!   They come from the run's [`SpanSummary`], the same per-source
//!   histograms `cmpsim --json` exports.
//! * **Critical-path attribution** — total cycles spent in every span
//!   phase across the run, split queue-wait vs. service, answering
//!   "where do miss cycles actually go?".
//! * **Top-N slowest transactions** with their full phase timelines,
//!   the starting point for any tail-latency investigation.

use std::collections::BTreeMap;
use std::num::NonZeroU64;

use cmp_adaptive_wb::{run as simulate, PolicyConfig, RunSpec, SystemConfig, UpdateScope};
use cmpsim_bench::cli::Args;
use cmpsim_engine::spans::{SpanRecord, SpanSummary, SpanTracer};
use cmpsim_trace::Workload;

pub const USAGE: &str = "usage: report spans [--workload NAME] [--policy NAME[+NAME...]] \
                         [--refs N] [--scale N] [--sample N>=1] [--top N]";

pub fn run(mut args: Args) -> Result<(), String> {
    let mut workload = Workload::Trade2;
    let mut policy = "baseline".to_string();
    let mut refs: u64 = 20_000;
    let mut scale: u64 = 8;
    let mut sample: u64 = 1;
    let mut top: usize = 5;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" | "-w" => {
                let name = args.value();
                workload = Workload::from_name(&name)
                    .unwrap_or_else(|| args.fail(format!("unknown workload {name}")));
            }
            "--policy" | "-p" => policy = args.value(),
            "--refs" | "-n" => refs = args.number(),
            "--scale" => {
                let raw = args.value();
                scale = args.parse("--scale", &raw);
                if scale == 0 {
                    args.fail(format!("--scale {raw}: out of range (1..)"));
                }
            }
            "--sample" => sample = args.number::<NonZeroU64>().get(),
            "--top" => top = args.number(),
            other => args.fail(format!("unknown flag {other}")),
        }
    }
    let mut cfg = if scale == 1 {
        SystemConfig::paper()
    } else {
        SystemConfig::try_scaled(scale)
            .unwrap_or_else(|e| args.fail(format!("--scale {scale}: invalid geometry: {e}")))
    };
    // Tables scale with the caches, as in `cmpsim` without --entries.
    cfg.policy = PolicyConfig::parse(
        &policy,
        PolicyConfig::scaled_entries(scale),
        UpdateScope::Local,
        1,
    )
    .unwrap_or_else(|e| args.fail(e));
    let mut spec = RunSpec::for_workload(cfg, workload, refs);
    spec.span_tracer = SpanTracer::sampled(sample);
    let report = simulate(spec).map_err(|e| e.to_string())?;
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
    print_tiers(summary);
    print_phases(&report.spans);
    print_slowest(&report.spans, top);
    Ok(())
}

fn print_tiers(summary: &SpanSummary) {
    println!("\nfill-source latency tiers (paper: intervention ~77, L3 ~167, memory ~431):");
    println!(
        "  {:<24} {:>7} {:>9} {:>9} {:>9}",
        "source", "fills", "mean", "q-wait", "service"
    );
    for (label, tier) in [
        ("L2-to-L2 intervention", &summary.l2_peer),
        ("L3 hit", &summary.l3),
        ("memory", &summary.memory),
    ] {
        println!(
            "  {:<24} {:>7} {:>9.1} {:>9.1} {:>9.1}",
            label,
            tier.total.count(),
            tier.total.mean(),
            tier.queue_wait.mean(),
            tier.service.mean(),
        );
    }
}

/// Total cycles per span phase across all spans, split queue vs service.
fn print_phases(spans: &[SpanRecord]) {
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
}

/// The `top` slowest spans with their phase timelines.
fn print_slowest(spans: &[SpanRecord], top: usize) {
    let mut slowest: Vec<&SpanRecord> = spans.iter().collect();
    slowest.sort_by(|a, b| b.total().cmp(&a.total()).then(a.id.cmp(&b.id)));
    println!("\ntop {} slowest transactions:", top.min(slowest.len()));
    for s in slowest.iter().take(top) {
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
}
