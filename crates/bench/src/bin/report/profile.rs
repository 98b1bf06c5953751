//! `report profile` — host-profile a pinned policy × workload grid and
//! summarize where the simulator's wall-clock time goes.
//!
//! Runs the standard 2-workload × 4-policy grid at the
//! `CMPSIM_PROFILE` scale with a per-cell host profiler, then prints one
//! row per cell: run wall time, throughput, attribution coverage,
//! per-stage self-time shares, top queue high-water marks, and per-cell
//! peak observed RSS — the same columns whether the grid ran serially
//! or under `--jobs N` (each cell carries its own profiler through the
//! grid, so parallelism loses no per-cell context).
//!
//! `--stream-telemetry PATH` serves the whole grid's interval + host
//! frames on a Unix socket (attach with `report tail PATH`);
//! `--wait-client SECS` delays the grid start until a client attaches
//! (or the timeout passes), so a tail can catch a short run from its
//! first frame. `--check` exits 1 unless aggregate attribution
//! coverage is at least 95%.

use std::num::{NonZeroU32, NonZeroUsize};

use cmp_adaptive_wb::{PolicyConfig, RunReport, UpdateScope};
use cmpsim_bench::cli::Args;
use cmpsim_bench::{effective_jobs, run_grid, set_jobs, Profile, Table};
use cmpsim_engine::profiler::{HostProfiler, HostStage, CLOCK_BACKEND, TIMED_STAGES};
use cmpsim_engine::stream::TelemetryStream;
use cmpsim_trace::Workload;

pub const USAGE: &str = "usage: report profile [--jobs N] [--stride N] \
                         [--stream-telemetry PATH] [--wait-client SECS] [--check]";

fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

pub fn run(mut args: Args) -> Result<(), String> {
    // Stride 1 times every iteration with shared window boundaries, so
    // attribution tiles the wall clock; accuracy matters more than
    // overhead here.
    let mut stride: u32 = 1;
    let mut stream_path: Option<String> = None;
    let mut wait_client_secs: u64 = 0;
    let mut check = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => set_jobs(args.number::<NonZeroUsize>().get()),
            "--stride" => stride = args.number::<NonZeroU32>().get(),
            "--stream-telemetry" => stream_path = Some(args.value()),
            "--wait-client" => wait_client_secs = args.number(),
            "--check" => check = true,
            other => args.fail(format!("unknown flag {other}")),
        }
    }
    let jobs = effective_jobs();
    let profile = Profile::from_env();

    let stream = match &stream_path {
        Some(p) => TelemetryStream::listen_unix(std::path::Path::new(p))
            .map_err(|e| format!("--stream-telemetry {p}: {e}"))?,
        None => TelemetryStream::disabled(),
    };
    if stream.is_enabled() && wait_client_secs > 0 {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(wait_client_secs);
        while stream.client_count() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        if stream.client_count() == 0 {
            eprintln!(
                "report profile: no client attached within {wait_client_secs}s; starting anyway"
            );
        }
    }

    // The pinned grid: the two most policy-sensitive workloads crossed
    // with all four write-back policies.
    let entries = profile.table_entries(32 * 1024);
    let mut specs = Vec::new();
    for wl in [Workload::Trade2, Workload::Cpw2] {
        for name in ["baseline", "wbht", "snarf", "combined"] {
            let mut cfg = profile.config();
            cfg.policy =
                PolicyConfig::parse(name, entries, UpdateScope::Local, 1).expect("known policy");
            let mut spec = profile.spec(cfg, wl);
            spec.host_profiler = HostProfiler::with_stride(stride);
            spec.stream = stream.clone();
            spec.stream_cell = specs.len() as u64;
            specs.push(spec);
        }
    }
    let reports = run_grid(specs, jobs);

    let columns = [
        "cell", "workload", "policy", "wall_ms", "Mcyc/s", "Mev/s", "cover%",
    ];
    let mut header = columns.map(String::from).to_vec();
    header.extend(HostStage::all().map(|st| format!("{}%", st.as_str())));
    header.extend(["eq_hwm", "mshr_hwm", "wbq_hwm", "l3rq_hwm", "rss_kb"].map(String::from));
    let mut table = Table::new(header);

    let mut agg_wall = 0u64;
    let mut agg_attr = 0u64;
    for (cell, report) in reports.iter().enumerate() {
        let host = report
            .host
            .as_ref()
            .expect("profiler was attached to every cell");
        agg_wall += host.run_wall_ns;
        agg_attr += host.attributed_ns();
        let wall_s = host.run_wall_ns as f64 / 1e9;
        let events = host.samples.last().map_or(0, |s| s.gauges.events);
        let rss = host.samples.iter().map(|s| s.rss_kb).max().unwrap_or(0);
        let mut row = vec![
            cell.to_string(),
            report.workload.clone(),
            report.policy.to_string(),
            format!("{:.1}", wall_s * 1e3),
            format!("{:.2}", report.stats.cycles as f64 / wall_s.max(1e-9) / 1e6),
            format!("{:.2}", events as f64 / wall_s.max(1e-9) / 1e6),
            pct(host.coverage()),
        ];
        for st in HostStage::all() {
            row.push(pct(host.stage_share(st)));
        }
        row.push(report.stats.event_queue_high_water.to_string());
        row.push(report.stats.mshr_high_water.to_string());
        row.push(report.stats.wbq_high_water.to_string());
        row.push(report.l3.read_queue_high_water.to_string());
        row.push(rss.to_string());
        table.row(row);
    }
    print!("{}", table.render());
    println!(
        "\n{} cells, {} jobs, stride {}, clock {}; grid wall {:.2}s",
        reports.len(),
        jobs,
        stride,
        CLOCK_BACKEND,
        agg_wall as f64 / 1e9
    );
    print!("{}", top_queues(&reports));

    let coverage = if agg_wall == 0 || agg_attr == 0 {
        0.0
    } else {
        agg_attr.min(agg_wall) as f64 / agg_attr.max(agg_wall) as f64
    };
    println!(
        "aggregate attribution coverage: {:.1}% ({} timed stages, scaled by stride)",
        coverage * 100.0,
        TIMED_STAGES
    );
    if check && coverage < 0.95 {
        return Err(format!(
            "FAILED — coverage {:.1}% below the 95% floor (try a smaller --stride)",
            coverage * 100.0
        ));
    }
    Ok(())
}

/// The grid's top queue high-water marks, worst cell first.
fn top_queues(reports: &[RunReport]) -> String {
    let mut tops: Vec<(String, u64)> = Vec::new();
    for (i, r) in reports.iter().enumerate() {
        let tag = |q: &str| format!("cell {i} {}/{} {q}", r.workload, r.policy);
        tops.push((tag("event_queue"), r.stats.event_queue_high_water));
        tops.push((tag("mshr"), r.stats.mshr_high_water));
        tops.push((tag("wbq"), r.stats.wbq_high_water));
        tops.push((tag("l3_read_queue"), r.l3.read_queue_high_water));
    }
    tops.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut out = String::from("top queue high-water marks:\n");
    for (name, depth) in tops.iter().take(5) {
        out.push_str(&format!("  {depth:>6}  {name}\n"));
    }
    out
}
