//! `profile_report` — host-profile a pinned policy × workload grid and
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
//! ```text
//! profile_report [--jobs N] [--stride N] [--stream-telemetry=PATH]
//!                [--wait-client SECS] [--check]
//! ```
//!
//! `--stream-telemetry=PATH` serves the whole grid's interval + host
//! frames on a Unix socket (attach with `telemetry_tail PATH`);
//! `--wait-client SECS` delays the grid start until a client attaches
//! (or the timeout passes), so a tail can catch a short run from its
//! first frame. `--check` exits non-zero unless aggregate attribution
//! coverage is at least 95%.

use cmp_adaptive_wb::{PolicyConfig, RunReport, UpdateScope};
use cmpsim_bench::{run_grid, Profile, Table};
use cmpsim_engine::profiler::{HostProfiler, HostStage, TIMED_STAGES};
use cmpsim_engine::stream::TelemetryStream;
use cmpsim_trace::Workload;

struct Args {
    jobs: usize,
    stride: u32,
    stream_path: Option<String>,
    wait_client_secs: u64,
    check: bool,
}

fn parse_args() -> Args {
    cmpsim_bench::jobs_from_args();
    let mut args = Args {
        jobs: cmpsim_bench::effective_jobs(),
        // Stride 1 times every iteration with shared window boundaries,
        // so attribution tiles the wall clock; accuracy matters more
        // than overhead here.
        stride: 1,
        stream_path: None,
        wait_client_secs: 0,
        check: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                it.next(); // consumed by jobs_from_args
            }
            "--stride" => {
                args.stride = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--stride expects a positive integer"));
            }
            "--wait-client" => {
                args.wait_client_secs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--wait-client expects seconds"));
            }
            "--check" => args.check = true,
            other => {
                if let Some(p) = other.strip_prefix("--stream-telemetry=") {
                    args.stream_path = Some(p.to_string());
                } else if other.starts_with("--jobs=") {
                    // consumed by jobs_from_args
                } else {
                    usage(&format!("unknown flag {other}"))
                }
            }
        }
    }
    args
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "profile_report: {msg}\n\
         usage: profile_report [--jobs N] [--stride N] \
         [--stream-telemetry=PATH] [--wait-client SECS] [--check]"
    );
    std::process::exit(2);
}

/// The pinned grid: the two most policy-sensitive workloads crossed
/// with all four write-back policies.
fn grid(p: &Profile) -> Vec<(Workload, PolicyConfig)> {
    let entries = p.table_entries(32 * 1024);
    let mut cells = Vec::new();
    for wl in [Workload::Trade2, Workload::Cpw2] {
        for spec in ["baseline", "wbht", "snarf", "combined"] {
            let policy = PolicyConfig::parse(spec, entries, UpdateScope::Local, 1);
            cells.push((wl, policy.expect("known policy")));
        }
    }
    cells
}

fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

fn main() {
    let args = parse_args();
    let profile = Profile::from_env();

    let stream = match &args.stream_path {
        Some(p) => match TelemetryStream::listen_unix(std::path::Path::new(p)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("profile_report: --stream-telemetry {p}: {e}");
                std::process::exit(1);
            }
        },
        None => TelemetryStream::disabled(),
    };
    if stream.is_enabled() && args.wait_client_secs > 0 {
        let deadline =
            std::time::Instant::now() + std::time::Duration::from_secs(args.wait_client_secs);
        while stream.client_count() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        if stream.client_count() == 0 {
            eprintln!(
                "profile_report: no client attached within {}s; starting anyway",
                args.wait_client_secs
            );
        }
    }

    let cells = grid(&profile);
    let mut profilers = Vec::new();
    let mut specs = Vec::new();
    for (cell, (wl, policy)) in cells.iter().enumerate() {
        let mut cfg = profile.config();
        cfg.policy = *policy;
        let mut spec = profile.spec(cfg, *wl);
        let host = HostProfiler::with_stride(args.stride);
        spec.host_profiler = host.clone();
        spec.stream = stream.clone();
        spec.stream_cell = cell as u64;
        profilers.push(host);
        specs.push(spec);
    }
    let reports = run_grid(specs, args.jobs);

    let mut header = vec![
        "cell".to_string(),
        "workload".to_string(),
        "policy".to_string(),
        "wall_ms".to_string(),
        "Mcyc/s".to_string(),
        "Mev/s".to_string(),
        "cover%".to_string(),
    ];
    for st in HostStage::all() {
        header.push(format!("{}%", st.as_str()));
    }
    header.extend(["eq_hwm", "mshr_hwm", "wbq_hwm", "l3rq_hwm", "rss_kb"].map(str::to_string));
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
        args.jobs,
        args.stride,
        profilers[0].report().backend,
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
    if args.check && coverage < 0.95 {
        eprintln!(
            "profile_report: FAILED — coverage {:.1}% below the 95% floor \
             (try a smaller --stride)",
            coverage * 100.0
        );
        std::process::exit(1);
    }
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
