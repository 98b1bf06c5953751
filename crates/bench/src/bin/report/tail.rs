//! `report tail` — attach to a live telemetry stream and render a
//! refreshing console view of the simulator: per-stage wall-time bars,
//! cycles/sec, queue depths, and (when the run has `--audit` on)
//! adaptive-decision quality, one block per grid cell.
//!
//! `PATH` is the Unix socket a simulator is serving via
//! `--stream-telemetry=PATH`; `-` reads a stream from stdin (e.g.
//! `cmpsim -q --stream-telemetry | report tail -`). `--wait` retries
//! the connection until the socket exists (default 5 s), so the tail
//! can be started before the sweep. `--once` prints one plain-text
//! snapshot after the first host sample (or at end of stream) and
//! exits — 0 only if a host sample was consumed, making it a cheap
//! end-to-end check that streaming works.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::num::NonZeroU64;

use cmpsim_bench::cli::Args;
use cmpsim_engine::profiler::{HostStage, TIMED_STAGES};
use cmpsim_engine::stream::{frame_str, frame_u64, read_frame, STREAM_SCHEMA};

pub const USAGE: &str = "usage: report tail [--once] [--wait SECS] [--refresh MS] PATH|-";

/// Latest known state of one grid cell: its last host-sample and
/// decision frames, plus what accumulates across frames.
#[derive(Default)]
struct CellView {
    workload: String,
    policy: String,
    cycles: u64,
    host_samples: u64,
    intervals: u64,
    done: bool,
    /// The latest `host_sample` frame.
    host: String,
    /// The latest `decision` frame (cumulative counters).
    decision: String,
}

fn ingest(cells: &mut BTreeMap<u64, CellView>, json: &str) -> bool {
    let cell = frame_u64(json, "cell").unwrap_or(0);
    let view = cells.entry(cell).or_default();
    match frame_str(json, "type") {
        Some("run_start") => {
            view.workload = frame_str(json, "workload").unwrap_or("?").to_string();
            view.policy = frame_str(json, "policy").unwrap_or("?").to_string();
            view.done = false;
        }
        Some("interval") => {
            view.intervals += 1;
            view.cycles = view.cycles.max(frame_u64(json, "end").unwrap_or(0));
        }
        Some("host_sample") => {
            view.host_samples += 1;
            view.cycles = view.cycles.max(frame_u64(json, "cycles").unwrap_or(0));
            view.host = json.to_string();
            return true;
        }
        Some("decision") => view.decision = json.to_string(),
        Some("run_end") => {
            view.done = true;
            view.cycles = view.cycles.max(frame_u64(json, "cycles").unwrap_or(0));
        }
        _ => {} // unknown types are forward-compatible: skip
    }
    false
}

fn render(cells: &BTreeMap<u64, CellView>) -> String {
    let mut out = String::new();
    for (id, v) in cells {
        let host = |k: &str| frame_u64(&v.host, k).unwrap_or(0);
        let decision = |k: &str| frame_u64(&v.decision, k).unwrap_or(0);
        let status = if v.done { "done" } else { "running" };
        out.push_str(&format!(
            "cell {id} {}/{} [{status}]  {:.1}M cycles  {:.2}M cyc/s  {:.2}M ev/s\n",
            v.workload,
            v.policy,
            v.cycles as f64 / 1e6,
            host("cycles_per_sec") as f64 / 1e6,
            host("events_per_sec") as f64 / 1e6,
        ));
        out.push_str(&format!(
            "  queues: eq ring {} + overflow {}, mshr {}/{}, wbq {}  rss {} kB  \
             ({} host samples, {} intervals)\n",
            host("eq_ring_len"),
            host("eq_overflow_len"),
            host("mshr_used"),
            host("mshr_cap"),
            host("wbq_depth"),
            host("rss_kb"),
            v.host_samples,
            v.intervals,
        ));
        if decision("decisions") > 0 {
            // Rates over *resolved* outcomes only; early in a run most
            // decisions are still pending, so show "--" instead of a
            // 0/0 artifact.
            let rate = |num: &str, other: &str| match decision(num) + decision(other) {
                0 => "--".to_string(),
                den => format!("{:.0}%", 100.0 * decision(num) as f64 / den as f64),
            };
            // Label the audit block with the cell's configured policy
            // (from its run_start frame) rather than assuming the WBHT
            // is the only decision-maker.
            let policy = if v.policy.is_empty() { "?" } else { &v.policy };
            out.push_str(&format!(
                "  audit[{policy}]: {} castout decisions [{}], abort precision {}, \
                 useful snarfs {}\n",
                decision("decisions"),
                if decision("engaged") != 0 {
                    "engaged"
                } else {
                    "off"
                },
                rate("aborts_correct", "aborts_mispredicted"),
                rate("snarfs_useful", "snarfs_wasted"),
            ));
        }
        let stages = &HostStage::all()[..TIMED_STAGES];
        let stage_ns: Vec<u64> = stages
            .iter()
            .map(|st| host(&format!("{}_ns", st.as_str())))
            .collect();
        let attributed: u64 = stage_ns.iter().sum();
        if attributed == 0 {
            continue;
        }
        for (st, ns) in stages.iter().zip(&stage_ns) {
            let share = *ns as f64 / attributed as f64;
            let bar = "#".repeat((share * 30.0).round() as usize);
            out.push_str(&format!(
                "  {:<12} {:>5.1}% |{bar:<30}|\n",
                st.as_str(),
                share * 100.0
            ));
        }
    }
    out
}

/// Opens the stream at `source`, retrying a socket for `wait_secs`.
fn open_source(source: &str, wait_secs: u64) -> Result<Box<dyn BufRead>, String> {
    if source == "-" {
        return Ok(Box::new(BufReader::new(std::io::stdin())));
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(wait_secs);
    loop {
        match std::os::unix::net::UnixStream::connect(source) {
            Ok(s) => return Ok(Box::new(BufReader::new(s))),
            Err(e) if std::time::Instant::now() >= deadline => {
                return Err(format!("{source}: {e}"))
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    }
}

pub fn run(mut args: Args) -> Result<(), String> {
    let mut once = false;
    let mut wait_secs: u64 = 5;
    let mut refresh_ms: u64 = 250;
    let mut source = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--wait" => wait_secs = args.number(),
            "--refresh" => refresh_ms = args.number::<NonZeroU64>().get(),
            s if source.is_none() && (s == "-" || !s.starts_with('-')) => source = Some(arg),
            other => args.fail(format!("unexpected argument {other}")),
        }
    }
    let Some(source) = source else {
        args.fail("missing stream source (socket PATH or -)")
    };
    let mut reader = open_source(&source, wait_secs)?;

    let hello = read_frame(&mut reader)
        .map_err(|e| format!("bad frame: {e}"))?
        .ok_or("stream closed before the hello frame")?;
    if frame_str(&hello, "type") != Some("hello")
        || frame_str(&hello, "schema") != Some(STREAM_SCHEMA)
    {
        return Err(format!("unsupported stream header: {hello}"));
    }

    let mut cells: BTreeMap<u64, CellView> = BTreeMap::new();
    let mut saw_host_sample = false;
    let mut last_draw = std::time::Instant::now();
    let refresh = std::time::Duration::from_millis(refresh_ms);
    while let Some(json) = read_frame(&mut reader).map_err(|e| format!("bad frame: {e}"))? {
        saw_host_sample |= ingest(&mut cells, &json);
        if once {
            if saw_host_sample {
                break;
            }
            continue;
        }
        if last_draw.elapsed() >= refresh {
            last_draw = std::time::Instant::now();
            // Clear screen + home, then the current view.
            print!("\x1b[2J\x1b[H{}", render(&cells));
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
    }
    // Final plain snapshot (also the entire output under --once).
    print!("{}", render(&cells));
    if once && !saw_host_sample {
        return Err("stream ended without a host sample".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_throughput_first_sample_renders_finite() {
        let mut cells = BTreeMap::new();
        ingest(
            &mut cells,
            r#"{"type":"run_start","cell":0,"workload":"tp","policy":"combined"}"#,
        );
        // First sample window with nothing simulated yet: all rates 0.
        let saw = ingest(
            &mut cells,
            r#"{"type":"host_sample","cell":0,"cycles":0,"cycles_per_sec":0,
               "events_per_sec":0,"mshr_used":0,"mshr_cap":0,"wbq_depth":0}"#,
        );
        assert!(saw);
        let out = render(&cells);
        assert!(out.contains("0.00M cyc/s"), "{out}");
        assert!(!out.contains("NaN") && !out.contains("inf"), "{out}");
    }

    #[test]
    fn decision_frames_fold_into_the_view() {
        let mut cells = BTreeMap::new();
        ingest(
            &mut cells,
            r#"{"type":"run_start","cell":3,"workload":"tp","policy":"wbht+snarf"}"#,
        );
        ingest(
            &mut cells,
            r#"{"type":"decision","cell":3,"cycle":500,"decisions":10,"aborts":4,
               "aborts_correct":3,"aborts_mispredicted":1,"allows_redundant":2,
               "snarfs":5,"snarfs_useful":2,"snarfs_wasted":1,"engaged":1}"#,
        );
        let out = render(&cells);
        // The audit block is labelled with the configured policy from
        // the run_start frame, not a hard-wired mechanism name.
        assert!(
            out.contains("audit[wbht+snarf]: 10 castout decisions [engaged]"),
            "{out}"
        );
        assert!(out.contains("abort precision 75%"), "{out}");
        assert!(out.contains("useful snarfs 67%"), "{out}");
    }

    #[test]
    fn unresolved_decisions_render_dashes_not_nan() {
        let mut cells = BTreeMap::new();
        // Early frame: decisions recorded, nothing resolved yet (0/0).
        ingest(
            &mut cells,
            r#"{"type":"decision","cell":0,"cycle":100,"decisions":7,"engaged":0}"#,
        );
        let out = render(&cells);
        // No run_start seen for this cell: the policy label degrades to
        // "?" instead of guessing a mechanism from metric presence.
        assert!(out.contains("audit[?]: 7 castout decisions [off]"), "{out}");
        assert!(out.contains("abort precision --"), "{out}");
        assert!(out.contains("useful snarfs --"), "{out}");
        assert!(!out.contains("NaN"), "{out}");
    }

    #[test]
    fn unknown_frame_types_are_skipped() {
        let mut cells = BTreeMap::new();
        assert!(!ingest(
            &mut cells,
            r#"{"type":"mystery","cell":0,"weird":1}"#
        ));
        // The cell exists (forward-compatible) but carries no data.
        assert_eq!(cells.len(), 1);
        assert!(cells[&0].decision.is_empty() && cells[&0].host.is_empty());
    }
}
