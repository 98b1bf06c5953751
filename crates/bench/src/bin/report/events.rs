//! `report events` — summarizes a `cmpsim --trace-events` JSONL file:
//! event counts per type, the traced time range, and per-interval rates.
//!
//! ```sh
//! cmpsim -p combined --trace-events out.jsonl --interval-stats 100000
//! report events out.jsonl
//! ```
//!
//! Each trace line is one flat JSON object with at least `"t"` (cycle)
//! and `"type"` (event kind), read with the stream module's field
//! scanners. Kinds missing from [`SimEvent::KINDS`] (from a newer
//! simulator) are skipped and counted rather than folded into the
//! per-type table, so the report never misattributes statistics it does
//! not understand.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader};

use cmpsim_bench::cli::Args;
use cmpsim_engine::stream::{frame_str, frame_u64};
use cmpsim_engine::telemetry::SimEvent;

pub const USAGE: &str = "usage: report events TRACE.jsonl";

pub fn run(mut args: Args) -> Result<(), String> {
    let mut path = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            s if path.is_none() && !s.starts_with('-') => path = Some(arg),
            other => args.fail(format!("unexpected argument {other}")),
        }
    }
    let Some(path) = path else {
        args.fail("missing trace path")
    };
    let file = File::open(&path).map_err(|e| format!("{path}: {e}"))?;

    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut first_t: Option<u64> = None;
    let mut last_t: u64 = 0;
    let mut lines: u64 = 0;
    let mut malformed: u64 = 0;
    let mut unknown: BTreeMap<String, u64> = BTreeMap::new();
    let mut intervals: Vec<(u64, u64)> = Vec::new(); // (start, end)

    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| format!("{path}: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let (Some(kind), Some(t)) = (frame_str(&line, "type"), frame_u64(&line, "t")) else {
            malformed += 1;
            continue;
        };
        if !SimEvent::KINDS.contains(&kind) {
            *unknown.entry(kind.to_string()).or_insert(0) += 1;
            continue;
        }
        *counts.entry(kind.to_string()).or_insert(0) += 1;
        first_t.get_or_insert(t);
        last_t = last_t.max(t);
        if kind == "interval" {
            if let (Some(s), Some(e)) = (frame_u64(&line, "start"), frame_u64(&line, "end")) {
                intervals.push((s, e));
            }
        }
    }

    let total: u64 = counts.values().sum();
    let skipped: u64 = unknown.values().sum();
    println!("trace         : {path}");
    println!(
        "events        : {total} ({lines} lines, {malformed} malformed, {skipped} unknown-kind)"
    );
    if let Some(first) = first_t {
        println!("time range    : [{first}, {last_t}]");
    }
    println!("by type:");
    let mut by_count: Vec<(&String, &u64)> = counts.iter().collect();
    by_count.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    for (kind, n) in by_count {
        let share = *n as f64 * 100.0 / total as f64;
        println!("  {kind:<24} {n:>10}  {share:5.1}%");
    }
    if !unknown.is_empty() {
        println!("skipped unknown kinds:");
        for (kind, n) in &unknown {
            println!("  {kind:<24} {n:>10}");
        }
    }
    if let (Some((s0, _)), Some((_, e_last))) = (intervals.first(), intervals.last()) {
        let covered: u64 = intervals.iter().map(|(s, e)| e.saturating_sub(*s)).sum();
        println!(
            "intervals     : {} covering {covered} cycles ([{s0}, {e_last}))",
            intervals.len()
        );
    }
    Ok(())
}
