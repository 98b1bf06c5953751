//! `trace_stats` — offline analysis of synthetic or recorded traces:
//! footprint, sharing, store mix, reuse-distance curve, and predicted
//! LRU hit rates at the modelled cache capacities.
//!
//! ```sh
//! trace_stats [WORKLOAD [RECORDS]]   # synthetic (default trade2, 200000)
//! trace_stats --file TRACE           # recorded CMPTRC01 trace
//! ```
//!
//! Bad arguments exit 2 with the usage; an unreadable or malformed
//! `--file` exits 1 naming the path and the error.

use std::process::ExitCode;

use cmpsim_trace::analysis::{profile, ReuseDistances};
use cmpsim_trace::{file, CacheScale, SyntheticWorkload, TraceRecord, Workload};

const USAGE: &str = "usage: trace_stats [tp|cpw2|notesbench|nb|trade2 [RECORDS]]
       trace_stats --file TRACE";

/// The records to profile; `Err` carries the exit code for bad input.
fn records(args: &[String]) -> Result<Vec<TraceRecord>, ExitCode> {
    if let [flag, path] = args {
        if flag == "--file" {
            let data = std::fs::read(path).map_err(|e| e.to_string());
            return data
                .and_then(|d| file::read_trace(&d[..]).map_err(|e| e.to_string()))
                .map_err(|e| {
                    eprintln!("trace_stats: {path}: {e}");
                    ExitCode::FAILURE
                });
        }
    }
    let (name, n) = match args {
        [] => ("trade2", "200000"),
        [name] => (name.as_str(), "200000"),
        [name, n] => (name.as_str(), n.as_str()),
        _ => ("", ""),
    };
    let (Some(wl), Ok(n)) = (Workload::from_name(name), n.parse()) else {
        eprintln!("{USAGE}");
        return Err(ExitCode::from(2));
    };
    let params = wl.params(16, CacheScale::scaled(8));
    let mut g = SyntheticWorkload::new(params, 2026).expect("valid preset");
    Ok(g.generate(n))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let records = match records(&args) {
        Ok(records) => records,
        Err(code) => return code,
    };

    let p = profile(&records, 128, 4);
    println!("records          : {}", p.records);
    println!("stores           : {:.1}%", p.store_permille as f64 / 10.0);
    println!(
        "footprint        : {} lines ({} KB)",
        p.footprint_lines,
        p.footprint_lines * 128 / 1024
    );
    println!(
        "shared lines     : {} ({:.1}%)",
        p.shared_lines,
        100.0 * p.shared_lines as f64 / p.footprint_lines.max(1) as f64
    );
    println!(
        "cross-L2 lines   : {} ({:.1}%)",
        p.cross_l2_lines,
        100.0 * p.cross_l2_lines as f64 / p.footprint_lines.max(1) as f64
    );
    println!("hottest line     : {} touches", p.max_line_touches);

    let rd = ReuseDistances::from_records(&records, 128);
    println!(
        "cold misses      : {} ({:.1}%)",
        rd.cold_misses(),
        100.0 * rd.cold_misses() as f64 / rd.total().max(1) as f64
    );
    println!("\npredicted fully-associative LRU hit rates:");
    for (label, lines) in [
        ("L1 (32 KB)", 256u64),
        ("L2 share (512 KB)", 4096),
        ("one L2 (2 MB)", 16384),
        ("all L2s (8 MB)", 65536),
        ("L3 (16 MB)", 131072),
    ] {
        println!("  {label:<18} {:>5.1}%", rd.hit_rate_at(lines) * 100.0);
    }
    ExitCode::SUCCESS
}
