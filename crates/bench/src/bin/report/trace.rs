//! `report trace` — offline analysis of synthetic or recorded traces:
//! footprint, sharing, store mix, reuse-distance curve, and predicted
//! LRU hit rates at the modelled cache capacities.
//!
//! ```sh
//! report trace [WORKLOAD [RECORDS]]   # synthetic (default trade2, 200000)
//! report trace --file TRACE           # recorded CMPTRC01 trace
//! ```
//!
//! Both read the trace on the `SystemConfig::scaled(8)` machine: the
//! synthetic stream is sized for its caches, as in `exp workloads`, and
//! `cmpsim --trace FILE` replays on it by default (`--scale 8`). Line
//! size, threads per L2 and the five predicted capacities come from that
//! config. Bad arguments exit 2 with the usage; an unreadable or
//! malformed `--file` exits 1 naming the path and the error.

use cmp_adaptive_wb::SystemConfig;
use cmpsim_bench::cli::Args;
use cmpsim_trace::analysis::{profile, ReuseDistances};
use cmpsim_trace::{file, SyntheticWorkload, Workload};

pub const USAGE: &str = "usage: report trace [tp|cpw2|notesbench|nb|trade2 [RECORDS]]
       report trace --file TRACE";

/// The machine the trace is read on; see the module docs.
fn config() -> SystemConfig {
    SystemConfig::scaled(8)
}

/// The five capacities hit rates are predicted at, labelled with their
/// size: (label, lines).
fn capacities(cfg: &SystemConfig) -> [(String, u64); 5] {
    let one_l2 = cfg.l2_slices * cfg.l2_slice_bytes;
    [
        ("L1", cfg.l1.map_or(0, |l1| l1.size_bytes)),
        ("L2 share", cfg.l2_slice_bytes),
        ("one L2", one_l2),
        ("all L2s", one_l2 * u64::from(cfg.num_l2)),
        ("L3", cfg.l3_lines_total() * cfg.line_bytes),
    ]
    .map(|(name, bytes)| (format!("{name} ({})", size(bytes)), bytes / cfg.line_bytes))
}

/// `bytes` in whole MB when it divides evenly, else in KB.
fn size(bytes: u64) -> String {
    const MB: u64 = 1024 * 1024;
    if bytes >= MB && bytes.is_multiple_of(MB) {
        format!("{} MB", bytes / MB)
    } else {
        format!("{} KB", bytes / 1024)
    }
}

pub fn run(mut args: Args) -> Result<(), String> {
    let cfg = config();
    let mut path = None;
    let mut positional = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--file" => path = Some(args.value()),
            s if !s.starts_with('-') => positional.push(arg),
            other => args.fail(format!("unknown flag {other}")),
        }
    }
    let records = match (path, positional.as_slice()) {
        (Some(path), []) => std::fs::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|d| file::read_trace(&d[..]).map_err(|e| e.to_string()))
            .map_err(|e| format!("{path}: {e}"))?,
        (None, [] | [_] | [_, _]) => {
            let name = positional.first().map_or("trade2", String::as_str);
            let wl = Workload::from_name(name)
                .unwrap_or_else(|| args.fail(format!("unknown workload {name}")));
            let n = positional
                .get(1)
                .map_or(200_000, |n| args.parse("RECORDS", n));
            let params = wl.params(cfg.num_threads(), cfg.cache_scale());
            SyntheticWorkload::new(params, 2026)
                .expect("valid preset")
                .generate(n)
        }
        _ => args.fail("give a workload and record count, or --file alone"),
    };

    let line = cfg.line_bytes;
    let threads_per_l2 = cfg.num_threads() / u16::from(cfg.num_l2);
    let p = profile(&records, line, threads_per_l2);
    println!("records          : {}", p.records);
    println!("stores           : {:.1}%", p.store_permille as f64 / 10.0);
    println!(
        "footprint        : {} lines ({} KB)",
        p.footprint_lines,
        p.footprint_lines * line / 1024
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

    let rd = ReuseDistances::from_records(&records, line);
    println!(
        "cold misses      : {} ({:.1}%)",
        rd.cold_misses(),
        100.0 * rd.cold_misses() as f64 / rd.total().max(1) as f64
    );
    println!("\npredicted fully-associative LRU hit rates:");
    for (label, lines) in capacities(&cfg) {
        println!("  {label:<18} {:>5.1}%", rd.hit_rate_at(lines) * 100.0);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_follow_the_config_that_sizes_the_workload() {
        let cfg = config();
        let caps = capacities(&cfg);
        let one_l2 = cfg.l2_lines_total() / u64::from(cfg.num_l2);
        assert_eq!(
            caps.each_ref().map(|(_, lines)| *lines),
            [32, 512, one_l2, cfg.l2_lines_total(), cfg.l3_lines_total()]
        );
        assert_eq!(
            caps.map(|(label, _)| label),
            [
                "L1 (4 KB)",
                "L2 share (64 KB)",
                "one L2 (256 KB)",
                "all L2s (1 MB)",
                "L3 (2 MB)"
            ]
        );
        // The workload is sized against these same caches.
        assert_eq!(cfg.cache_scale().l2_lines_total, 4 * one_l2);
        assert_eq!(cfg.cache_scale().l3_lines_total, cfg.l3_lines_total());
    }

    #[test]
    fn sizes_print_in_whole_units() {
        assert_eq!(size(32 * 1024), "32 KB");
        assert_eq!(size(2 * 1024 * 1024), "2 MB");
        assert_eq!(size(1536 * 1024), "1536 KB");
    }
}
