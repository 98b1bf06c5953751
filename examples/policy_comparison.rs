//! Side-by-side comparison of all four write-back policies on all four
//! commercial workloads — a one-screen summary of the paper.
//!
//! ```sh
//! cargo run --release --example policy_comparison
//! ```

use cmp_hierarchies::adaptive::{run, PolicyConfig, RunReport, RunSpec, SystemConfig, UpdateScope};
use cmp_hierarchies::trace::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let refs = 8_000;
    println!(
        "{:<12} {:>12} {:>9} {:>9} {:>9}",
        "workload", "baseline cy", "wbht", "snarf", "combined"
    );
    for wl in Workload::all() {
        let mut reports: Vec<RunReport> = Vec::new();
        // §5.3: `combined` halves both tables to keep total area constant.
        for spec in ["baseline", "wbht", "snarf", "combined"] {
            let mut cfg = SystemConfig::scaled(8);
            cfg.max_outstanding = 6;
            cfg.policy = PolicyConfig::parse(spec, 4096, UpdateScope::Local, 1)?;
            reports.push(run(RunSpec::for_workload(cfg, wl, refs))?);
        }
        let base = &reports[0];
        println!(
            "{:<12} {:>12} {:>8.1}% {:>8.1}% {:>8.1}%",
            wl.name(),
            base.stats.cycles,
            reports[1].improvement_over(base),
            reports[2].improvement_over(base),
            reports[3].improvement_over(base),
        );
    }
    println!("\nPositive numbers are runtime improvements over the baseline.");
    println!("Note the paper's §5.3 observation: the combined gains are not");
    println!("additive — the two mechanisms divert the same write-backs.");
    Ok(())
}
