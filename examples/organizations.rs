//! Architecture-organization playground: the paper's shared L3 victim
//! cache versus the §7 future-work organization of POWER5-style private
//! L3s.
//!
//! ```sh
//! cargo run --release --example organizations
//! ```

use cmp_hierarchies::adaptive::{run, L3Organization, RunSpec, SystemConfig};
use cmp_hierarchies::trace::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let refs = 8_000;
    println!(
        "{:<12} {:>14} {:>14}",
        "workload", "shared L3", "private L3s"
    );
    for wl in Workload::all() {
        let mut shared = SystemConfig::scaled(8);
        shared.max_outstanding = 6;

        let mut private = shared.clone();
        private.l3_organization = L3Organization::PrivatePerL2;

        let a = run(RunSpec::for_workload(shared, wl, refs))?;
        let b = run(RunSpec::for_workload(private, wl, refs))?;
        println!(
            "{:<12} {:>11} cy {:>8} ({:+.1}%)",
            wl.name(),
            a.stats.cycles,
            b.stats.cycles,
            b.improvement_over(&a),
        );
    }
    println!("\nPrivate L3s trade capacity sharing for a castout path that");
    println!("never touches the snooped ring.");
    Ok(())
}
