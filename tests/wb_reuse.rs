//! Write-back reuse golden: the four Table 2 counters (`wb_reuse`),
//! pinned per workload and policy.
//!
//! The counters reach the paper's Table 2 only as percentages (`exp
//! table2`) and no `--json` field carries them, so no other golden
//! covers the write-back reuse tracker. Each cell runs the library
//! runner at scale 16 and the default seed; the last cell runs Trade2
//! long enough that the tracker's line set ends with over 14,000
//! entries, a dozen table resizes from empty.
//!
//! Regenerate intentionally with
//! `UPDATE_GOLDEN=1 cargo test --test wb_reuse` and inspect the diff.

use cmp_hierarchies::adaptive::{run, PolicyConfig, RunSpec, SystemConfig, UpdateScope};
use cmp_hierarchies::trace::Workload;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/wb_reuse.txt");

const SCALE: u64 = 16;
/// Per-thread references of the workload × policy cells.
const REFS: u64 = 1_000;
/// Per-thread references of the one long cell.
const LONG_REFS: u64 = 12_000;

/// One golden line: the cell and its four `wb_reuse` counters.
fn cell(workload: Workload, policy: &str, refs: u64) -> String {
    let mut cfg = SystemConfig::scaled(SCALE);
    cfg.policy = PolicyConfig::parse(
        policy,
        PolicyConfig::scaled_entries(SCALE),
        UpdateScope::Local,
        1,
    )
    .expect("policy parses");
    cfg.max_outstanding = 6;
    let r = run(RunSpec::for_workload(cfg, workload, refs))
        .expect("run completes")
        .stats
        .wb_reuse;
    format!(
        "{workload} {policy} scale {SCALE} refs {refs}: total {} accepted {} \
         reused_total {} reused_accepted {}\n",
        r.total, r.accepted, r.reused_total, r.reused_accepted
    )
}

#[test]
fn golden_wb_reuse_counters() {
    // The long cell runs beside the others: a debug build is slow.
    let produced = std::thread::scope(|s| {
        let long = s.spawn(|| cell(Workload::Trade2, "wbht", LONG_REFS));
        let mut out = String::new();
        for workload in Workload::all() {
            for policy in ["baseline", "wbht", "snarf", "combined"] {
                out.push_str(&cell(workload, policy, REFS));
            }
        }
        out + &long.join().expect("long cell completes")
    });
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &produced).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("tests/golden/wb_reuse.txt (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        produced, golden,
        "wb_reuse counters drifted from the golden; if intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}
