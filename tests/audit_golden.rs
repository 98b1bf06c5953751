//! Regression gate for the policy stack: the audit metrics of a pinned
//! combined-policy run must stay byte-identical to the golden, which was
//! first captured when the mechanisms were still fields of `System` and
//! has held through every rework of the dispatch since.
//!
//! Regenerate intentionally with `UPDATE_GOLDEN=1 cargo test --test
//! audit_golden` and inspect the diff — drift here means the policy
//! stack changed a decision, an outcome resolution, or the audit hook
//! ordering.

use cmp_hierarchies::adaptive::{
    run, PolicyConfig, RunSpec, SnarfConfig, SystemConfig, UpdateScope, WbhtConfig,
};
use cmp_hierarchies::trace::Workload;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/audit_metrics.txt"
);

/// The exact configuration the golden was pinned with (matches
/// `cmpsim --policy combined --scale 16 --refs 2000 --audit`).
fn audited_spec() -> RunSpec {
    let mut cfg = SystemConfig::scaled(16);
    cfg.max_outstanding = 6;
    cfg.policy = PolicyConfig::combined(
        WbhtConfig {
            entries: 1024,
            assoc: 16,
            scope: UpdateScope::Local,
            granularity: 1,
        },
        SnarfConfig {
            entries: 1024,
            ..Default::default()
        },
    );
    let mut spec = RunSpec::for_workload(cfg, Workload::Trade2, 2_000);
    spec.audit = true;
    spec
}

fn audit_rows() -> String {
    let report = run(audited_spec()).unwrap();
    report
        .metrics()
        .flat_rows()
        .into_iter()
        .filter(|(name, _)| name.starts_with("audit_"))
        .map(|(name, value)| format!("{name}={value:?}\n"))
        .collect()
}

#[test]
fn audit_metrics_match_pinned_hardwired_golden() {
    let rows = audit_rows();
    assert!(
        rows.lines().count() > 30,
        "audit section unexpectedly small:\n{rows}"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN, &rows).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("tests/golden/audit_metrics.txt (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        rows, golden,
        "audit metrics drifted from the hard-wired-build golden"
    );
}
