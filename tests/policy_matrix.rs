//! Policy-matrix golden: the `cmpsim --json --audit` report of every
//! mechanism alone and of the compositions that exercise the stack's
//! ordering (a WBHT abort short-circuits rdcb; hybrid composes with the
//! castout filters) must stay byte-identical.
//!
//! Each spec runs the binary at `--scale 16 -n 2000 --seed 42` and is
//! compared against its line of `tests/golden/policy_matrix.jsonl`.
//! The chip-private L3 organization (§7), which `cmpsim` has no flag
//! for, is pinned the same way through the library runner, with every
//! span traced, against `tests/golden/private_l3.jsonl`.
//! Regenerate intentionally with
//! `UPDATE_GOLDEN=1 cargo test --test policy_matrix` and inspect the
//! diff: drift means a policy decision, its order in the stack or the
//! audit lineage changed.

use std::process::Command;
use std::sync::Mutex;

use cmp_hierarchies::adaptive::{
    run, L3Organization, PolicyConfig, RunSpec, SystemConfig, UpdateScope,
};
use cmp_hierarchies::engine::spans::SpanTracer;
use cmp_hierarchies::trace::Workload;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/policy_matrix.jsonl"
);

const PRIVATE_GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/private_l3.jsonl");

/// Serializes golden rewrites: the tests run as threads of one process
/// and each replaces its own line of the shared file.
static UPDATE: Mutex<()> = Mutex::new(());

/// The golden line for `spec`: the spec, then the run's JSON report.
fn golden_line(spec: &str) -> String {
    let mut words = spec.split(' ');
    let policy = words.next().expect("spec names a policy");
    let out = Command::new(env!("CARGO_BIN_EXE_cmpsim"))
        .args(["--policy", policy])
        .args(words)
        .args(["--scale", "16", "-n", "2000", "--seed", "42"])
        .args(["--json", "--audit"])
        .output()
        .expect("cmpsim runs");
    assert!(
        out.status.success(),
        "{spec}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8(out.stdout).expect("UTF-8 report");
    format!("{{\"spec\":\"{spec}\",\"report\":{}}}", report.trim_end())
}

/// The golden line for `spec` on the chip-private L3 organization: a
/// Trade2 run at scale 16 with the audit on and every span traced, so
/// the `span_castout_*` histograms pin the private castout path's phase
/// marks.
fn private_golden_line(spec: &str) -> String {
    let mut cfg = SystemConfig::scaled(16);
    cfg.l3_organization = L3Organization::PrivatePerL2;
    cfg.policy = PolicyConfig::parse(
        spec,
        PolicyConfig::scaled_entries(16),
        UpdateScope::Local,
        1,
    )
    .expect("spec parses");
    cfg.max_outstanding = 6;
    cfg.seed = 42;
    let mut run_spec = RunSpec::for_workload(cfg, Workload::Trade2, 2_000);
    run_spec.audit = true;
    run_spec.span_tracer = SpanTracer::sampled(1);
    let report = run(run_spec).expect("private-L3 run");
    format!("{{\"spec\":\"{spec}\",\"report\":{}}}", report.to_json())
}

/// Compares `line` with the line of golden file `path` that `spec` has
/// in `specs` (or rewrites that line under `UPDATE_GOLDEN`).
fn compare(path: &str, specs: &[&str], spec: &str, line: String) {
    let idx = specs
        .iter()
        .position(|s| *s == spec)
        .expect("spec is listed with its golden file");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let _guard = UPDATE.lock().unwrap_or_else(|e| e.into_inner());
        let mut lines: Vec<String> = std::fs::read_to_string(path)
            .unwrap_or_default()
            .lines()
            .map(String::from)
            .collect();
        lines.resize(specs.len(), String::new());
        lines[idx] = line;
        std::fs::write(path, lines.join("\n") + "\n").unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing; regenerate with UPDATE_GOLDEN=1");
    let want = golden.lines().nth(idx).unwrap_or_default();
    assert_eq!(
        line, want,
        "{spec}: report drifted from {path}; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

fn check(spec: &str) {
    compare(GOLDEN, SPECS, spec, golden_line(spec));
}

fn check_private(spec: &str) {
    compare(
        PRIVATE_GOLDEN,
        PRIVATE_SPECS,
        spec,
        private_golden_line(spec),
    );
}

/// One `#[test]` per spec; `SPECS` lists them in golden-file line
/// order. A spec is the `--policy` value, then any extra flags.
macro_rules! golden_specs {
    ($($name:ident: $spec:literal,)*) => {
        const SPECS: &[&str] = &[$($spec),*];
        $(#[test] fn $name() { check($spec); })*
    };
}

golden_specs! {
    golden_baseline: "baseline",
    golden_wbht: "wbht",
    golden_snarf: "snarf",
    golden_combined: "combined",
    golden_rdcb: "rdcb",
    golden_hybrid: "hybrid",
    golden_wbht_rdcb: "wbht+rdcb",
    golden_wbht_hybrid: "wbht+hybrid",
    golden_snarf_rdcb_hybrid: "snarf+rdcb+hybrid",
    golden_wbht_snarf_rdcb_hybrid: "wbht+snarf+rdcb+hybrid",
    golden_combined_global_wbht: "combined --global-wbht",
}

/// The chip-private L3 goldens, in `private_l3.jsonl` line order.
const PRIVATE_SPECS: &[&str] = &["baseline", "wbht", "snarf", "combined"];

#[test]
fn golden_private_baseline() {
    check_private("baseline");
}

#[test]
fn golden_private_wbht() {
    check_private("wbht");
}

#[test]
fn golden_private_snarf() {
    check_private("snarf");
}

#[test]
fn golden_private_combined() {
    check_private("combined");
}
