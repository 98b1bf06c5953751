//! Policy-matrix golden: the `cmpsim --json --audit` report of every
//! mechanism alone and of the compositions that exercise the stack's
//! ordering (a WBHT abort short-circuits rdcb; hybrid composes with the
//! castout filters) must stay byte-identical.
//!
//! Each spec runs the binary at `--scale 16 -n 2000 --seed 42` and is
//! compared against its line of `tests/golden/policy_matrix.jsonl`.
//! Regenerate intentionally with
//! `UPDATE_GOLDEN=1 cargo test --test policy_matrix` and inspect the
//! diff: drift means a policy decision, its order in the stack or the
//! audit lineage changed.

use std::process::Command;
use std::sync::Mutex;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/policy_matrix.jsonl"
);

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

fn check(spec: &str) {
    let idx = SPECS
        .iter()
        .position(|s| *s == spec)
        .expect("spec is listed in SPECS");
    let line = golden_line(spec);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let _guard = UPDATE.lock().unwrap_or_else(|e| e.into_inner());
        let mut lines: Vec<String> = std::fs::read_to_string(GOLDEN)
            .unwrap_or_default()
            .lines()
            .map(String::from)
            .collect();
        lines.resize(SPECS.len(), String::new());
        lines[idx] = line;
        std::fs::write(GOLDEN, lines.join("\n") + "\n").unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; regenerate with UPDATE_GOLDEN=1");
    let want = golden.lines().nth(idx).unwrap_or_default();
    assert_eq!(
        line, want,
        "{spec}: report drifted from tests/golden/policy_matrix.jsonl; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
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
