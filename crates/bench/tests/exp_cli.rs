//! Command-line contract of the `exp` experiment runner.

use std::process::{Command, Output};

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .env("CMPSIM_PROFILE", "smoke")
        .output()
        .expect("exp runs")
}

/// Asserts a run exited 2 with the usage line and the registered ids.
fn assert_usage(args: &[&str]) {
    let out = exp(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    for id in ["fig2", "ext-granularity", "policy-faceoff"] {
        assert!(stderr.contains(id), "{args:?}: {id:?} not in {stderr:?}");
    }
}

#[test]
fn table3_prints_its_title() {
    // Table 3 is a configuration dump: no simulation runs.
    let out = exp(&["table3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("== Table 3: system parameters ==\n"),
        "{stdout}"
    );
}

#[test]
fn unknown_id_lists_the_ids() {
    assert_usage(&["nosuch"]);
}

#[test]
fn missing_id_lists_the_ids() {
    assert_usage(&[]);
    assert_usage(&["--jobs", "1"]);
}

#[test]
fn check_is_only_for_the_policy_faceoff() {
    assert_usage(&["table3", "--check"]);
    assert_usage(&["all", "--check"]);
}
