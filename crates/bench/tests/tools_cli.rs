//! Command-line contract of the `report` tool: every subcommand scans
//! its flags the same way (malformed arguments exit 2 with the usage,
//! I/O and run failures exit 1), `report spans` accepts every policy
//! spec `cmpsim` does, `report trace` rejects bad input with an exit code
//! instead of a panic or a silent default, and `report events` counts
//! every event kind the simulator emits.

use std::path::PathBuf;
use std::process::Output;

use cmp_adaptive_wb::{run, PolicyConfig, RunSpec, SystemConfig, UpdateScope};
use cmpsim_engine::telemetry::{JsonlSink, Telemetry};
use cmpsim_trace::Workload;

const SUBCOMMANDS: [&str; 6] = ["events", "spans", "profile", "tail", "audit", "trace"];

fn report(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("report runs")
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Asserts `report args` exited 2 with `needle` on stderr.
fn assert_usage(args: &[&str], needle: &str) {
    let out = report(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(needle),
        "{args:?}: {needle:?} not in {stderr}"
    );
}

#[test]
fn missing_or_unknown_subcommand_lists_all_six() {
    for args in [&[][..], &["bogus"], &["--jobs", "2"]] {
        for sub in SUBCOMMANDS {
            assert_usage(args, &format!("  {sub} "));
        }
    }
}

#[test]
fn every_subcommand_prints_its_usage_on_help() {
    for sub in SUBCOMMANDS {
        let out = report(&[sub, "--help"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{sub}: {stdout}");
        assert!(stdout.contains(&format!("usage: report {sub}")), "{stdout}");
    }
}

#[test]
fn malformed_arguments_exit_2_in_every_subcommand() {
    for args in [
        &["events"][..],
        &["events", "a.jsonl", "b.jsonl"],
        &["spans", "--refs", "many"],
        &["spans", "-w", "bogus"],
        &["spans", "-p", "wbht+lru"],
        &["spans", "--top"],
        &["spans", "--scale", "3"],
        &["spans", "--scale", "0"],
        &["spans", "--sample", "0"],
        &["profile", "--stride=0"],
        &["profile", "--check=yes"],
        &["tail", "--refresh", "0", "-"],
        &["tail"],
        &["audit", "--pressure", "65"],
        &["trace", "--jobs", "2"],
    ] {
        assert_usage(args, &format!("usage: report {}", args[0]));
    }
}

#[test]
fn events_missing_trace_exits_1_naming_the_path() {
    let path = tmp("no_such_trace.jsonl");
    let path = path.to_str().unwrap();
    let out = report(&["events", path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(path), "{stderr}");
}

#[test]
fn events_counts_the_hybrid_policys_coherence_updates() {
    let path = tmp("hybrid_events.jsonl");
    let mut cfg = SystemConfig::scaled(16);
    cfg.policy = PolicyConfig::parse(
        "hybrid",
        PolicyConfig::scaled_entries(16),
        UpdateScope::Local,
        1,
    )
    .unwrap();
    let mut spec = RunSpec::for_workload(cfg, Workload::Trade2, 2_000);
    spec.telemetry = Telemetry::new(JsonlSink::create(&path).unwrap());
    run(spec).unwrap();
    let out = report(&["events", path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains(" 0 unknown-kind)"), "{stdout}");
    assert!(
        stdout.lines().any(|l| l.starts_with("  coherence_update ")),
        "{stdout}"
    );
}

#[test]
fn spans_accepts_composed_policies() {
    let out = report(&["spans", "-p", "wbht+hybrid", "--scale", "16", "-n", "200"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("policy wbht+hybrid"), "{stdout}");
}

#[test]
fn trace_bad_arguments_print_usage() {
    for args in [&["bogus", "50"][..], &["trade2", "many"], &["--file"]] {
        let args: Vec<&str> = ["trace"].iter().chain(args).copied().collect();
        assert_usage(&args, "usage: report trace");
    }
}

#[test]
fn trace_unreadable_or_malformed_file_names_the_path() {
    let malformed = tmp("not_a_trace.trc");
    std::fs::write(&malformed, b"definitely not CMPTRC01").unwrap();
    for path in [tmp("no_such_trace.trc"), malformed] {
        let path = path.to_str().unwrap();
        let out = report(&["trace", "--file", path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(path), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
