//! Reproducibility guarantees: identical specs must replay
//! byte-identical reports, with the one stochastic knob (the workload
//! seed) explicit in the spec. Retry back-off jitter is a pure hash of
//! the transaction id and attempt, so it needs no seed of its own.

use cmp_hierarchies::adaptive::{
    run, HybridConfig, PolicyConfig, RdcbConfig, RunSpec, SnarfConfig, SystemConfig,
};
use cmp_hierarchies::trace::Workload;

fn spec_with_seed(workload_seed: u64) -> RunSpec {
    let mut cfg = SystemConfig::scaled(16);
    cfg.policy = PolicyConfig::snarf(SnarfConfig {
        entries: 512,
        ..Default::default()
    });
    cfg.max_outstanding = 6;
    cfg.seed = workload_seed;
    RunSpec::for_workload(cfg, Workload::Trade2, 1_500)
}

// Specs must be shippable to worker threads (the parallel grid driver
// relies on it).
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<RunSpec>();
};

#[test]
fn identical_specs_replay_byte_identical_reports() {
    let a = run(spec_with_seed(0xBEEF)).unwrap();
    let b = run(spec_with_seed(0xBEEF)).unwrap();
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.to_csv(), b.to_csv());
}

#[test]
fn workload_seed_is_a_real_knob() {
    let a = run(spec_with_seed(1)).unwrap();
    let b = run(spec_with_seed(2)).unwrap();
    assert_ne!(
        a.to_json(),
        b.to_json(),
        "different workload seeds must explore different streams"
    );
}

fn spec_with_policy(policy: PolicyConfig) -> RunSpec {
    let mut cfg = SystemConfig::scaled(16);
    cfg.policy = policy;
    cfg.max_outstanding = 6;
    cfg.seed = 0xBEEF;
    RunSpec::for_workload(cfg, Workload::Trade2, 1_500)
}

#[test]
fn rdcb_policy_replays_byte_identical_reports() {
    let policy = || {
        PolicyConfig::rdcb(RdcbConfig {
            entries: 512,
            ..Default::default()
        })
    };
    let a = run(spec_with_policy(policy())).unwrap();
    let b = run(spec_with_policy(policy())).unwrap();
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.to_csv(), b.to_csv());
    assert!(a.rdcb.is_some(), "rdcb section must be populated");
}

#[test]
fn hybrid_policy_replays_byte_identical_reports() {
    let policy = || {
        PolicyConfig::hybrid(HybridConfig {
            entries: 512,
            ..Default::default()
        })
    };
    let a = run(spec_with_policy(policy())).unwrap();
    let b = run(spec_with_policy(policy())).unwrap();
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.to_csv(), b.to_csv());
    assert!(a.hybrid.is_some(), "hybrid section must be populated");
}
