//! Cross-crate integration tests: whole-system behaviour, determinism,
//! protocol invariants, and policy effects.

use cmp_hierarchies::adaptive::{
    run, PolicyConfig, RunSpec, SnarfConfig, System, SystemConfig, SystemError, UpdateScope,
    WbhtConfig,
};
use cmp_hierarchies::trace::Workload;

/// A scale-16 system; `SystemConfig::scaled` also shrinks the
/// retry-switch window, since runs at 1/16 capacity are far shorter than
/// a paper-scale 1M-cycle observation window.
fn cfg_with(policy: PolicyConfig, pressure: u32) -> SystemConfig {
    let mut c = SystemConfig::scaled(16);
    c.policy = policy;
    c.max_outstanding = pressure;
    c
}

fn wbht(entries: u64) -> PolicyConfig {
    PolicyConfig::wbht(WbhtConfig {
        entries,
        ..Default::default()
    })
}

fn snarf(entries: u64) -> PolicyConfig {
    PolicyConfig::snarf(SnarfConfig {
        entries,
        ..Default::default()
    })
}

#[test]
fn simulation_is_deterministic() {
    for policy in [PolicyConfig::baseline(), wbht(1024), snarf(1024)] {
        let spec = RunSpec::for_workload(cfg_with(policy, 6), Workload::Trade2, 3_000);
        let a = run(spec.clone()).unwrap();
        let b = run(spec).unwrap();
        assert_eq!(a.stats.cycles, b.stats.cycles, "policy {}", a.policy);
        assert_eq!(a.stats.refs, b.stats.refs);
        assert_eq!(a.stats.wb.requests(), b.stats.wb.requests());
        assert_eq!(a.stats.retries_total, b.stats.retries_total);
    }
}

#[test]
fn all_references_are_processed() {
    let refs = 2_500u64;
    for wl in Workload::all() {
        let r = run(RunSpec::for_workload(
            cfg_with(PolicyConfig::baseline(), 4),
            wl,
            refs,
        ))
        .unwrap();
        assert_eq!(r.stats.refs, refs * 16, "{wl}: refs processed");
        assert_eq!(
            r.stats.loads + r.stats.stores,
            r.stats.refs,
            "{wl}: load/store split"
        );
        assert!(r.stats.cycles > 0);
    }
}

#[test]
fn coherence_invariants_hold_for_every_policy() {
    for policy in [
        PolicyConfig::baseline(),
        wbht(1024),
        snarf(1024),
        PolicyConfig::combined(
            WbhtConfig {
                entries: 512,
                ..Default::default()
            },
            SnarfConfig {
                entries: 512,
                ..Default::default()
            },
        ),
    ] {
        for wl in [Workload::Tp, Workload::Trade2] {
            let cfg = cfg_with(policy, 6);
            let params = wl.params(cfg.num_threads(), cfg.cache_scale());
            let mut sys = System::new(cfg, params).unwrap();
            sys.run(3_000);
            sys.assert_invariants(); // panics with a description on violation
        }
    }
}

#[test]
fn wbht_reduces_writeback_requests_under_pressure() {
    let base = run(RunSpec::for_workload(
        cfg_with(PolicyConfig::baseline(), 6),
        Workload::Trade2,
        6_000,
    ))
    .unwrap();
    let with = run(RunSpec::for_workload(
        cfg_with(wbht(2048), 6),
        Workload::Trade2,
        6_000,
    ))
    .unwrap();
    assert!(
        with.stats.wb.clean_aborted > 0,
        "WBHT must abort some clean write-backs"
    );
    assert!(
        with.stats.wb.requests() < base.stats.wb.requests(),
        "WBHT must reduce bus write-back requests ({} vs {})",
        with.stats.wb.requests(),
        base.stats.wb.requests()
    );
    // Decisions are scored by the L3-peek oracle.
    assert!(with.wbht.decisions > 0);
    assert!(with.wbht.correct_rate() > 0.3, "oracle-correct rate sanity");
}

#[test]
fn retry_switch_disengages_at_low_pressure() {
    // At one outstanding load per thread the bus is quiet: the switch
    // must keep the WBHT from making decisions (Figure 2's flat left
    // edge).
    let low = run(RunSpec::for_workload(
        cfg_with(wbht(2048), 1),
        Workload::NotesBench,
        4_000,
    ))
    .unwrap();
    assert_eq!(
        low.stats.wb.clean_aborted, 0,
        "no aborts expected at 1 outstanding load"
    );
}

#[test]
fn snarf_absorbs_and_squashes() {
    let r = run(RunSpec::for_workload(
        cfg_with(snarf(2048), 6),
        Workload::Tp,
        6_000,
    ))
    .unwrap();
    assert!(r.stats.snarf.snarfed > 0, "some castouts must be snarfed");
    assert!(
        r.stats.wb.squashed_peer > 0,
        "peer copies must squash some castouts"
    );
    // Reuse bookkeeping is consistent.
    assert!(r.stats.snarf.used_locally <= r.stats.snarf.snarfed);
    assert!(r.stats.snarf.used_for_intervention <= r.stats.snarf.snarfed);
}

#[test]
fn castout_outcomes_are_conserved() {
    for wl in Workload::all() {
        let r = run(RunSpec::for_workload(cfg_with(snarf(2048), 6), wl, 4_000)).unwrap();
        let outcomes = r.stats.wb.clean_squashed_l3
            + r.stats.wb.squashed_peer
            + r.stats.wb.snarfed
            + r.stats.wb.accepted_l3;
        // Every issued castout resolves exactly once; a handful may be
        // claimed by RFOs or still in flight at the end of the run.
        assert!(
            outcomes <= r.stats.wb.requests(),
            "{wl}: outcomes {outcomes} exceed requests {}",
            r.stats.wb.requests()
        );
        let unresolved = r.stats.wb.requests() - outcomes;
        assert!(
            (unresolved as f64) < 0.05 * r.stats.wb.requests().max(1) as f64 + 64.0,
            "{wl}: too many unresolved castouts: {unresolved} of {}",
            r.stats.wb.requests()
        );
    }
}

#[test]
fn global_scope_allocates_more_wbht_entries() {
    let local_cfg = cfg_with(
        PolicyConfig::wbht(WbhtConfig {
            entries: 2048,
            assoc: 16,
            scope: UpdateScope::Local,
            granularity: 1,
        }),
        6,
    );
    let global_cfg = cfg_with(
        PolicyConfig::wbht(WbhtConfig {
            entries: 2048,
            assoc: 16,
            scope: UpdateScope::Global,
            granularity: 1,
        }),
        6,
    );
    let local = run(RunSpec::for_workload(local_cfg, Workload::Trade2, 5_000)).unwrap();
    let global = run(RunSpec::for_workload(global_cfg, Workload::Trade2, 5_000)).unwrap();
    // Global updates allocate in all four tables per redundant WB.
    assert!(
        global.wbht.allocated > local.wbht.allocated,
        "global allocations ({}) must exceed local ({})",
        global.wbht.allocated,
        local.wbht.allocated
    );
}

#[test]
fn history_aware_replacement_runs_and_differs() {
    let mut plain = cfg_with(wbht(2048), 6);
    plain.history_aware_replacement = false;
    let mut aware = plain.clone();
    aware.history_aware_replacement = true;
    let a = run(RunSpec::for_workload(plain, Workload::Trade2, 4_000)).unwrap();
    let b = run(RunSpec::for_workload(aware, Workload::Trade2, 4_000)).unwrap();
    assert!(a.stats.cycles > 0 && b.stats.cycles > 0);
    // The two victim policies must actually diverge on this workload.
    assert_ne!(a.stats.cycles, b.stats.cycles);
}

#[test]
fn wbht_granularity_trades_coverage_for_errors() {
    let mk = |granularity| {
        let mut c = cfg_with(
            PolicyConfig::wbht(WbhtConfig {
                entries: 512,
                assoc: 16,
                scope: UpdateScope::Local,
                granularity,
            }),
            6,
        );
        c.seed = 7;
        c
    };
    let fine = run(RunSpec::for_workload(mk(1), Workload::Trade2, 5_000)).unwrap();
    let coarse = run(RunSpec::for_workload(mk(8), Workload::Trade2, 5_000)).unwrap();
    // Coarse entries cover 8x the lines: with a tiny table they must
    // abort at least as many write-backs...
    assert!(
        coarse.stats.wb.clean_aborted > fine.stats.wb.clean_aborted,
        "coarse {} vs fine {}",
        coarse.stats.wb.clean_aborted,
        fine.stats.wb.clean_aborted
    );
    // Accuracy stays in a sane band. (The paper predicted coarse
    // entries would raise the error rate; on spatially dense working
    // sets the opposite holds — see `exp ext-granularity` — so the test
    // pins only the mechanism, not the sign.)
    assert!((0.2..=1.0).contains(&coarse.wbht.correct_rate()));
}

#[test]
fn private_l3_organization_is_coherent() {
    let mut cfg = cfg_with(PolicyConfig::baseline(), 6);
    cfg.l3_organization = cmp_hierarchies::adaptive::L3Organization::PrivatePerL2;
    let params = Workload::Tp.params(cfg.num_threads(), cfg.cache_scale());
    let mut sys = System::new(cfg, params).unwrap();
    let stats = sys.run(3_000);
    assert_eq!(stats.refs, 3_000 * 16);
    // Castouts resolve against the private L3s.
    assert!(stats.wb.accepted_l3 + stats.wb.clean_squashed_l3 > 0);
    assert_eq!(stats.wb.snarfed, 0, "no snarfing without the shared ring");
    let l3 = sys.l3_stats();
    assert!(l3.castouts_accepted > 0);
    sys.assert_invariants();
}

#[test]
fn l1_can_be_disabled() {
    let mut cfg = cfg_with(PolicyConfig::baseline(), 4);
    cfg.l1 = None;
    let r = run(RunSpec::for_workload(cfg, Workload::Cpw2, 2_000)).unwrap();
    assert_eq!(r.stats.l1_hits, 0);
    assert!(r.stats.cycles > 0);
}

#[test]
fn core_count_disagreeing_with_the_l2s_is_rejected() {
    // Seven cores on three L2s: the frontend would index a fourth L2
    // for the last core pair, so construction must fail, not the run.
    let mut cfg = SystemConfig::scaled(16);
    cfg.cores = 7;
    cfg.num_l2 = 3;
    let wl = Workload::Trade2.params(cfg.num_threads(), cfg.cache_scale());
    match System::new(cfg, wl) {
        Err(SystemError::Cores(e)) => assert_eq!((e.cores, e.num_l2), (7, 3)),
        Err(e) => panic!("expected a core-count error, got {e}"),
        Ok(_) => panic!("seven cores on three L2s must be rejected"),
    }
}

#[test]
fn pressure_increases_runtime_density() {
    // More outstanding misses per thread = more memory-level parallelism
    // = fewer cycles for the same reference stream.
    let refs = 4_000;
    let r1 = run(RunSpec::for_workload(
        cfg_with(PolicyConfig::baseline(), 1),
        Workload::Cpw2,
        refs,
    ))
    .unwrap();
    let r6 = run(RunSpec::for_workload(
        cfg_with(PolicyConfig::baseline(), 6),
        Workload::Cpw2,
        refs,
    ))
    .unwrap();
    assert!(
        r6.stats.cycles < r1.stats.cycles,
        "6 outstanding ({}) should beat 1 outstanding ({})",
        r6.stats.cycles,
        r1.stats.cycles
    );
}

#[test]
fn table1_band_clean_redundancy() {
    // Table 1: the fraction of clean write-backs already valid in the
    // L3 is substantial for every workload ("can be greater than 50%").
    for wl in Workload::all() {
        let r = run(RunSpec::for_workload(
            cfg_with(PolicyConfig::baseline(), 6),
            wl,
            8_000,
        ))
        .unwrap();
        let rate = r.stats.wb.clean_redundant_rate();
        assert!(
            (0.15..0.95).contains(&rate),
            "{wl}: clean redundancy {rate:.2} implausible"
        );
    }
}

#[test]
fn combined_policy_exercises_both_tables() {
    let r = run(RunSpec::for_workload(
        cfg_with(PolicyConfig::combined_paper(), 6),
        Workload::Tp,
        6_000,
    ))
    .unwrap();
    assert!(r.stats.wb.clean_aborted > 0, "WBHT side active");
    assert!(
        r.stats.wb.snarfed + r.stats.wb.squashed_peer > 0,
        "snarf side active"
    );
    assert!(r.snarf_table.is_some());
}
