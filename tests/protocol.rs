//! Directed coherence-protocol scenarios.
//!
//! Each test choreographs exact per-thread reference sequences through a
//! [`TracePlayback`] source and asserts the resulting coherence states —
//! the MESI+SL/T transitions of DESIGN.md, exercised end-to-end through
//! the bus, the Snoop Collector, and the L3.
//!
//! Thread → L2 mapping: threads 0–3 → L2#0, 4–7 → L2#1, 8–11 → L2#2,
//! 12–15 → L2#3.

use cmp_hierarchies::adaptive::{PolicyConfig, System, SystemConfig};
use cmp_hierarchies::cache::Addr;
use cmp_hierarchies::coherence::L2State;
use cmp_hierarchies::trace::{MemOp, ThreadId, TracePlayback, TraceRecord};

/// A per-thread scenario builder: scripted references per thread, padded
/// with idle spins on private lines so threads stay busy without
/// touching shared state.
struct Scenario {
    records: Vec<TraceRecord>,
    refs_per_thread: u64,
}

impl Scenario {
    fn new(refs_per_thread: u64) -> Self {
        Scenario {
            records: Vec::new(),
            refs_per_thread,
        }
    }

    /// Appends `n` idle references for `thread` (to its private line,
    /// which stays L1/L2-resident and generates no bus traffic after
    /// the first touch).
    fn idle(&mut self, thread: u16, n: u64) -> &mut Self {
        // Unique private line per thread, far from scenario lines.
        let line = 0x4000_0000 + thread as u64;
        for _ in 0..n {
            self.records.push(TraceRecord::new(
                ThreadId::new(thread),
                MemOp::Load,
                Addr::new(line * 128),
            ));
        }
        self
    }

    fn load(&mut self, thread: u16, line: u64) -> &mut Self {
        self.records.push(TraceRecord::new(
            ThreadId::new(thread),
            MemOp::Load,
            Addr::new(line * 128),
        ));
        self
    }

    fn store(&mut self, thread: u16, line: u64) -> &mut Self {
        self.records.push(TraceRecord::new(
            ThreadId::new(thread),
            MemOp::Store,
            Addr::new(line * 128),
        ));
        self
    }

    /// Builds the system and runs the scenario to completion.
    fn run(&mut self, policy: PolicyConfig) -> System {
        // Pad every thread to exactly `refs_per_thread` records.
        let mut counts = [0u64; 16];
        for r in &self.records {
            counts[r.thread.index()] += 1;
        }
        for t in 0..16u16 {
            let missing = self.refs_per_thread.saturating_sub(counts[t as usize]);
            self.idle(t, missing);
        }
        let mut cfg = SystemConfig::scaled(16);
        cfg.policy = policy;
        cfg.max_outstanding = 1; // strictly ordered per-thread execution
        let playback = TracePlayback::new("scenario", self.records.clone(), 16, 1).unwrap();
        let mut sys = System::with_source(cfg, Box::new(playback)).unwrap();
        sys.run(self.refs_per_thread);
        sys.assert_invariants();
        sys
    }
}

fn line_addr(line: u64) -> cmp_hierarchies::cache::LineAddr {
    Addr::new(line * 128).line(128)
}

const X: u64 = 0x1000; // scenario line

#[test]
fn cold_load_installs_exclusive() {
    let mut s = Scenario::new(50);
    s.load(0, X);
    let sys = s.run(PolicyConfig::baseline());
    assert_eq!(sys.l2_state(0, line_addr(X)), Some(L2State::Exclusive));
    for l2 in 1..4 {
        assert_eq!(sys.l2_state(l2, line_addr(X)), None);
    }
}

#[test]
fn store_after_load_upgrades_silently_from_e() {
    let mut s = Scenario::new(50);
    s.load(0, X).store(0, X);
    let sys = s.run(PolicyConfig::baseline());
    // E -> M on store hit, no bus transaction needed.
    assert_eq!(sys.l2_state(0, line_addr(X)), Some(L2State::Modified));
    assert_eq!(sys.stats().upgrades, 0);
}

#[test]
fn cold_store_installs_modified() {
    let mut s = Scenario::new(50);
    s.store(4, X);
    let sys = s.run(PolicyConfig::baseline());
    assert_eq!(sys.l2_state(1, line_addr(X)), Some(L2State::Modified));
}

#[test]
fn read_of_modified_line_creates_tagged_owner() {
    let mut s = Scenario::new(400);
    // Thread 0 (L2#0) dirties X early; thread 4 (L2#1) reads it much
    // later (idle padding orders the accesses on the virtual clock).
    s.store(0, X);
    s.idle(4, 300).load(4, X);
    let sys = s.run(PolicyConfig::baseline());
    // Dirty intervention: provider keeps ownership as T, reader gets S.
    assert_eq!(sys.l2_state(0, line_addr(X)), Some(L2State::Tagged));
    assert_eq!(sys.l2_state(1, line_addr(X)), Some(L2State::Shared));
    assert!(sys.stats().fills_from_l2 >= 1);
}

#[test]
fn clean_intervention_hands_over_shared_last() {
    let mut s = Scenario::new(400);
    s.load(0, X); // E at L2#0
    s.idle(4, 300).load(4, X); // clean intervention
    let sys = s.run(PolicyConfig::baseline());
    // Provider E -> S; requester receives SL (the intervention token).
    assert_eq!(sys.l2_state(0, line_addr(X)), Some(L2State::Shared));
    assert_eq!(sys.l2_state(1, line_addr(X)), Some(L2State::SharedLast));
}

#[test]
fn rfo_invalidates_every_peer_copy() {
    let mut s = Scenario::new(700);
    s.load(0, X);
    s.idle(4, 200).load(4, X);
    s.idle(8, 400).store(8, X); // RFO from L2#2
    let sys = s.run(PolicyConfig::baseline());
    assert_eq!(sys.l2_state(2, line_addr(X)), Some(L2State::Modified));
    assert_eq!(sys.l2_state(0, line_addr(X)), None);
    assert_eq!(sys.l2_state(1, line_addr(X)), None);
}

#[test]
fn store_on_shared_copy_issues_upgrade() {
    let mut s = Scenario::new(700);
    s.load(0, X);
    s.idle(4, 200).load(4, X); // now S at L2#0, SL at L2#1
    s.idle(0, 450).store(0, X); // store on the S copy -> upgrade
    let sys = s.run(PolicyConfig::baseline());
    assert_eq!(sys.l2_state(0, line_addr(X)), Some(L2State::Modified));
    assert_eq!(sys.l2_state(1, line_addr(X)), None);
    assert!(sys.stats().upgrades >= 1, "expected an upgrade transaction");
}

#[test]
fn capacity_eviction_casts_out_and_l3_serves_refetch() {
    // Fill one L2 set past associativity: set stride at scale 16 is
    // 4 slices x 32 sets = 128 lines.
    let stride = 128u64;
    let mut s = Scenario::new(600);
    s.store(0, X);
    for k in 1..=8 {
        s.load(0, X + k * stride); // 8 conflicting fills evict X (dirty)
    }
    s.idle(0, 400);
    s.load(0, X); // refetch after the castout resolved
    let sys = s.run(PolicyConfig::baseline());
    let stats = sys.stats();
    assert!(
        stats.wb.dirty_requests >= 1,
        "dirty castout must reach the bus"
    );
    assert!(
        sys.l3().peek(line_addr(X)) || sys.l2_state(0, line_addr(X)).is_some(),
        "the dirty line must survive somewhere"
    );
    // The refetch found it (L3 hit or write-back-queue recovery).
    assert!(sys.l2_state(0, line_addr(X)).is_some());
}

#[test]
fn second_clean_castout_is_squashed_as_redundant() {
    let stride = 128u64;
    let mut s = Scenario::new(2000);
    // Two rounds: fetch X, evict it clean, refetch (hits L3), evict
    // again -> the second clean castout finds the line already in L3.
    s.load(0, X);
    for k in 1..=8 {
        s.load(0, X + k * stride);
    }
    s.idle(0, 500);
    s.load(0, X);
    for k in 9..=16 {
        s.load(0, X + k * stride);
    }
    let sys = s.run(PolicyConfig::baseline());
    assert!(
        sys.stats().wb.clean_squashed_l3 >= 1,
        "second castout of a clean L3-resident line must be squashed (got {:?})",
        sys.stats().wb
    );
}

#[test]
fn private_l3_keeps_castouts_out_of_the_ring() {
    let stride = 128u64;
    let mut s = Scenario::new(600);
    s.store(0, X);
    for k in 1..=8 {
        s.load(0, X + k * stride);
    }
    let mut cfg = SystemConfig::scaled(16);
    cfg.policy = PolicyConfig::baseline();
    cfg.l3_organization = cmp_hierarchies::adaptive::L3Organization::PrivatePerL2;
    cfg.max_outstanding = 1;
    // Pad threads.
    let mut counts = [0u64; 16];
    for r in &s.records {
        counts[r.thread.index()] += 1;
    }
    for t in 0..16u16 {
        let missing = 600u64.saturating_sub(counts[t as usize]);
        s.idle(t, missing);
    }
    let playback = TracePlayback::new("scenario", s.records.clone(), 16, 1).unwrap();
    let mut sys = System::with_source(cfg, Box::new(playback)).unwrap();
    sys.run(600);
    let stats = sys.stats();
    assert!(stats.wb.dirty_requests >= 1);
    assert!(
        stats.wb.accepted_l3 >= 1,
        "private L3 must absorb the castout"
    );
    sys.assert_invariants();
}
