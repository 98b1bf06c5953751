//! Property-based tests for the simulation engine invariants.

use cmpsim_engine::{Channel, EventQueue, FifoServer, SlotPool, SplitMix64};
use proptest::prelude::*;

proptest! {
    /// Events always pop in non-decreasing time order, regardless of push
    /// order, and same-time events preserve push order.
    #[test]
    fn event_queue_ordering(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut prev_time = 0u64;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut last_time = None;
        while let Some((t, idx)) = q.pop() {
            prop_assert!(t >= prev_time);
            if last_time == Some(t) {
                // FIFO within equal timestamps: indices increase.
                prop_assert!(*seen_at_time.last().unwrap() < idx);
            } else {
                seen_at_time.clear();
            }
            seen_at_time.push(idx);
            last_time = Some(t);
            prev_time = t;
        }
    }

    /// A FIFO server never completes a request before `now + service`,
    /// completions are non-decreasing when arrivals are non-decreasing,
    /// and every completion is exactly arrival + queue wait + service
    /// (the identity the span tracer's queue/service split rests on).
    #[test]
    fn fifo_server_monotone(arrivals in proptest::collection::vec(0u64..10_000, 1..100),
                            service in 1u64..50) {
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        let mut s = FifoServer::new(service);
        let mut prev_done = 0;
        for &a in &sorted {
            let (wait, done) = s.reserve(a);
            prop_assert_eq!(done, a + wait + service);
            prop_assert!(done >= a + service);
            prop_assert!(done >= prev_done);
            prev_done = done;
        }
        prop_assert_eq!(s.served(), sorted.len() as u64);
        prop_assert_eq!(s.busy_cycles(), service * sorted.len() as u64);
    }

    /// A k-lane channel is never slower than a 1-lane server and never
    /// faster than the contention-free latency; each completion is
    /// exactly arrival + queue wait + occupancy.
    #[test]
    fn channel_bounded_by_server(arrivals in proptest::collection::vec(0u64..5_000, 1..80),
                                 lanes in 1usize..8, occ in 1u64..20) {
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        let mut chan = Channel::new(lanes, occ);
        let mut serial = FifoServer::new(occ);
        for &a in &sorted {
            let (wait, c) = chan.reserve(a);
            let (_, s) = serial.reserve(a);
            prop_assert_eq!(c, a + wait + occ);
            prop_assert!(c >= a + occ, "faster than contention-free");
            prop_assert!(c <= s, "k-lane channel slower than serial server");
        }
    }

    /// A slot pool never holds more than `capacity` slots simultaneously,
    /// and each acquire succeeds exactly when a naive model (the release
    /// cycles of the slots held) has a slot free.
    #[test]
    fn slot_pool_capacity_respected(ops in proptest::collection::vec((0u64..1000, 1u64..100), 1..100),
                                    cap in 1usize..8) {
        let mut sorted = ops.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut p = SlotPool::new(cap);
        let mut held: Vec<u64> = Vec::new();
        for &(t, hold) in &sorted {
            held.retain(|&release| release > t);
            let free = held.len() < cap;
            if free {
                held.push(t + hold);
            }
            prop_assert_eq!(p.try_acquire(t, t + hold), free);
            prop_assert!(p.in_use(t) <= cap);
            prop_assert_eq!(p.in_use(t), held.len());
        }
    }

    /// SplitMix64 streams are reproducible and `gen_range` stays in bounds.
    #[test]
    fn rng_deterministic(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        for _ in 0..100 {
            let x = a.gen_range(bound);
            prop_assert_eq!(x, b.gen_range(bound));
            prop_assert!(x < bound);
        }
    }
}
