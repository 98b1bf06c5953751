//! A deterministic event queue with stable same-time ordering.
//!
//! The implementation is a two-level calendar queue tuned for the
//! simulator's access pattern (pushes cluster within a few hundred
//! cycles of "now"): a ring of per-cycle FIFO buckets absorbs the near
//! future at O(1) push/pop, and a far-future overflow heap catches the
//! rare long-delay event. A unit test replays random schedules against
//! a plain `BinaryHeap` over `(time, push sequence)` to pin the pop
//! order.

use std::collections::VecDeque;

use crate::Cycle;

/// Number of per-cycle buckets in the near-future ring (power of two).
///
/// Events scheduled less than this many cycles past the ring's current
/// window base go straight into their cycle's bucket; later events park
/// in the overflow heap until the window advances over them. The
/// simulator's longest single hop (memory access + link transfer) is a
/// few hundred cycles, so 1024 keeps the overflow heap essentially
/// empty in practice.
const NUM_BUCKETS: usize = 1024;
const BUCKET_MASK: usize = NUM_BUCKETS - 1;

/// A priority queue of timestamped events.
///
/// Events pop in non-decreasing time order; events pushed at the same time
/// pop in push order (FIFO), which makes simulations fully deterministic
/// regardless of queue internals.
///
/// # Example
///
/// ```
/// use cmpsim_engine::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(5, "b");
/// q.push(3, "a");
/// q.push(5, "c");
/// assert_eq!(q.pop(), Some((3, "a")));
/// assert_eq!(q.pop(), Some((5, "b")));
/// assert_eq!(q.pop(), Some((5, "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Near-future ring: bucket `t & BUCKET_MASK` holds the events of
    /// cycle `t` for every `t` in `[horizon - NUM_BUCKETS, horizon)`.
    /// Within a bucket, `VecDeque` push/pop order *is* FIFO order, so no
    /// per-event sequence number is stored (or allocated) on this path.
    /// The timestamp is not stored either: inside the window a bucket
    /// maps to exactly one cycle, so the pop cursor *is* the event time.
    buckets: Vec<VecDeque<T>>,
    /// Events in the ring.
    ring_len: usize,
    /// Scan position: no ring event is earlier than this. Monotonic.
    cursor: Cycle,
    /// Exclusive upper bound of the ring window; overflow events are at
    /// or past it. Advances only when the ring drains (lazy rebase).
    horizon: Cycle,
    /// Far-future events, ordered by `(time, seq)` so same-time events
    /// migrate into the ring in push order.
    overflow: std::collections::BinaryHeap<std::cmp::Reverse<OverflowEntry<T>>>,
    /// Push tiebreaker for overflow entries only.
    seq: u64,
    len: usize,
    last_popped: Cycle,
    high_water: usize,
    popped: u64,
}

#[derive(Debug)]
struct OverflowEntry<T> {
    time: Cycle,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for OverflowEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for OverflowEntry<T> {}
impl<T> PartialOrd for OverflowEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for OverflowEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..NUM_BUCKETS).map(|_| VecDeque::new()).collect(),
            ring_len: 0,
            cursor: 0,
            horizon: NUM_BUCKETS as Cycle,
            overflow: std::collections::BinaryHeap::new(),
            seq: 0,
            len: 0,
            last_popped: 0,
            high_water: 0,
            popped: 0,
        }
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `time` is earlier than the last popped
    /// time: scheduling into the past would silently corrupt resource
    /// busy-until state. Release builds skip the check (the simulator's
    /// tests run with it on).
    #[inline]
    pub fn push(&mut self, time: Cycle, payload: T) {
        debug_assert!(
            time >= self.last_popped,
            "event scheduled in the past: {} < {}",
            time,
            self.last_popped
        );
        if time < self.horizon {
            self.buckets[(time as usize) & BUCKET_MASK].push_back(payload);
            self.ring_len += 1;
        } else {
            let seq = self.seq;
            self.seq += 1;
            self.overflow
                .push(std::cmp::Reverse(OverflowEntry { time, seq, payload }));
        }
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
    }

    /// Removes and returns the earliest event, or `None` when empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        if self.len == 0 {
            return None;
        }
        if self.ring_len == 0 {
            self.rebase();
        }
        // Scan forward from the cursor to the next occupied bucket. The
        // cursor is globally monotonic (rebases only jump it forward),
        // so the total scan work over a run is bounded by the total
        // virtual-time advance, not events × window.
        loop {
            let bucket = &mut self.buckets[(self.cursor as usize) & BUCKET_MASK];
            if let Some(payload) = bucket.pop_front() {
                let t = self.cursor;
                self.ring_len -= 1;
                self.len -= 1;
                self.last_popped = t;
                self.popped += 1;
                return Some((t, payload));
            }
            self.cursor += 1;
            debug_assert!(self.cursor < self.horizon, "ring events lost");
        }
    }

    /// Advances the ring window to the earliest overflow event and
    /// migrates every overflow event inside the new window into its
    /// bucket (in `(time, seq)` order, preserving same-time FIFO).
    #[cold]
    fn rebase(&mut self) {
        let t0 = self.overflow.peek().expect("len>0, ring empty").0.time;
        self.cursor = t0;
        self.horizon = t0 + NUM_BUCKETS as Cycle;
        while let Some(e) = self.overflow.peek() {
            if e.0.time >= self.horizon {
                break;
            }
            let std::cmp::Reverse(e) = self.overflow.pop().expect("peeked");
            self.buckets[(e.time as usize) & BUCKET_MASK].push_back(e.payload);
            self.ring_len += 1;
        }
    }

    /// Returns the time of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.len == 0 {
            return None;
        }
        if self.ring_len == 0 {
            return self.overflow.peek().map(|e| e.0.time);
        }
        (self.cursor..self.horizon).find(|&t| !self.buckets[(t as usize) & BUCKET_MASK].is_empty())
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The timestamp of the most recently popped event (0 before any pop).
    ///
    /// This is the queue's notion of "now"; pushes earlier than this are
    /// a bug (checked in debug builds).
    #[inline]
    pub fn now(&self) -> Cycle {
        self.last_popped
    }

    /// Peak number of pending events observed (occupancy gauge, sampled
    /// on every push).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Pending events in the near-future bucket ring (occupancy gauge
    /// for the host profiler; `len() - overflow_len()`).
    pub fn ring_len(&self) -> usize {
        self.ring_len
    }

    /// Pending events parked in the far-future overflow heap.
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Total events popped over the queue's lifetime (the denominator
    /// of the bench harness's events/sec figure).
    pub fn popped(&self) -> u64 {
        self.popped
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, 3);
        q.push(10, 1);
        q.push(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(4, "x");
        assert_eq!(q.peek_time(), Some(4));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn ring_and_overflow_occupancy_gauges() {
        let mut q = EventQueue::new();
        q.push(1, ()); // near future: bucket ring
        q.push(2, ());
        q.push(1_000_000, ()); // far future: overflow heap
        assert_eq!(q.ring_len(), 2);
        assert_eq!(q.overflow_len(), 1);
        assert_eq!(q.len(), q.ring_len() + q.overflow_len());
        q.pop();
        q.pop();
        // Popping across the horizon migrates the overflow event in.
        assert_eq!(q.pop(), Some((1_000_000, ())));
        assert_eq!(q.ring_len(), 0);
        assert_eq!(q.overflow_len(), 0);
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0);
        q.push(9, ());
        q.pop();
        assert_eq!(q.now(), 9);
    }

    // The check is a `debug_assert!`: release builds have no panic to pin.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn push_into_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(10, ());
        q.pop();
        q.push(5, ());
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        q.push(1, ());
        q.push(2, ());
        q.push(3, ());
        q.pop();
        q.pop();
        q.push(4, ());
        assert_eq!(q.high_water(), 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn push_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.push(10, 1);
        q.pop();
        q.push(10, 2);
        assert_eq!(q.pop(), Some((10, 2)));
    }

    #[test]
    fn far_future_events_cross_the_overflow() {
        let mut q = EventQueue::new();
        // Far past the ring window, interleaved with near events.
        q.push(1_000_000, "far-b");
        q.push(3, "near");
        q.push(1_000_000, "far-c");
        q.push(999_999, "far-a");
        assert_eq!(q.pop(), Some((3, "near")));
        // Rebase jumps the window to the overflow minimum.
        assert_eq!(q.peek_time(), Some(999_999));
        assert_eq!(q.pop(), Some((999_999, "far-a")));
        assert_eq!(q.pop(), Some((1_000_000, "far-b")));
        assert_eq!(q.pop(), Some((1_000_000, "far-c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_then_ring_push_at_same_time_keeps_fifo() {
        let mut q = EventQueue::new();
        let t = 5_000; // beyond the initial window: goes to overflow
        q.push(t, 0);
        q.push(1, 99);
        assert_eq!(q.pop(), Some((1, 99)));
        assert_eq!(q.pop(), Some((t, 0))); // rebases; window now covers t
        q.push(t, 1); // same cycle, now within the ring
        q.push(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
    }

    #[test]
    fn popped_counts_lifetime_pops() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(i, ());
        }
        while q.pop().is_some() {}
        q.push(10, ());
        q.pop();
        assert_eq!(q.popped(), 6);
    }

    /// Differential property test: random interleaved push/pop schedules
    /// must pop in identical order from the calendar queue and a binary
    /// heap over `(time, push sequence, payload)`, whose sequence number
    /// makes same-time pops FIFO. Seeded `SplitMix64` keeps it
    /// reproducible.
    #[test]
    fn differential_vs_binary_heap() {
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(0xD1FF ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut cal: EventQueue<u64> = EventQueue::new();
            let mut heap: BinaryHeap<Reverse<(Cycle, u64, u64)>> = BinaryHeap::new();
            let heap_pop = |heap: &mut BinaryHeap<Reverse<(Cycle, u64, u64)>>| {
                heap.pop().map(|Reverse((t, _, payload))| (t, payload))
            };
            let mut now: Cycle = 0;
            let mut seq: u64 = 0;
            for step in 0..20_000u64 {
                if rng.gen_range(100) < 60 || cal.is_empty() {
                    // Push: mostly near-future, occasionally far past the
                    // ring window to exercise overflow and rebase.
                    let delta = match rng.gen_range(20) {
                        0 => rng.gen_range(100_000),                       // far future
                        1..=4 => NUM_BUCKETS as u64 + rng.gen_range(4096), // straddle
                        _ => rng.gen_range(64),                            // near
                    };
                    // Bursts of same-time events stress FIFO ordering.
                    let burst = 1 + rng.gen_range(4);
                    for _ in 0..burst {
                        // The push sequence doubles as the payload.
                        cal.push(now + delta, seq);
                        heap.push(Reverse((now + delta, seq, seq)));
                        seq += 1;
                    }
                } else {
                    let a = cal.pop();
                    let b = heap_pop(&mut heap);
                    assert_eq!(a, b, "divergence at step {step} (seed {seed})");
                    if let Some((t, _)) = a {
                        now = t;
                    }
                }
                assert_eq!(cal.len(), heap.len());
                assert_eq!(cal.peek_time(), heap.peek().map(|Reverse((t, ..))| *t));
            }
            // Drain both completely.
            loop {
                let a = cal.pop();
                let b = heap_pop(&mut heap);
                assert_eq!(a, b, "drain divergence (seed {seed})");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
