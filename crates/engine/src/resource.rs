//! Contention-modelling resources with busy-until semantics.
//!
//! These primitives are only correct when driven in non-decreasing time
//! order, which the [`EventQueue`](crate::EventQueue) guarantees.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Cycle;

/// A single-ported unit that serves requests one at a time, FIFO.
///
/// Typical uses: a cache tag port, a directory pipeline stage, a bus
/// arbitration slot. A request arriving at `now` starts service at
/// `max(now, busy_until)` and occupies the server for its service time.
///
/// # Example
///
/// ```
/// use cmpsim_engine::FifoServer;
///
/// let mut tag_port = FifoServer::new(2);
/// assert_eq!(tag_port.reserve(10), (0, 12)); // idle: starts immediately
/// assert_eq!(tag_port.reserve(10), (2, 14)); // queues behind the first
/// assert_eq!(tag_port.reserve(20), (0, 22)); // idle again by cycle 20
/// ```
#[derive(Debug, Clone)]
pub struct FifoServer {
    service: Cycle,
    busy_until: Cycle,
    /// Total cycles the server spent occupied (for utilization stats).
    busy_cycles: Cycle,
    served: u64,
}

impl FifoServer {
    /// Creates a server with a fixed per-request service time.
    pub fn new(service: Cycle) -> Self {
        FifoServer {
            service,
            busy_until: 0,
            busy_cycles: 0,
            served: 0,
        }
    }

    /// Reserves the server for one request arriving at `now`. Returns
    /// `(wait, done)`: service began at `now + wait` and completes at
    /// `done = now + wait + service`. The span tracer uses the split to
    /// attribute queue-wait separately from service.
    #[inline]
    pub fn reserve(&mut self, now: Cycle) -> (Cycle, Cycle) {
        let start = self.busy_until.max(now);
        self.busy_until = start + self.service;
        self.busy_cycles += self.service;
        self.served += 1;
        (start - now, self.busy_until)
    }

    /// Total cycles of booked service time.
    pub fn busy_cycles(&self) -> Cycle {
        self.busy_cycles
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }
}

/// A `k`-lane bandwidth resource.
///
/// Models an interconnect with `k` independent transfer slots (e.g. a ring
/// whose aggregate bandwidth admits `k` concurrent line transfers). A
/// transfer reserves the earliest-free lane.
///
/// # Example
///
/// ```
/// use cmpsim_engine::Channel;
///
/// let mut data_ring = Channel::new(2, 8); // 2 lanes, 8-cycle occupancy
/// assert_eq!(data_ring.reserve(0), (0, 8));
/// assert_eq!(data_ring.reserve(0), (0, 8));  // second lane
/// assert_eq!(data_ring.reserve(0), (8, 16)); // queues
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    lanes: Vec<Cycle>,
    occupancy: Cycle,
    busy_cycles: Cycle,
    served: u64,
}

impl Channel {
    /// Creates a channel with `lanes` parallel slots and a fixed
    /// per-transfer occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(lanes: usize, occupancy: Cycle) -> Self {
        assert!(lanes > 0, "channel must have at least one lane");
        Channel {
            lanes: vec![0; lanes],
            occupancy,
            busy_cycles: 0,
            served: 0,
        }
    }

    /// Reserves the earliest-free lane for a transfer arriving at `now`.
    /// Returns `(wait, done)`: the transfer began at `now + wait` and
    /// completes at `done = now + wait + occupancy`.
    #[inline]
    pub fn reserve(&mut self, now: Cycle) -> (Cycle, Cycle) {
        // Earliest-free lane; ties broken by index for determinism.
        let (idx, &free) = self
            .lanes
            .iter()
            .enumerate()
            .min_by_key(|&(i, &t)| (t, i))
            .expect("at least one lane");
        let start = free.max(now);
        self.lanes[idx] = start + self.occupancy;
        self.busy_cycles += self.occupancy;
        self.served += 1;
        (start - now, self.lanes[idx])
    }

    /// Total booked occupancy across all lanes.
    pub fn busy_cycles(&self) -> Cycle {
        self.busy_cycles
    }

    /// Number of transfers served.
    pub fn served(&self) -> u64 {
        self.served
    }
}

/// A finite pool of slots that are held for a time interval.
///
/// Models a finite queue (e.g. the L3 incoming-request queue): a slot is
/// acquired at `now` and released at a caller-specified time. When no slot
/// is free the acquire fails — in the simulator that failure surfaces as a
/// *Retry* snoop response.
///
/// # Example
///
/// ```
/// use cmpsim_engine::SlotPool;
///
/// let mut q = SlotPool::new(1);
/// assert!(q.try_acquire(0, 100));  // held until cycle 100
/// assert!(!q.try_acquire(50, 60)); // full -> retry
/// assert!(q.try_acquire(100, 120));
/// ```
#[derive(Debug, Clone)]
pub struct SlotPool {
    capacity: usize,
    releases: BinaryHeap<Reverse<Cycle>>,
    high_water: usize,
}

impl SlotPool {
    /// Creates a pool with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "slot pool must have at least one slot");
        SlotPool {
            capacity,
            releases: BinaryHeap::new(),
            high_water: 0,
        }
    }

    /// Attempts to acquire a slot at `now`, holding it until `release_at`.
    ///
    /// Returns `false` when all slots are held.
    pub fn try_acquire(&mut self, now: Cycle, release_at: Cycle) -> bool {
        self.expire(now);
        if self.releases.len() < self.capacity {
            self.releases.push(Reverse(release_at.max(now)));
            self.high_water = self.high_water.max(self.releases.len());
            true
        } else {
            false
        }
    }

    /// Number of slots in use at time `now`.
    #[inline]
    pub fn in_use(&mut self, now: Cycle) -> usize {
        self.expire(now);
        self.releases.len()
    }

    /// Pool capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Peak number of slots held at once (occupancy gauge, sampled on
    /// every successful acquire).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    fn expire(&mut self, now: Cycle) {
        while matches!(self.releases.peek(), Some(&Reverse(t)) if t <= now) {
            self.releases.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_server_queues() {
        let mut s = FifoServer::new(5);
        assert_eq!(s.reserve(0), (0, 5)); // idle: no wait
        assert_eq!(s.reserve(0), (5, 10)); // queued behind the first
        assert_eq!(s.reserve(3), (7, 15));
        assert_eq!(s.reserve(100), (0, 105));
        assert_eq!(s.served(), 4);
        assert_eq!(s.busy_cycles(), 20);
    }

    #[test]
    fn channel_uses_all_lanes() {
        let mut c = Channel::new(3, 4);
        assert_eq!(c.reserve(0), (0, 4));
        assert_eq!(c.reserve(0), (0, 4)); // second lane, still no wait
        assert_eq!(c.reserve(0), (0, 4));
        assert_eq!(c.reserve(1), (3, 8)); // all lanes busy until 4
        assert_eq!(c.served(), 4);
        assert_eq!(c.busy_cycles(), 16);
    }

    #[test]
    fn channel_picks_earliest_lane() {
        let mut c = Channel::new(2, 10);
        assert_eq!(c.reserve(0), (0, 10)); // lane 0 -> 10
        assert_eq!(c.reserve(5), (0, 15)); // lane 1 -> 15

        // Both busy at 6: the transfer takes lane 0 (free at 10), not
        // lane 1 (free at 15).
        assert_eq!(c.reserve(6), (4, 20));
    }

    #[test]
    fn slot_pool_high_water_tracks_peak() {
        let mut p = SlotPool::new(3);
        assert_eq!(p.high_water(), 0);
        p.try_acquire(0, 10);
        p.try_acquire(0, 10);
        assert_eq!(p.high_water(), 2);
        // Slots expire at 10; occupancy drops, peak stays.
        p.try_acquire(20, 30);
        assert_eq!(p.in_use(20), 1);
        assert_eq!(p.high_water(), 2);
    }

    #[test]
    fn slot_pool_rejects_when_full() {
        let mut p = SlotPool::new(2);
        assert!(p.try_acquire(0, 10));
        assert!(p.try_acquire(0, 20));
        assert!(!p.try_acquire(5, 30));
        // One slot frees at 10.
        assert!(p.try_acquire(10, 40));
        assert_eq!(p.in_use(10), 2);
        assert_eq!(p.in_use(25), 1);
        assert_eq!(p.in_use(40), 0);
    }

    #[test]
    fn slot_pool_release_never_before_now() {
        let mut p = SlotPool::new(1);
        // release_at in the past is clamped to now, so the slot frees
        // immediately at the next query.
        assert!(p.try_acquire(10, 5));
        assert!(p.try_acquire(11, 20));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn slot_pool_zero_capacity_panics() {
        let _ = SlotPool::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn channel_zero_lanes_panics() {
        let _ = Channel::new(0, 1);
    }
}
