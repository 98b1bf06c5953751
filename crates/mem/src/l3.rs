//! The sliced off-chip L3 victim cache controller.

use cmpsim_cache::{
    GeometryError, InsertPosition, LineAddr, ReplacementPolicy, SlicedGeometry, TagArray,
};
use cmpsim_coherence::{L3State, SnoopResponse};
use cmpsim_engine::telemetry::{L3RetryReason, SimEvent, Telemetry};
use cmpsim_engine::{Channel, Cycle, SlotPool};

/// L3 configuration.
#[derive(Debug, Clone, Copy)]
pub struct L3Config {
    /// Slicing and per-slice geometry (paper: 4 slices × 4 MB, 16-way).
    pub geometry: SlicedGeometry,
    /// Data-array access *latency* per slice, in core cycles. This is
    /// the array component; ring propagation and queueing add the rest
    /// of the 167-cycle contention-free L3 latency.
    pub array_cycles: Cycle,
    /// Banks per slice (concurrent array accesses).
    pub array_banks: usize,
    /// Bank busy time per access (throughput; `array_cycles` is the
    /// latency, which may exceed the initiation interval in a pipelined
    /// array).
    pub array_occupancy: Cycle,
    /// Outstanding read capacity per slice (read queue entries).
    pub read_queue: usize,
    /// Incoming castout-data queue entries per slice — the resource whose
    /// exhaustion produces L3-issued retries.
    pub data_queue: usize,
    /// How long a castout occupies a data-queue slot (drain time).
    pub castout_drain: Cycle,
    /// Strictly exclusive victim-cache behaviour: invalidate the L3 copy
    /// when a read hit returns the line to an L2. The modelled system
    /// (and the paper's Table 1) requires `false` — the L3 *keeps* its
    /// copy, which is exactly why so many clean write-backs are
    /// redundant. `true` is provided as an ablation of that design
    /// decision.
    pub exclusive_on_read_hit: bool,
}

impl L3Config {
    /// The paper's Table 3 configuration.
    pub fn paper() -> Self {
        L3Config {
            geometry: SlicedGeometry::new(4, 4 * 1024 * 1024, 16, 128)
                .expect("paper L3 geometry is valid"),
            array_cycles: 60,
            array_banks: 4,
            array_occupancy: 16,
            read_queue: 16,
            data_queue: 8,
            castout_drain: 220,
            exclusive_on_read_hit: false,
        }
    }

    /// A capacity-scaled configuration (same latencies/associativity,
    /// 1/`factor` the capacity) for fast tests and experiments.
    ///
    /// # Panics
    ///
    /// Panics where [`try_scaled`](Self::try_scaled) returns an error.
    pub fn scaled(factor: u64) -> Self {
        Self::try_scaled(factor).expect("scaled L3 geometry must be valid")
    }

    /// [`scaled`](Self::scaled) for a `factor` that may come from user
    /// input.
    ///
    /// # Errors
    ///
    /// Returns the [`GeometryError`] of a zero `factor` or of one that
    /// does not divide the capacity into a valid geometry (e.g. a
    /// `factor` that is not a power of two).
    pub fn try_scaled(factor: u64) -> Result<Self, GeometryError> {
        if factor == 0 {
            return Err(GeometryError::Zero("scale factor"));
        }
        let mut c = Self::paper();
        c.geometry = SlicedGeometry::new(4, 4 * 1024 * 1024 / factor, 16, 128)?;
        Ok(c)
    }
}

/// L3 statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L3Stats {
    /// Read snoops that hit.
    pub read_hits: u64,
    /// Read snoops that missed.
    pub read_misses: u64,
    /// Reads actually served (chosen as data source).
    pub reads_served: u64,
    /// Castouts accepted into the array.
    pub castouts_accepted: u64,
    /// Clean castouts squashed because the line was already valid.
    pub castouts_squashed: u64,
    /// Retry responses issued (queue full).
    pub retries_issued: u64,
    /// Lines invalidated by RFO/upgrade snoops.
    pub invalidations: u64,
    /// Dirty victims written back to memory on L3 eviction.
    pub dirty_victims_to_memory: u64,
    /// Peak read-queue occupancy across slices (gauge).
    pub read_queue_high_water: u64,
    /// Peak incoming-data-queue occupancy across slices (gauge).
    pub data_queue_high_water: u64,
}

/// The L3 victim cache: sliced tag+data arrays behind finite queues.
///
/// The L3 participates in the snoop protocol via [`snoop_read`] /
/// [`snoop_castout`], and moves data via [`provide_read`] /
/// [`accept_castout`] once the combined response selects it.
///
/// [`snoop_read`]: L3Cache::snoop_read
/// [`snoop_castout`]: L3Cache::snoop_castout
/// [`provide_read`]: L3Cache::provide_read
/// [`accept_castout`]: L3Cache::accept_castout
///
/// # Example
///
/// ```
/// use cmpsim_mem::{L3Cache, L3Config};
/// use cmpsim_cache::LineAddr;
/// use cmpsim_coherence::SnoopResponse;
///
/// let mut l3 = L3Cache::new(L3Config::scaled(64));
/// let line = LineAddr::new(42);
/// assert_eq!(l3.snoop_read(0, line), SnoopResponse::L3Miss);
/// l3.accept_castout(0, line, false);
/// assert!(matches!(l3.snoop_read(10, line), SnoopResponse::L3Hit(_)));
/// ```
#[derive(Debug, Clone)]
pub struct L3Cache {
    cfg: L3Config,
    slices: Vec<Slice>,
    stats: L3Stats,
    telemetry: Telemetry,
}

#[derive(Debug, Clone)]
struct Slice {
    tags: TagArray<L3State>,
    array: Channel,
    reads: SlotPool,
    data_in: SlotPool,
}

impl Slice {
    /// Reserves an array bank; returns `(bank_wait, completion)` (bank
    /// occupancy governs throughput, `latency_tail` the rest of the
    /// access latency; the wait component feeds latency attribution).
    fn array_access(&mut self, now: Cycle, latency_tail: Cycle) -> (Cycle, Cycle) {
        let (wait, done) = self.array.reserve(now);
        (wait, done + latency_tail)
    }
}

impl L3Cache {
    /// Creates an L3 from a configuration.
    pub fn new(cfg: L3Config) -> Self {
        let slices = (0..cfg.geometry.slices())
            .map(|_| Slice {
                tags: TagArray::new(cfg.geometry.per_slice(), ReplacementPolicy::Lru),
                array: Channel::new(cfg.array_banks, cfg.array_occupancy),
                reads: SlotPool::new(cfg.read_queue),
                data_in: SlotPool::new(cfg.data_queue),
            })
            .collect();
        L3Cache {
            cfg,
            slices,
            stats: L3Stats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches an event-trace handle; each retry the controller issues
    /// is emitted as a [`SimEvent::L3Retry`] naming the full resource.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn trace_retry(&self, now: Cycle, reason: L3RetryReason, line: LineAddr) {
        self.telemetry.emit(now, || SimEvent::L3Retry {
            reason,
            line: line.raw(),
        });
    }

    /// The configuration.
    pub fn config(&self) -> &L3Config {
        &self.cfg
    }

    fn slice_mut(&mut self, line: LineAddr) -> &mut Slice {
        let s = self.cfg.geometry.slice_of(line) as usize;
        &mut self.slices[s]
    }

    fn slice(&self, line: LineAddr) -> &Slice {
        let s = self.cfg.geometry.slice_of(line) as usize;
        &self.slices[s]
    }

    /// Snoops a read-class transaction (`ReadShared`/`ReadExclusive`).
    ///
    /// Hits answer [`SnoopResponse::L3Hit`]; a hit that cannot be
    /// serviced because the slice's read queue is full answers
    /// [`SnoopResponse::L3Retry`].
    pub fn snoop_read(&mut self, now: Cycle, line: LineAddr) -> SnoopResponse {
        let local = self.cfg.geometry.slice_local(line);
        let slice = self.slice_mut(line);
        match slice.tags.probe(local) {
            Some((_, st)) => {
                if slice.reads.in_use(now) >= slice.reads.capacity() {
                    self.stats.retries_issued += 1;
                    self.trace_retry(now, L3RetryReason::ReadQueueFull, line);
                    SnoopResponse::L3Retry
                } else {
                    self.stats.read_hits += 1;
                    SnoopResponse::L3Hit(st)
                }
            }
            None => {
                self.stats.read_misses += 1;
                SnoopResponse::L3Miss
            }
        }
    }

    /// Snoops a castout. Clean castouts whose line is already valid hit
    /// ([`SnoopResponse::L3Hit`] → the collector squashes the data
    /// transfer); otherwise the L3 accepts when its incoming data queue
    /// has room and retries when it does not.
    pub fn snoop_castout(&mut self, now: Cycle, line: LineAddr, dirty: bool) -> SnoopResponse {
        let local = self.cfg.geometry.slice_local(line);
        let squash_hold = self.cfg.array_occupancy;
        let slice = self.slice_mut(line);
        // Every castout claims an incoming-queue slot before the tag
        // check — the controller cannot know a write-back is redundant
        // until it has processed it, so a full queue retries redundant
        // and useful castouts alike ("lines may be rejected by the L3 if
        // there are not enough hardware resources to take the line
        // immediately", §2). This is exactly the pressure the WBHT
        // relieves by never issuing the transaction at all.
        if slice.data_in.in_use(now) >= slice.data_in.capacity() {
            self.stats.retries_issued += 1;
            self.trace_retry(now, L3RetryReason::DataInFull, line);
            return SnoopResponse::L3Retry;
        }
        let present = slice.tags.probe(local).map(|(_, s)| s);
        match (present, dirty) {
            (Some(st), false) => {
                // Clean castout, line already here: squash. The slot is
                // held only for the tag check.
                slice.data_in.try_acquire(now, now + squash_hold);
                self.stats.castouts_squashed += 1;
                SnoopResponse::L3Hit(st)
            }
            (Some(st), true) => SnoopResponse::L3Hit(st),
            (None, _) => SnoopResponse::L3Accept,
        }
    }

    /// Pure peek used by the WBHT-correctness oracle (Table 4's "WBHT
    /// Correct" column is measured "by peeking into the L3 cache in the
    /// simulator"). No stats or LRU side effects.
    pub fn peek(&self, line: LineAddr) -> bool {
        let local = self.cfg.geometry.slice_local(line);
        self.slice(line).tags.probe(local).is_some()
    }

    /// Serves a read the combined response routed to the L3. Returns
    /// `(bank_wait, ready, state)`: the array access started at
    /// `now + bank_wait` (the span tracer splits L3-queue-wait from
    /// L3-service there), the data leaves the L3 array at `ready`, and
    /// `state` is the line's state.
    ///
    /// When `invalidate` is set (RFO/upgrade semantics) the copy is
    /// removed — the requester will hold the only up-to-date copy.
    ///
    /// # Panics
    ///
    /// Panics if the line is not present (the snoop said it was).
    pub fn provide_read(
        &mut self,
        now: Cycle,
        line: LineAddr,
        invalidate: bool,
    ) -> (Cycle, Cycle, L3State) {
        let local = self.cfg.geometry.slice_local(line);
        let tail = self
            .cfg
            .array_cycles
            .saturating_sub(self.cfg.array_occupancy);
        let exclusive = self.cfg.exclusive_on_read_hit;
        let slice = self.slice_mut(line);
        let st = slice
            .tags
            .probe(local)
            .unwrap_or_else(|| panic!("provide_read of absent line {line}"))
            .1;
        let (wait, ready) = slice.array_access(now, tail);
        slice.reads.try_acquire(now, ready);
        if invalidate || exclusive {
            slice.tags.invalidate(local);
            self.stats.invalidations += 1;
        } else {
            slice.tags.touch(local);
        }
        self.stats.reads_served += 1;
        (wait, ready, st)
    }

    /// Invalidates a line (RFO/upgrade by an L2 when the L3 is not the
    /// data source, so its copy would go stale). No-op when absent.
    pub fn invalidate(&mut self, line: LineAddr) {
        let local = self.cfg.geometry.slice_local(line);
        if self.slice_mut(line).tags.invalidate(local).is_some() {
            self.stats.invalidations += 1;
        }
    }

    /// Accepts a castout whose combined response selected the L3.
    ///
    /// Returns `(bank_wait, done, victim)`: the array access started at
    /// `now + bank_wait` and completes at `done`, and `victim` is the
    /// dirty line the L3 itself evicted (which must be written to
    /// memory), if any. Returns `None` when the data queue filled
    /// between snoop and accept — the caller converts that into a retry.
    pub fn accept_castout(
        &mut self,
        now: Cycle,
        line: LineAddr,
        dirty: bool,
    ) -> Option<(Cycle, Cycle, Option<LineAddr>)> {
        let slices_bits = self.cfg.geometry.slices().trailing_zeros();
        let slice_idx = self.cfg.geometry.slice_of(line);
        let local = self.cfg.geometry.slice_local(line);
        let drain = self.cfg.castout_drain;
        let slice = &mut self.slices[slice_idx as usize];
        if !slice.data_in.try_acquire(now, now + drain) {
            self.stats.retries_issued += 1;
            self.trace_retry(now, L3RetryReason::CastoutBufferFull, line);
            return None;
        }
        let tail = self
            .cfg
            .array_cycles
            .saturating_sub(self.cfg.array_occupancy);
        let (wait, done) = slice.array_access(now, tail);
        let new_state = if dirty {
            L3State::Dirty
        } else {
            L3State::Clean
        };
        let victim = if slice.tags.set_state(local, new_state) {
            // Dirty overwrite of an existing copy.
            slice.tags.touch(local);
            None
        } else {
            slice
                .tags
                .insert(local, new_state, InsertPosition::Mru)
                .filter(|ev| ev.state.is_dirty())
                .map(|ev| {
                    // Reconstruct the victim's global line address from
                    // its slice-local address.
                    LineAddr::new((ev.line.raw() << slices_bits) | slice_idx)
                })
        };
        if victim.is_some() {
            self.stats.dirty_victims_to_memory += 1;
        }
        self.stats.castouts_accepted += 1;
        Some((wait, done, victim))
    }

    /// Number of valid lines across all slices.
    pub fn valid_lines(&self) -> u64 {
        self.slices.iter().map(|s| s.tags.valid_lines()).sum()
    }

    /// Statistics. Queue high-water gauges are read live from the
    /// slices' slot pools at call time.
    pub fn stats(&self) -> L3Stats {
        let mut s = self.stats;
        for slice in &self.slices {
            s.read_queue_high_water = s.read_queue_high_water.max(slice.reads.high_water() as u64);
            s.data_queue_high_water = s
                .data_queue_high_water
                .max(slice.data_in.high_water() as u64);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_l3() -> L3Cache {
        // 4 slices x 64 KB, 16-way.
        L3Cache::new(L3Config::scaled(64))
    }

    #[test]
    fn read_miss_then_castout_then_hit() {
        let mut l3 = small_l3();
        let line = LineAddr::new(1000);
        assert_eq!(l3.snoop_read(0, line), SnoopResponse::L3Miss);
        assert!(l3.accept_castout(0, line, false).is_some());
        assert_eq!(
            l3.snoop_read(100, line),
            SnoopResponse::L3Hit(L3State::Clean)
        );
        assert_eq!(l3.stats().read_hits, 1);
        assert_eq!(l3.stats().read_misses, 1);
    }

    #[test]
    fn clean_castout_squashed_when_present() {
        let mut l3 = small_l3();
        let line = LineAddr::new(5);
        l3.accept_castout(0, line, false);
        let r = l3.snoop_castout(10, line, false);
        assert_eq!(r, SnoopResponse::L3Hit(L3State::Clean));
        assert_eq!(l3.stats().castouts_squashed, 1);
    }

    #[test]
    fn dirty_castout_overwrites() {
        let mut l3 = small_l3();
        let line = LineAddr::new(5);
        l3.accept_castout(0, line, false);
        assert_eq!(
            l3.snoop_castout(10, line, true),
            SnoopResponse::L3Hit(L3State::Clean)
        );
        l3.accept_castout(10, line, true);
        assert_eq!(
            l3.snoop_read(200, line),
            SnoopResponse::L3Hit(L3State::Dirty)
        );
    }

    #[test]
    fn data_queue_exhaustion_retries() {
        let mut l3 = small_l3();
        let q = l3.config().data_queue;
        // Fill slice 0's data queue with castouts at t=0 (drain 60).
        for i in 0..q as u64 {
            let line = LineAddr::new(i * 4); // all slice 0
            assert!(l3.accept_castout(0, line, false).is_some());
        }
        let r = l3.snoop_castout(1, LineAddr::new(400), false);
        assert_eq!(r, SnoopResponse::L3Retry);
        assert!(l3.stats().retries_issued >= 1);
        // After the drain interval the queue has room again.
        let drain = l3.config().castout_drain;
        let r = l3.snoop_castout(drain + 1, LineAddr::new(400), false);
        assert_eq!(r, SnoopResponse::L3Accept);
    }

    #[test]
    fn provide_read_touches_or_invalidates() {
        let mut l3 = small_l3();
        let line = LineAddr::new(8);
        l3.accept_castout(0, line, false);
        let (wait, ready, st) = l3.provide_read(10, line, false);
        assert_eq!(wait, 0);
        assert_eq!(ready, 10 + l3.config().array_cycles);
        assert_eq!(st, L3State::Clean);
        assert!(l3.peek(line));
        // RFO-style provide removes the copy.
        l3.provide_read(20, line, true);
        assert!(!l3.peek(line));
        assert_eq!(l3.stats().reads_served, 2);
    }

    #[test]
    fn invalidate_on_upgrade() {
        let mut l3 = small_l3();
        let line = LineAddr::new(12);
        l3.accept_castout(0, line, false);
        l3.invalidate(line);
        assert!(!l3.peek(line));
        assert_eq!(l3.stats().invalidations, 1);
        // Invalidating again is a no-op.
        l3.invalidate(line);
        assert_eq!(l3.stats().invalidations, 1);
    }

    #[test]
    fn dirty_victim_reported_for_memory() {
        // 4 slices x 4KB, 16-way, 128B lines -> 32 lines/slice, 2 sets.
        let cfg = L3Config {
            geometry: SlicedGeometry::new(4, 4096, 16, 128).unwrap(),
            array_cycles: 10,
            array_banks: 2,
            array_occupancy: 5,
            read_queue: 64,
            data_queue: 64,
            castout_drain: 1,
            exclusive_on_read_hit: false,
        };
        let mut l3 = L3Cache::new(cfg);
        // Fill one set of slice 0 with dirty lines: slice 0 lines are
        // multiples of 4; set = local & 1, so use even locals (line % 8 == 0).
        let mut t = 0;
        for i in 0..16u64 {
            l3.accept_castout(t, LineAddr::new(i * 8), true);
            t += 2;
        }
        // 17th dirty castout to the same set evicts a dirty victim.
        let (_, _, victim) = l3.accept_castout(t, LineAddr::new(16 * 8), true).unwrap();
        let victim = victim.expect("expected a dirty victim");
        // The reconstructed victim must be one of the inserted lines.
        assert_eq!(victim.raw() % 8, 0);
        assert!(victim.raw() < 16 * 8);
        assert_eq!(l3.stats().dirty_victims_to_memory, 1);
    }

    #[test]
    fn accept_fails_when_queue_filled_between_snoop_and_accept() {
        let mut l3 = small_l3();
        let q = l3.config().data_queue;
        for i in 0..q as u64 {
            assert!(l3.accept_castout(0, LineAddr::new(i * 4), false).is_some());
        }
        assert!(l3.accept_castout(1, LineAddr::new(400), false).is_none());
    }

    #[test]
    fn exclusive_mode_invalidates_on_read_hit() {
        let mut cfg = L3Config::scaled(64);
        cfg.exclusive_on_read_hit = true;
        let mut l3 = L3Cache::new(cfg);
        let line = LineAddr::new(20);
        l3.accept_castout(0, line, false);
        l3.provide_read(10, line, false);
        assert!(!l3.peek(line), "exclusive victim cache must drop on hit");
    }

    #[test]
    fn telemetry_traces_each_retry_reason() {
        use cmpsim_engine::telemetry::{L3RetryReason, SimEvent, Telemetry};

        let (t, sink) = Telemetry::with_vec_sink();
        let mut l3 = small_l3();
        l3.attach_telemetry(t);
        let q = l3.config().data_queue;
        for i in 0..q as u64 {
            assert!(l3.accept_castout(0, LineAddr::new(i * 4), false).is_some());
        }
        // Slice 0's data queue is now full: snoop bounces...
        assert_eq!(
            l3.snoop_castout(1, LineAddr::new(400), false),
            SnoopResponse::L3Retry
        );
        // ...and so does a direct accept.
        assert!(l3.accept_castout(1, LineAddr::new(404), false).is_none());
        let reasons: Vec<L3RetryReason> = sink
            .lock()
            .unwrap()
            .events()
            .iter()
            .map(|(_, e)| match e {
                SimEvent::L3Retry { reason, .. } => *reason,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(
            reasons,
            [L3RetryReason::DataInFull, L3RetryReason::CastoutBufferFull]
        );
    }

    #[test]
    fn valid_lines_counts_all_slices() {
        let mut l3 = small_l3();
        for i in 0..8 {
            l3.accept_castout(0, LineAddr::new(i), false);
        }
        assert_eq!(l3.valid_lines(), 8);
    }
}
