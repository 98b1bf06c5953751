//! One L2 cache: sliced tag arrays, MSHRs, write-back queue, snoop port.

use std::num::NonZeroU32;

use cmpsim_cache::{
    InsertPosition, LineAddr, MshrFile, ReplacementPolicy, SlicedGeometry, TagArray, WayIdx,
    WriteBackQueue,
};
use cmpsim_coherence::{L2Id, L2State};
use cmpsim_engine::hash::{FxHashMap, FxHashSet};
use cmpsim_engine::telemetry::{SimEvent, Telemetry};
use cmpsim_engine::{Cycle, FifoServer, SlotPool};
use cmpsim_trace::ThreadId;

use crate::config::SystemConfig;

/// Reuse bookkeeping for a snarfed line (Table 5 statistics).
#[derive(Debug, Clone, Copy, Default)]
pub struct SnarfFlags {
    /// Hit by a thread of the snarfing L2.
    pub used_locally: bool,
    /// Sourced an intervention to another L2.
    pub used_for_intervention: bool,
}

/// One L2 cache of the CMP (shared by a core pair, four slices).
#[derive(Debug)]
pub struct L2Unit {
    /// This cache's id.
    pub id: L2Id,
    geometry: SlicedGeometry,
    slices: Vec<TagArray<L2State>>,
    /// Residency epoch: moves whenever a line becomes valid or invalid
    /// here (see [`epoch`](Self::epoch)).
    epoch: NonZeroU32,
    /// Miss-status registers (waiters are thread ids).
    pub mshrs: MshrFile<ThreadId>,
    /// The bounded castout queue.
    pub wbq: WriteBackQueue,
    /// Snoop tag-port contention: pipelined, so the port is occupied
    /// for `min(l2_snoop_occupancy, l2_snoop_cycles)` per lookup.
    pub snoop_srv: FifoServer,
    /// Data-array port for sourcing interventions.
    pub array_srv: FifoServer,
    /// Snarf line-fill buffers ("we conservatively decline the cache
    /// line" when these are busy, §3).
    pub snarf_buffers: SlotPool,
    /// Castouts currently arbitrating on the bus; they stay in `wbq`
    /// until resolution so they remain snoopable.
    pub castouts_inflight: FxHashSet<LineAddr>,
    /// Threads parked on MSHR exhaustion.
    pub waiting_threads: Vec<ThreadId>,
    /// Reuse flags for lines snarfed into this cache.
    pub snarfed_lines: FxHashMap<u64, SnarfFlags>,
    telemetry: Telemetry,
}

impl L2Unit {
    /// Builds an L2 from the system configuration.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry (configs are validated beforehand).
    pub fn new(id: L2Id, cfg: &SystemConfig) -> Self {
        let geometry = SlicedGeometry::new(
            cfg.l2_slices,
            cfg.l2_slice_bytes,
            cfg.l2_assoc,
            cfg.line_bytes,
        )
        .expect("validated L2 geometry");
        let slices = (0..cfg.l2_slices)
            .map(|_| TagArray::new(geometry.per_slice(), ReplacementPolicy::Lru))
            .collect();
        L2Unit {
            id,
            geometry,
            slices,
            epoch: NonZeroU32::MIN,
            mshrs: MshrFile::new(cfg.l2_mshrs),
            wbq: WriteBackQueue::new(cfg.wbq_len),
            snoop_srv: FifoServer::new(cfg.l2_snoop_occupancy.min(cfg.l2_snoop_cycles)),
            array_srv: FifoServer::new(cfg.l2_array_cycles),
            snarf_buffers: SlotPool::new(cfg.snarf_buffers.max(1)),
            castouts_inflight: FxHashSet::default(),
            waiting_threads: Vec::new(),
            snarfed_lines: FxHashMap::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches an event-trace handle.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    #[inline]
    fn slice_and_local(&self, line: LineAddr) -> (usize, LineAddr) {
        (
            self.geometry.slice_of(line) as usize,
            self.geometry.slice_local(line),
        )
    }

    /// The residency epoch: a wrapping counter (it skips zero) that
    /// changes exactly when a line becomes valid or invalid in this L2,
    /// so equal epochs prove that no line entered or left in between.
    #[inline]
    pub fn epoch(&self) -> NonZeroU32 {
        self.epoch
    }

    fn bump_epoch(&mut self) {
        self.epoch = self.epoch.checked_add(1).unwrap_or(NonZeroU32::MIN);
    }

    /// Coherence state of `line` if resident.
    #[inline]
    pub fn state_of(&self, line: LineAddr) -> Option<L2State> {
        let (s, local) = self.slice_and_local(line);
        self.slices[s].probe(local).map(|(_, st)| st)
    }

    /// Refreshes recency of a resident line. Returns `false` if absent.
    #[inline]
    pub fn touch(&mut self, line: LineAddr) -> bool {
        let (s, local) = self.slice_and_local(line);
        self.slices[s].touch(local)
    }

    /// Rewrites the state of a resident line. Returns `false` if absent.
    pub fn set_state(&mut self, line: LineAddr, st: L2State) -> bool {
        let (s, local) = self.slice_and_local(line);
        self.slices[s].set_state(local, st)
    }

    /// Removes a line, returning its state.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<L2State> {
        let (s, local) = self.slice_and_local(line);
        let removed = self.slices[s].invalidate(local);
        if removed.is_some() {
            self.bump_epoch();
        }
        removed
    }

    /// Inserts a line, evicting by LRU when the set is full. Returns the
    /// evicted victim (with its *global* line address), if any.
    pub fn fill(
        &mut self,
        line: LineAddr,
        st: L2State,
        pos: InsertPosition,
    ) -> Option<(LineAddr, L2State)> {
        let (s, local) = self.slice_and_local(line);
        let slice_bits = self.geometry.slices().trailing_zeros();
        self.bump_epoch();
        self.slices[s].insert(local, st, pos).map(|ev| {
            let global = (ev.line.raw() << slice_bits) | s as u64;
            (LineAddr::new(global), ev.state)
        })
    }

    /// Inserts a line using cost-aware victim selection (§7 extension):
    /// among the `window` least-recently-used ways, prefer a clean line
    /// the policy's history covers (known to be in the L3 — cheap to
    /// lose). `knows` is the line-knowledge source (the policy stack's
    /// history query); callers without one use plain [`fill`](Self::fill).
    pub fn fill_history_aware(
        &mut self,
        line: LineAddr,
        st: L2State,
        pos: InsertPosition,
        window: usize,
        knows: impl Fn(LineAddr) -> bool,
    ) -> Option<(LineAddr, L2State)> {
        let (s, local) = self.slice_and_local(line);
        let slice_bits = self.geometry.slices().trailing_zeros();
        if self.slices[s].invalid_way(local).is_none() {
            let cands = self.slices[s].victim_candidates(local, window);
            let pick = cands.iter().find(|(way, vlocal)| {
                let global = LineAddr::new((vlocal.raw() << slice_bits) | s as u64);
                let clean = self.slices[s]
                    .line_at(*way)
                    .map(|(_, st)| !st.is_dirty())
                    .unwrap_or(false);
                clean && knows(global)
            });
            if let Some(&(way, _)) = pick {
                self.bump_epoch();
                return self.slices[s].insert_into(local, way, st, pos).map(|ev| {
                    let global = (ev.line.raw() << slice_bits) | s as u64;
                    (LineAddr::new(global), ev.state)
                });
            }
        }
        self.fill(line, st, pos)
    }

    /// Does the set `line` maps to have a free (invalid) way?
    pub fn has_invalid_way(&self, line: LineAddr) -> bool {
        let (s, local) = self.slice_and_local(line);
        self.slices[s].invalid_way(local).is_some()
    }

    /// Snarf victim selection per §3: an invalid way if one exists,
    /// otherwise the LRU way in a shared state (`S` or `SL`; never `E`,
    /// `M`, or `T` — "a line in the Exclusive state is guaranteed to be
    /// the only valid copy on-chip", and replacing Modified lines "would
    /// force another write back"). Our protocol hands most clean fills
    /// the `SL` flavour of shared, so both shared states qualify; a
    /// dropped `S`/`SL` victim is recoverable from the L3 or memory.
    pub fn snarf_victim(&self, line: LineAddr) -> Option<WayIdx> {
        let (s, local) = self.slice_and_local(line);
        self.slices[s].invalid_way(local).or_else(|| {
            self.slices[s].victim_way_by(local, |&st| {
                matches!(st, L2State::Shared | L2State::SharedLast)
            })
        })
    }

    /// Inserts a snarfed line into a specific way (chosen by
    /// [`snarf_victim`](Self::snarf_victim)). Returns the displaced
    /// victim with its global line address.
    pub fn snarf_insert(
        &mut self,
        line: LineAddr,
        way: WayIdx,
        st: L2State,
        pos: InsertPosition,
    ) -> Option<(LineAddr, L2State)> {
        let (s, local) = self.slice_and_local(line);
        let slice_bits = self.geometry.slices().trailing_zeros();
        self.bump_epoch();
        self.slices[s].insert_into(local, way, st, pos).map(|ev| {
            let global = (ev.line.raw() << slice_bits) | s as u64;
            (LineAddr::new(global), ev.state)
        })
    }

    /// Can the snarf buffers take `line` at `now` (held until
    /// `now + hold`)? Acquires on success; a decline (all buffers busy —
    /// "we conservatively decline the cache line", §3) is traced.
    pub fn try_reserve_snarf_buffer(&mut self, now: Cycle, line: LineAddr, hold: Cycle) -> bool {
        let ok = self.snarf_buffers.try_acquire(now, now + hold);
        if !ok {
            let id = self.id.index() as u32;
            self.telemetry.emit(now, || SimEvent::SnarfBufferDeclined {
                l2: id,
                line: line.raw(),
            });
        }
        ok
    }

    /// Total valid lines.
    pub fn valid_lines(&self) -> u64 {
        self.slices.iter().map(|s| s.valid_lines()).sum()
    }

    /// Every resident line as `(global line, state)`, slice by slice in
    /// array order (invariant checking; allocates nothing).
    pub fn resident(&self) -> impl Iterator<Item = (LineAddr, L2State)> + '_ {
        let slice_bits = self.geometry.slices().trailing_zeros();
        self.slices.iter().enumerate().flat_map(move |(s, arr)| {
            arr.iter_valid()
                .map(move |(local, st)| (LineAddr::new((local.raw() << slice_bits) | s as u64), st))
        })
    }

    /// Clears snarf bookkeeping for an evicted/invalidated line,
    /// returning its flags if it was a snarfed line.
    pub fn retire_snarf_flags(&mut self, line: LineAddr) -> Option<SnarfFlags> {
        self.snarfed_lines.remove(&line.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> L2Unit {
        let cfg = SystemConfig::scaled(16);
        L2Unit::new(L2Id::new(0), &cfg)
    }

    #[test]
    fn fill_probe_invalidate() {
        let mut u = unit();
        let line = LineAddr::new(100);
        assert_eq!(u.state_of(line), None);
        assert!(u
            .fill(line, L2State::Exclusive, InsertPosition::Mru)
            .is_none());
        assert_eq!(u.state_of(line), Some(L2State::Exclusive));
        assert!(u.set_state(line, L2State::Modified));
        assert_eq!(u.invalidate(line), Some(L2State::Modified));
        assert_eq!(u.state_of(line), None);
    }

    #[test]
    fn eviction_returns_global_address() {
        let mut u = unit();
        // Fill one set to capacity: same slice (line % 4), same set.
        let cfg = SystemConfig::scaled(16);
        let sets = cfg.l2_slice_bytes / cfg.line_bytes / cfg.l2_assoc;
        let stride = 4 * sets; // same slice, same set
        let mut evicted = None;
        for i in 0..=cfg.l2_assoc {
            evicted = u.fill(
                LineAddr::new(8 + i * stride),
                L2State::Shared,
                InsertPosition::Mru,
            );
        }
        let (victim, st) = evicted.expect("set overflow must evict");
        assert_eq!(victim, LineAddr::new(8)); // LRU = first inserted
        assert_eq!(st, L2State::Shared);
    }

    #[test]
    fn snarf_victim_prefers_invalid_then_shared() {
        let mut u = unit();
        let line = LineAddr::new(4);
        // Empty set: invalid way available.
        assert!(u.snarf_victim(line).is_some());
        // Fill the set with non-Shared lines: no victim.
        let cfg = SystemConfig::scaled(16);
        let sets = cfg.l2_slice_bytes / cfg.line_bytes / cfg.l2_assoc;
        let stride = 4 * sets;
        for i in 0..cfg.l2_assoc {
            u.fill(
                LineAddr::new(4 + i * stride),
                L2State::Exclusive,
                InsertPosition::Mru,
            );
        }
        assert!(u.snarf_victim(line).is_none());
        // Turn one into Shared: it becomes the victim.
        assert!(u.set_state(LineAddr::new(4 + stride), L2State::Shared));
        let way = u.snarf_victim(LineAddr::new(4)).unwrap();
        let ev = u
            .snarf_insert(
                LineAddr::new(4 + 8 * stride),
                way,
                L2State::SharedLast,
                InsertPosition::Mru,
            )
            .unwrap();
        assert_eq!(ev.0, LineAddr::new(4 + stride));
        assert_eq!(ev.1, L2State::Shared);
    }

    #[test]
    fn snarf_buffers_decline_when_busy() {
        let (tel, sink) = Telemetry::with_vec_sink();
        let mut u = unit();
        u.attach_telemetry(tel);
        let line = LineAddr::new(4);
        let cap = SystemConfig::scaled(16).snarf_buffers;
        for _ in 0..cap {
            assert!(u.try_reserve_snarf_buffer(0, line, 100));
        }
        assert!(!u.try_reserve_snarf_buffer(10, line, 100));
        assert!(u.try_reserve_snarf_buffer(150, line, 100));
        // Only the decline is traced.
        let sink = sink.lock().unwrap();
        assert_eq!(sink.events().len(), 1);
        assert_eq!(sink.events()[0].1.kind(), "snarf_buffer_declined");
    }

    #[test]
    fn history_aware_fill_prefers_known_clean_victims() {
        let mut u = unit();
        let cfg = SystemConfig::scaled(16);
        let sets = cfg.l2_slice_bytes / cfg.line_bytes / cfg.l2_assoc;
        let stride = 4 * sets; // same slice, same set
        for i in 0..cfg.l2_assoc {
            u.fill(
                LineAddr::new(8 + i * stride),
                L2State::Shared,
                InsertPosition::Mru,
            );
        }
        // LRU is line 8, but the history knows only the second-oldest:
        // the history-aware fill victimizes the known line instead.
        let known = LineAddr::new(8 + stride);
        let ev = u
            .fill_history_aware(
                LineAddr::new(8 + 100 * stride),
                L2State::Shared,
                InsertPosition::Mru,
                4,
                |line| line == known,
            )
            .expect("full set must evict");
        assert_eq!(ev.0, known);
        // With no knowledge, plain LRU applies.
        let ev = u
            .fill_history_aware(
                LineAddr::new(8 + 101 * stride),
                L2State::Shared,
                InsertPosition::Mru,
                4,
                |_| false,
            )
            .expect("full set must evict");
        assert_eq!(ev.0, LineAddr::new(8));
    }

    #[test]
    fn epoch_moves_exactly_when_a_line_enters_or_leaves() {
        let mut u = unit();
        let cfg = SystemConfig::scaled(16);
        let sets = cfg.l2_slice_bytes / cfg.line_bytes / cfg.l2_assoc;
        let stride = 4 * sets; // same slice, same set
        let at = |k: u64| LineAddr::new(8 + k * stride);
        let mut last = u.epoch();
        let mut moved = |u: &L2Unit| std::mem::replace(&mut last, u.epoch()) != u.epoch();

        u.fill(at(0), L2State::Exclusive, InsertPosition::Mru);
        assert!(moved(&u), "fill");
        assert!(u.touch(at(0)));
        assert!(u.set_state(at(0), L2State::Shared));
        assert!(u.state_of(at(0)).is_some());
        assert!(u.has_invalid_way(at(0)));
        assert!(u.snarf_victim(at(0)).is_some());
        assert_eq!(u.invalidate(at(99)), None);
        assert!(
            !moved(&u),
            "touch, set_state, probes and a missing invalidate"
        );
        assert!(u.invalidate(at(0)).is_some());
        assert!(moved(&u), "invalidate that hit");

        for k in 0..cfg.l2_assoc {
            u.fill(at(k), L2State::Shared, InsertPosition::Mru);
            assert!(moved(&u), "fill {k}");
        }
        let ev = u.fill_history_aware(at(100), L2State::Shared, InsertPosition::Mru, 4, |l| {
            l == at(1)
        });
        assert_eq!(ev.map(|(l, _)| l), Some(at(1)));
        assert!(moved(&u), "history-aware fill into the known way");
        let ev = u.fill_history_aware(at(101), L2State::Shared, InsertPosition::Mru, 4, |_| false);
        assert_eq!(ev.map(|(l, _)| l), Some(at(0)));
        assert!(moved(&u), "history-aware fill by plain LRU");
        let way = u.snarf_victim(at(102)).expect("a Shared victim");
        assert!(!moved(&u), "snarf_victim");
        u.snarf_insert(at(102), way, L2State::SharedLast, InsertPosition::Mru);
        assert!(moved(&u), "snarf_insert");

        // Wrapping skips zero, so `Option<NonZeroU32>` stays niche-packed.
        u.epoch = NonZeroU32::MAX;
        u.bump_epoch();
        assert_eq!(u.epoch(), NonZeroU32::MIN);
    }

    #[test]
    fn snarf_flag_bookkeeping() {
        let mut u = unit();
        u.snarfed_lines.insert(
            42,
            SnarfFlags {
                used_locally: true,
                used_for_intervention: false,
            },
        );
        let f = u.retire_snarf_flags(LineAddr::new(42)).unwrap();
        assert!(f.used_locally);
        assert!(u.retire_snarf_flags(LineAddr::new(42)).is_none());
    }
}
