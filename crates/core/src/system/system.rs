//! The `System` orchestrator: it owns all simulator state and the event
//! loop, and dispatches each event to the protocol-phase module that
//! handles it (see the module map in [`crate::system`]).

use std::num::NonZeroU32;

use cmpsim_cache::LineAddr;
use cmpsim_coherence::{L2Id, L2State, SnoopCollector, SnoopResponse, TxnId, TxnState};
use cmpsim_engine::hash::{FxHashMap, FxHashSet};
use cmpsim_engine::profiler::{now_ticks, ticks_to_ns, HostProfiler, HostStage};
use cmpsim_engine::progress::ProgressMeter;
use cmpsim_engine::spans::SpanTracer;
use cmpsim_engine::stream::TelemetryStream;
use cmpsim_engine::telemetry::{IntervalSampler, Telemetry};
use cmpsim_engine::{Channel, Cycle, EventQueue};
use cmpsim_mem::{L3Cache, MemoryController};
use cmpsim_ring::{Ring, RingTopology};
use cmpsim_trace::{ReferenceSource, SyntheticWorkload, ThreadId};

use crate::config::{CoreCountError, L3Organization, SystemConfig};
use crate::policy::PolicyStack;
use crate::system::l1::L1Cache;
use crate::system::l2::L2Unit;
use crate::system::stats::SystemStats;
use crate::system::thread::ThreadCtx;

/// Simulation events. Bus transactions carry their full pipeline state
/// ([`TxnState`]) so every phase module reads and re-issues the same
/// explicit type.
#[derive(Debug, Clone, Copy)]
pub(super) enum Ev {
    /// A thread resumes issuing references.
    ThreadStep(ThreadId),
    /// A bus transaction arbitrates for the address ring.
    BusIssue(TxnState),
    /// Demand data arrives at the requesting L2.
    Fill {
        /// The filling L2.
        l2: L2Id,
        /// The line being installed.
        line: LineAddr,
        /// Install state granted by the combined response.
        state: L2State,
        /// On a re-poll of a blocked fill, the L2's residency epoch when
        /// it last found itself blocked; `None` for a bus delivery.
        epoch: Option<NonZeroU32>,
    },
    /// A snarfed castout arrives at the absorbing L2.
    SnarfFill {
        /// The absorbing L2.
        l2: L2Id,
        /// The absorbed line.
        line: LineAddr,
        /// Whether the line carries dirty data.
        dirty: bool,
    },
    /// The L2's write-back queue drains its next entry.
    WbDrain(L2Id),
}

// Every event is copied into and out of a calendar bucket: keep it 32
// bytes (the `BusIssue` payload's size).
const _: () = assert!(std::mem::size_of::<Ev>() == 32);

impl Ev {
    /// The host-profiler attribution bucket this event's handler bills
    /// to (the snoop window nested inside bus/castout handling is carved
    /// out separately by the handlers themselves).
    fn stage(&self) -> HostStage {
        match self {
            Ev::ThreadStep(_) => HostStage::Frontend,
            Ev::BusIssue(state) if state.txn.kind.is_castout() => HostStage::Castout,
            Ev::BusIssue(_) => HostStage::BusIssue,
            Ev::Fill { .. } | Ev::SnarfFill { .. } => HostStage::Fill,
            Ev::WbDrain(_) => HostStage::Castout,
        }
    }
}

/// One entry of [`System::wb_lines`]: a written-back line's raw address,
/// with the L3-accepted flag in bit 63, which no line number reaches at
/// a line size of 2 bytes or more (it is a 64-bit byte address divided
/// by the line size). It hashes and compares on the line alone, so one
/// probe finds a line whatever its flag, and an entry takes 8 bytes
/// where a `(u64, bool)` map entry takes 16.
#[derive(Debug, Clone, Copy)]
pub(super) struct WbLine(u64);

impl WbLine {
    const ACCEPTED: u64 = 1 << 63;

    /// A write-back of `line` the L3 has not accepted (yet).
    pub(super) fn pending(line: LineAddr) -> Self {
        debug_assert_eq!(line.raw() & Self::ACCEPTED, 0, "{line} uses bit 63");
        WbLine(line.raw())
    }

    /// A write-back of `line` the L3 accepted.
    pub(super) fn accepted(line: LineAddr) -> Self {
        WbLine(Self::pending(line).0 | Self::ACCEPTED)
    }

    /// Did the L3 accept this write-back?
    pub(super) fn is_accepted(self) -> bool {
        self.0 & Self::ACCEPTED != 0
    }

    fn line(self) -> u64 {
        self.0 & !Self::ACCEPTED
    }
}

impl PartialEq for WbLine {
    fn eq(&self, other: &Self) -> bool {
        self.line() == other.line()
    }
}

impl Eq for WbLine {}

impl std::hash::Hash for WbLine {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.line().hash(state);
    }
}

/// The modelled chip multiprocessor (paper Figure 1): 8 two-way-SMT
/// cores with private L1s, four sliced L2 caches, a bidirectional ring,
/// an off-chip L3 victim cache, and a memory controller — driven by a
/// synthetic workload and one of the four write-back policies.
///
/// # Example
///
/// ```
/// use cmp_adaptive_wb::{System, SystemConfig};
/// use cmpsim_trace::{Workload, CacheScale};
///
/// let cfg = SystemConfig::scaled(16);
/// let wl = Workload::Trade2.params(cfg.num_threads(), cfg.cache_scale());
/// let mut sys = System::new(cfg, wl)?;
/// let stats = sys.run(2_000);
/// assert!(stats.cycles > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct System {
    pub(super) cfg: SystemConfig,
    pub(super) workload: Box<dyn ReferenceSource>,
    pub(super) queue: EventQueue<Ev>,
    pub(super) ring: Ring,
    pub(super) collector: SnoopCollector,
    /// The L3 level: one shared victim cache, or (the organization is
    /// [`L3Organization::PrivatePerL2`]) one partition per L2.
    /// [`l3_for`](Self::l3_for) maps an L2 to its entry.
    pub(super) l3s: Vec<L3Cache>,
    /// The off-chip pathway to each entry of [`l3s`](Self::l3s).
    pub(super) l3_links: Vec<Channel>,
    pub(super) mem: MemoryController,
    pub(super) mem_link: Channel,
    pub(super) l2s: Vec<L2Unit>,
    pub(super) l1s: Vec<L1Cache>,
    pub(super) threads: Vec<ThreadCtx>,
    /// The configured adaptive mechanisms (WBHT, snarf, rivals) plus
    /// the shared retry-rate switch; every pipeline stage dispatches
    /// through the stack's hook points.
    pub(super) policy: PolicyStack,
    pub(super) txn_seq: TxnId,
    pub(super) stats: SystemStats,
    /// Lines written back and not yet re-referenced (Table 2 tracking):
    /// an entry present = write-back pending, its
    /// [accepted](WbLine::is_accepted) flag set = the L3 accepted the
    /// data (vs. dropped on the floor by a WBHT-suppressed or declined
    /// write-back).
    ///
    /// A castout's *first* bus attempt puts the line in unaccepted
    /// (`replace`, overwriting any stale accepted mark from a prior
    /// write-back generation); the L3 accepting the data sets the flag
    /// if the line is still pending; a demand miss on the line takes the
    /// entry, counting `reused_total` and — when flagged —
    /// `reused_accepted`. The two roles share one set because every hot
    /// path touches both together: one probe instead of two. The set
    /// only grows (streaming lines are cast out and never missed again),
    /// hence the 8-byte [`WbLine`] entry.
    pub(super) wb_lines: FxHashSet<WbLine>,
    /// Miss issue times for the latency histogram: (l2, line) -> cycle.
    pub(super) miss_issue: FxHashMap<(u8, u64), Cycle>,
    /// Lines in flight to an L2, keyed (l2, line), flagged
    /// [`INBOUND_FILL`](Self::INBOUND_FILL) for fills granted by a
    /// combined response but not yet landed and
    /// [`INBOUND_SNARF`](Self::INBOUND_SNARF) for snarfed castouts in
    /// transit to their absorber (in no tag array during the transfer,
    /// but with a line-fill buffer reserved). Snoops retry against
    /// either kind — ownership is in flight — and that hot joint probe
    /// ([`inbound_any`](Self::inbound_any), once per peer per snoop
    /// fan-out) is why both kinds share one map.
    pub(super) inbound: FxHashMap<(u8, u64), u8>,
    /// Recycled snoop-response buffer: the snoop layer takes it, fills
    /// it, and the bus layer hands it back after combining, so no bus
    /// transaction allocates a response vector.
    pub(super) snoop_scratch: Vec<SnoopResponse>,
    /// Recycled MSHR-waiter buffer for the completion layer, same
    /// pattern.
    pub(super) waiter_scratch: Vec<ThreadId>,
    /// Debug: line (raw) whose every transition is logged to stderr.
    /// Set via the `CMPSIM_TRACE_LINE` environment variable (hex).
    pub(super) trace_line: Option<u64>,
    /// Event-trace handle, shared (cloned) into every instrumented
    /// component. Disabled by default: one dead branch per emission site.
    pub(super) telemetry: Telemetry,
    /// Interval sampler snapshotting key counters every N cycles.
    pub(super) sampler: Option<IntervalSampler>,
    /// Transaction span tracer. Disabled by default: one dead branch per
    /// instrumentation site, mirroring `telemetry`.
    pub(super) spans: SpanTracer,
    /// Host-side wall-clock profiler. Disabled by default: the event
    /// loop then runs its uninstrumented path.
    pub(super) host: HostProfiler,
    /// True only while the profiler is timing the current dispatch;
    /// gates the nested snoop-window clock reads in the handlers.
    pub(super) host_sampling: bool,
    /// Clock ticks the current sampled dispatch spent inside snoop
    /// collection (subtracted from the outer stage, credited to Snoop).
    pub(super) host_nested: u64,
    /// Live telemetry stream (interval + host-sample frames). Disabled
    /// by default.
    pub(super) stream: TelemetryStream,
    /// Cell id tagged on every streamed frame (grid multiplexing).
    pub(super) stream_cell: u64,
    /// Progress heartbeat for long runs. Off by default.
    pub(super) progress: Option<ProgressMeter>,
    /// Decision-quality audit (WBHT verdict / snarf outcome lineage).
    /// Off by default: each hook is one `if let` branch, preserving
    /// byte-identical statistics and golden spans when disabled.
    pub(super) audit: Option<Box<crate::system::audit::DecisionAudit>>,
}

/// Errors from building a [`System`].
#[derive(Debug)]
pub enum SystemError {
    /// A core count that does not pair up onto the L2s.
    Cores(CoreCountError),
    /// Invalid cache geometry in the configuration.
    Geometry(cmpsim_cache::GeometryError),
    /// A history-table size no table can be built with.
    Table(crate::policy::TableSizeError),
    /// Invalid workload parameters.
    Workload(cmpsim_trace::WorkloadError),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Cores(e) => write!(f, "invalid core count: {e}"),
            SystemError::Geometry(e) => write!(f, "invalid geometry: {e}"),
            SystemError::Table(e) => write!(f, "invalid history table: {e}"),
            SystemError::Workload(e) => write!(f, "invalid workload: {e}"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<cmpsim_cache::GeometryError> for SystemError {
    fn from(e: cmpsim_cache::GeometryError) -> Self {
        SystemError::Geometry(e)
    }
}

impl From<crate::policy::TableSizeError> for SystemError {
    fn from(e: crate::policy::TableSizeError) -> Self {
        SystemError::Table(e)
    }
}

impl From<cmpsim_trace::WorkloadError> for SystemError {
    fn from(e: cmpsim_trace::WorkloadError) -> Self {
        SystemError::Workload(e)
    }
}

impl System {
    /// Builds a system from a configuration and workload parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] for invalid core counts, geometries or
    /// workloads.
    pub fn new(
        cfg: SystemConfig,
        workload_params: cmpsim_trace::WorkloadParams,
    ) -> Result<Self, SystemError> {
        cfg.validate()?;
        let workload = SyntheticWorkload::new(workload_params, cfg.seed)?;
        Self::with_source(cfg, Box::new(workload))
    }

    /// Builds a system over any reference source — a synthetic workload
    /// or a recorded-trace playback ([`cmpsim_trace::TracePlayback`]),
    /// matching the paper's trace-driven methodology.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] for invalid core counts or geometries.
    pub fn with_source(
        cfg: SystemConfig,
        workload: Box<dyn ReferenceSource>,
    ) -> Result<Self, SystemError> {
        cfg.validate()?;

        // Policy wiring: the stack holds every configured mechanism; the
        // pipeline stages dispatch through its hook points.
        let policy = PolicyStack::new(&cfg.policy, cfg.num_l2 as usize, cfg.retry_switch)?;

        let l2s = L2Id::all(cfg.num_l2)
            .map(|id| L2Unit::new(id, &cfg))
            .collect::<Vec<_>>();

        let l1s = match cfg.l1 {
            Some(l1cfg) => (0..cfg.cores)
                .map(|_| L1Cache::new(l1cfg, cfg.line_bytes))
                .collect(),
            None => Vec::new(),
        };

        let topo = RingTopology::standard_cmp(cfg.num_l2, cfg.ring.hop_cycles);
        let ring = Ring::new(topo, cfg.ring);
        let num_l2 = cfg.num_l2 as usize;

        let (l3_cfg, num_l3) = match cfg.l3_organization {
            L3Organization::SharedVictim => (cfg.l3, 1),
            L3Organization::PrivatePerL2 => {
                // Same total capacity, partitioned per L2.
                let mut pc = cfg.l3;
                let per = cfg.l3.geometry.per_slice().size_bytes() / cfg.num_l2 as u64;
                pc.geometry = cmpsim_cache::SlicedGeometry::new(
                    cfg.l3.geometry.slices(),
                    per.max(cfg.line_bytes * cfg.l3.geometry.per_slice().assoc()),
                    cfg.l3.geometry.per_slice().assoc(),
                    cfg.line_bytes,
                )?;
                (pc, num_l2)
            }
        };
        Ok(System {
            ring,
            collector: SnoopCollector::new(),
            l3s: (0..num_l3).map(|_| L3Cache::new(l3_cfg)).collect(),
            l3_links: (0..num_l3)
                .map(|_| Channel::new(cfg.l3_link_lanes, cfg.l3_link_occupancy))
                .collect(),
            mem: MemoryController::new(cfg.mem),
            mem_link: Channel::new(cfg.mem_link_lanes, cfg.mem_link_occupancy),
            l2s,
            l1s,
            threads: Vec::new(),
            policy,
            txn_seq: TxnId::ZERO,
            stats: SystemStats::new(num_l2),
            wb_lines: FxHashSet::default(),
            miss_issue: FxHashMap::default(),
            inbound: FxHashMap::default(),
            snoop_scratch: Vec::new(),
            waiter_scratch: Vec::new(),
            trace_line: std::env::var("CMPSIM_TRACE_LINE")
                .ok()
                .and_then(|v| u64::from_str_radix(v.trim_start_matches("0x"), 16).ok()),
            queue: EventQueue::new(),
            workload,
            cfg,
            telemetry: Telemetry::disabled(),
            sampler: None,
            spans: SpanTracer::disabled(),
            host: HostProfiler::disabled(),
            host_sampling: false,
            host_nested: 0,
            stream: TelemetryStream::disabled(),
            stream_cell: 0,
            progress: None,
            audit: None,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Runs the simulation until every thread has consumed
    /// `refs_per_thread` references and drained its misses. Returns the
    /// accumulated statistics.
    ///
    /// Calling `run` again continues with warm caches and tables (and a
    /// fresh set of thread contexts) on the same virtual clock;
    /// statistics — including the cycle count — keep accumulating.
    pub fn run(&mut self, refs_per_thread: u64) -> SystemStats {
        let n = self.cfg.num_threads();
        let start = self.queue.now();
        self.threads = (0..n)
            .map(|_| {
                let mut t = ThreadCtx::new(refs_per_thread);
                t.next_time = start;
                t
            })
            .collect();
        for t in ThreadId::all(n) {
            self.queue.push(start, Ev::ThreadStep(t));
        }
        self.stream_run_start(refs_per_thread);
        if self.host.is_enabled() {
            self.run_loop_profiled();
        } else {
            self.run_loop_plain();
        }
        self.finalize_stats();
        if self.sampler.is_some() {
            self.close_intervals(self.stats.cycles, true);
        }
        self.finish_host_observation();
        self.telemetry.flush();
        self.stats.clone()
    }

    /// The uninstrumented event loop: exactly the pre-profiler hot path
    /// (one dead branch each for the sampler and the progress meter), so
    /// runs with host observability off stay byte-identical and full
    /// speed.
    fn run_loop_plain(&mut self) {
        // u64::MAX never decrements to zero, so the budget check is a
        // never-taken branch and this is the whole event loop.
        self.run_chunk_plain(u64::MAX);
    }

    /// Runs up to `budget` untimed event-loop iterations; returns
    /// `false` once the queue is exhausted. Out of line on purpose: the
    /// plain and profiled loops share this one copy of the hot path, so
    /// enabling the profiler cannot shift its code layout — the only
    /// added cost per untimed event is the budget decrement.
    #[inline(never)]
    fn run_chunk_plain(&mut self, budget: u64) -> bool {
        let mut n = budget;
        while n != 0 {
            n -= 1;
            let Some((now, ev)) = self.queue.pop() else {
                return false;
            };
            self.dispatch(now, ev);
            // Debug builds sweep coherence invariants on a stride: the
            // full-cache walk is O(resident lines), so doing it on every
            // event would make `cargo test` unusably slow, and release
            // builds skip it entirely.
            #[cfg(debug_assertions)]
            if self.queue.popped() & 0x3FF == 0 {
                self.assert_invariants();
            }
            if self.sampler.as_ref().is_some_and(|s| s.due(now)) {
                self.close_intervals(now, false);
            }
            if self.progress.is_some() && self.queue.popped() & 0x1FFF == 0 {
                self.progress_beat();
            }
        }
        true
    }

    /// The profiled event loop: times one full iteration out of every
    /// `stride` (pop → dispatch → observation tail) and scales the
    /// observed ticks up, so per-stage attribution converges on the true
    /// wall-time split while the untimed iterations pay only a counter
    /// decrement over [`run_loop_plain`](Self::run_loop_plain).
    fn run_loop_profiled(&mut self) {
        let host = self.host.clone();
        let stride = u64::from(host.stride());
        // At stride 1 the timed windows tile the loop: each iteration
        // reuses the previous one's closing timestamp as its opening
        // one, so the profiler's own accounting cost is attributed (to
        // `EventQueue`) instead of leaking into the coverage residual.
        let contiguous = stride == 1;
        let mut carry = 0u64;
        // Measured with the same clock the stage samples use, so any
        // TSC calibration error cancels out of the coverage ratio.
        let run_wall = now_ticks();
        loop {
            if !self.profiled_iteration(&host, contiguous, &mut carry) {
                break;
            }
            // stride - 1 untimed iterations through the shared hot path.
            if !self.run_chunk_plain(stride - 1) {
                break;
            }
        }
        host.record_run_wall(ticks_to_ns(now_ticks().saturating_sub(run_wall)));
    }

    /// One timed event-loop iteration (see
    /// [`run_loop_profiled`](Self::run_loop_profiled)). Kept out of line
    /// so the untimed fast path optimizes like the plain loop; at large
    /// strides virtually every iteration takes that path.
    #[inline(never)]
    fn profiled_iteration(
        &mut self,
        host: &HostProfiler,
        contiguous: bool,
        carry: &mut u64,
    ) -> bool {
        let t_pop = if contiguous && *carry != 0 {
            *carry
        } else {
            now_ticks()
        };
        let Some((now, ev)) = self.queue.pop() else {
            return false;
        };
        let t_dispatch = now_ticks();
        let stage = ev.stage();
        self.host_sampling = true;
        self.host_nested = 0;
        self.dispatch(now, ev);
        self.host_sampling = false;
        let t_observe = now_ticks();
        let nested = self.host_nested;
        #[cfg(debug_assertions)]
        if self.queue.popped() & 0x3FF == 0 {
            self.assert_invariants();
        }
        if self.sampler.as_ref().is_some_and(|s| s.due(now)) {
            self.close_intervals(now, false);
        }
        if self.progress.is_some() && self.queue.popped() & 0x1FFF == 0 {
            self.progress_beat();
        }
        let t_done = now_ticks();
        *carry = t_done;
        host.add_sampled(HostStage::EventQueue, t_dispatch.saturating_sub(t_pop), 1);
        host.add_sampled(
            stage,
            t_observe.saturating_sub(t_dispatch).saturating_sub(nested),
            1,
        );
        if nested > 0 {
            host.add_sampled(HostStage::Snoop, nested, 1);
        }
        host.add_sampled(HostStage::Observe, t_done.saturating_sub(t_observe), 0);
        true
    }

    /// Routes one event to its phase module.
    fn dispatch(&mut self, now: Cycle, ev: Ev) {
        match ev {
            Ev::ThreadStep(t) => self.handle_thread_step(now, t),
            Ev::BusIssue(state) => self.handle_bus_issue(now, state),
            Ev::Fill {
                l2,
                line,
                state,
                epoch,
            } => self.handle_fill(now, l2, line, state, epoch),
            Ev::SnarfFill { l2, line, dirty } => self.handle_snarf_fill(now, l2, line, dirty),
            Ev::WbDrain(l2) => self.handle_wb_drain(now, l2),
        }
    }

    /// The index in [`l3s`](Self::l3s) and [`l3_links`](Self::l3_links)
    /// of the L3 that absorbs L2 `i`'s castouts and serves its misses.
    #[inline]
    pub(super) fn l3_for(&self, i: usize) -> usize {
        match self.cfg.l3_organization {
            L3Organization::SharedVictim => 0,
            L3Organization::PrivatePerL2 => i,
        }
    }

    /// Logs `msg` to stderr when `line` is the `CMPSIM_TRACE_LINE` line.
    #[inline]
    pub(super) fn trace(&self, line: LineAddr, msg: &dyn Fn() -> String) {
        if self.trace_line == Some(line.raw()) {
            eprintln!("[trace {line}] {}", msg());
        }
    }

    /// [`inbound`](Self::inbound) flag: a granted demand fill in flight.
    pub(super) const INBOUND_FILL: u8 = 1;
    /// [`inbound`](Self::inbound) flag: a snarfed castout in flight.
    pub(super) const INBOUND_SNARF: u8 = 2;

    /// Marks a `kind` transfer to `l2` as in flight.
    #[inline]
    pub(super) fn inbound_insert(&mut self, l2: u8, raw: u64, kind: u8) {
        *self.inbound.entry((l2, raw)).or_insert(0) |= kind;
    }

    /// Clears a `kind` transfer to `l2`, dropping the entry when no
    /// transfer of the other kind remains in flight.
    #[inline]
    pub(super) fn inbound_remove(&mut self, l2: u8, raw: u64, kind: u8) {
        if let std::collections::hash_map::Entry::Occupied(mut e) = self.inbound.entry((l2, raw)) {
            *e.get_mut() &= !kind;
            if *e.get() == 0 {
                e.remove();
            }
        }
    }

    /// Is any transfer (fill or snarf) to `l2` in flight for this line?
    /// The snoop fan-out's joint probe — one lookup for both kinds.
    #[inline]
    pub(super) fn inbound_any(&self, l2: u8, raw: u64) -> bool {
        self.inbound.contains_key(&(l2, raw))
    }

    /// Is a `kind` transfer to `l2` in flight for this line?
    #[inline]
    pub(super) fn inbound_has(&self, l2: u8, raw: u64, kind: u8) -> bool {
        self.inbound.get(&(l2, raw)).is_some_and(|f| f & kind != 0)
    }
}

#[cfg(test)]
mod tests {
    use cmpsim_cache::LineAddr;
    use cmpsim_engine::hash::FxHashSet;

    use super::WbLine;

    #[test]
    fn wb_line_entries_match_on_the_line_alone() {
        let line = LineAddr::new(0xFFFF_FFFF_FFFF);
        let mut set = FxHashSet::default();
        assert!(set.replace(WbLine::pending(line)).is_none());
        // Accepting replaces the entry in place: still one entry.
        assert!(set.contains(&WbLine::accepted(line)));
        assert!(!set.replace(WbLine::accepted(line)).unwrap().is_accepted());
        assert_eq!(set.len(), 1);
        // A new write-back generation clears the accepted mark.
        assert!(set.replace(WbLine::pending(line)).unwrap().is_accepted());
        set.replace(WbLine::accepted(line));
        // A demand miss takes the entry with its flag.
        assert!(set.take(&WbLine::pending(line)).unwrap().is_accepted());
        assert!(set.is_empty());
        assert!(set.take(&WbLine::pending(line)).is_none());
    }
}
