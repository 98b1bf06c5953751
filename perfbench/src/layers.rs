//! Per-layer replays: the headline run's own traffic pushed through each
//! crate's public functions, outside the simulator, so each structure's
//! host cost per operation is measured on the operations and populations
//! the workload gives it.
//!
//! Every input comes from the run. The workload generator's reference
//! stream, filtered through the public L1 model, feeds the L2 tag arrays.
//! Everything below the L2 replays the events a recorded run of the
//! headline cell emitted (see [`Recorder`]): its misses and fills, the
//! castouts the policy let onto the bus with their outcomes, its L3
//! retries, and its history-table lookups and allocations. The
//! event-queue replay runs at the run's high-water population with the
//! delays between successive events of the traced run's sampled
//! transaction spans.

use std::hint::black_box;
use std::io::Write as _;
use std::ops::Range;
use std::time::Instant;

use cmp_adaptive_wb::system::L1Cache;
use cmp_adaptive_wb::SystemConfig;
use cmpsim_cache::{
    HistoryTable, InsertPosition, LineAddr, MshrFile, ReplacementPolicy, SlicedGeometry, TagArray,
};
use cmpsim_coherence::{
    AgentId, BusTxn, L2Id, L2State, L3State, SnoopCollector, SnoopResponse, TxnId, TxnKind,
};
use cmpsim_engine::hash::FxHashMap;
use cmpsim_engine::telemetry::{EventSink, FillSource, L3RetryReason, SimEvent, SquashReason};
use cmpsim_engine::{Cycle, EventQueue};
use cmpsim_mem::{L3Cache, MemoryController};
use cmpsim_ring::{Ring, RingTopology};
use cmpsim_trace::{SyntheticWorkload, ThreadId, WorkloadParams};

/// What one replay needs to know about the workload and its run.
pub struct LayerInputs<'a> {
    /// The policy run's configuration (geometry, seed, latencies).
    pub cfg: &'a SystemConfig,
    /// The workload's generator parameters.
    pub params: &'a WorkloadParams,
    /// References to generate and replay (the run's, warm-up included).
    pub records: usize,
    /// History-table entries per L2 (the workload's table size).
    pub table_entries: u64,
    /// Event-queue population to replay at (the run's high water).
    pub eq_population: usize,
    /// Delays between successive events of the traced run's sampled
    /// transaction spans (their phase-segment lengths), in cycles.
    pub delays: &'a [Cycle],
    /// The recorded run's traffic below the L2.
    pub traffic: &'a Traffic,
}

/// One span of the benchmark's own trace: a layer-replay call.
#[derive(Debug, Clone)]
pub struct BenchSpan {
    /// Span id (index into the log).
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Layer or phase name.
    pub name: String,
    /// Start, ns since the log was created.
    pub start_ns: u64,
    /// End, ns since the log was created (0 while open).
    pub end_ns: u64,
}

/// In-memory span log, written once when the benchmark ends.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<BenchSpan>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(BenchSpan {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: 0,
        });
        id
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Writes the spans as Chrome trace events (one complete event per
    /// span, id and parent in `args`) to `path`.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id,
                parent,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// A recorded run's traffic below the L2, reduced to what each layer
/// consumes.
#[derive(Default)]
pub struct Traffic {
    /// MSHR operations in emission order: `(l2, line, allocate)`; a
    /// miss allocates, its fill completes.
    mshr: Vec<(u8, u64, bool)>,
    /// Demand fills in emission order: `(l2, line)`.
    fills: Vec<(u8, u64)>,
    /// History-table operations in emission order: `(l2, line, record)`;
    /// a WBHT consult looks up, a WBHT allocation records.
    wbht: Vec<(u8, u64, bool)>,
    /// Bus transactions in combine order, with their responses' range.
    txns: Vec<(BusTxn, Range<usize>)>,
    /// Snoop responses, per transaction as the recorded outcome implies.
    responses: Vec<SnoopResponse>,
    /// Ring traffic in cycle order: `(cycle, issuer, data (source,
    /// destination))`; squashed and retried transactions move no data.
    ring: Vec<(Cycle, AgentId, Option<(AgentId, AgentId)>)>,
    /// L3 operations in cycle order: `(cycle, line, castout)`; a read
    /// snoop has `None`, an accepted castout its dirty bit.
    l3: Vec<(Cycle, u64, Option<bool>)>,
    /// Memory reads (fills from memory) in cycle order.
    mem: Vec<(Cycle, u64)>,
}

impl Traffic {
    /// Bus transactions the run combined (a retried one once per try).
    pub fn transactions(&self) -> usize {
        self.txns.len()
    }

    /// Appends one bus transaction `(kind, source L2, line, snarf
    /// eligible)`: every other L2 answers `Null` except `peer`, then the
    /// L3 answers `l3` and memory acks.
    fn push_txn(
        &mut self,
        id: &mut TxnId,
        num_l2: u8,
        (kind, src, line, snarf): (TxnKind, u8, u64, bool),
        peer: Option<(u8, SnoopResponse)>,
        l3: SnoopResponse,
    ) {
        let begin = self.responses.len();
        for p in (0..num_l2).filter(|&p| p != src) {
            self.responses.push(match peer {
                Some((q, r)) if q == p => r,
                _ => SnoopResponse::Null,
            });
        }
        self.responses.push(l3);
        self.responses.push(SnoopResponse::MemoryAck);
        let mut txn = BusTxn::new(id.bump(), kind, LineAddr::new(line), L2Id::new(src));
        if snarf {
            txn = txn.with_snarf();
        }
        self.txns.push((txn, begin..self.responses.len()));
    }
}

/// An event sink that reduces a run's events to [`Traffic`] as they are
/// emitted, so the raw events are never held. Emission order is the
/// order the simulator combined its bus transactions in.
///
/// The events name each fill's source and each castout's outcome but
/// not which peer intervened or held a copy, nor whether an
/// intervention was dirty: that peer is taken to be the last L2 the
/// events moved the line into (a fill or a snarf), and every
/// intervention is clean.
#[derive(Default)]
pub struct Recorder {
    num_l2: u8,
    /// The policy consults a WBHT on every clean castout it drains. With
    /// the retry switch off the consult emits no event of its own, so a
    /// consult is counted at the castout's issue or abort.
    wbht: bool,
    traffic: Traffic,
    /// Outstanding primary misses: (l2, line) -> (miss cycle, store).
    misses: FxHashMap<(u8, u64), (Cycle, bool)>,
    /// Castouts on the bus awaiting their outcome: (l2, line) ->
    /// (issue cycle, dirty, snarf-eligible).
    castouts: FxHashMap<(u8, u64), (Cycle, bool, bool)>,
    /// The L2 each line last moved into.
    holder: FxHashMap<u64, u8>,
    next_txn: TxnId,
}

impl Recorder {
    /// An empty recorder for a machine with `num_l2` L2s, whose policy
    /// does (`wbht`) or does not filter clean castouts through a WBHT.
    pub fn new(num_l2: u8, wbht: bool) -> Self {
        Recorder {
            num_l2,
            wbht,
            ..Default::default()
        }
    }

    /// The traffic recorded so far, with the cycle-ordered streams
    /// sorted.
    pub fn finish(self) -> Traffic {
        let mut t = self.traffic;
        t.ring.sort_by_key(|r| r.0);
        t.l3.sort_by_key(|r| r.0);
        t.mem.sort_by_key(|r| r.0);
        t
    }

    /// The peer assumed to answer for `line` on a transaction from `l2`.
    fn peer_of(&self, line: u64, l2: u8) -> u8 {
        self.holder
            .get(&line)
            .copied()
            .filter(|&h| h != l2)
            .unwrap_or((l2 + 1) % self.num_l2)
    }

    fn txn(
        &mut self,
        what: (TxnKind, u8, u64, bool),
        peer: Option<(u8, SnoopResponse)>,
        l3: SnoopResponse,
    ) {
        let num_l2 = self.num_l2;
        self.traffic
            .push_txn(&mut self.next_txn, num_l2, what, peer, l3);
    }
}

impl EventSink for Recorder {
    fn emit(&mut self, now: Cycle, event: &SimEvent) {
        match *event {
            SimEvent::L2Miss { l2, line, store } => {
                let l2 = l2 as u8;
                self.traffic.mshr.push((l2, line, true));
                self.misses.entry((l2, line)).or_insert((now, store));
            }
            SimEvent::L2Fill {
                l2,
                line,
                source,
                latency,
            } => {
                let l2 = l2 as u8;
                // A fill with no recorded miss is an upgrade the bus
                // turned into a read for ownership.
                let (at, store) = self
                    .misses
                    .remove(&(l2, line))
                    .unwrap_or((now.saturating_sub(latency), true));
                self.traffic.mshr.push((l2, line, false));
                self.traffic.fills.push((l2, line));
                let (peer, l3, src) = match source {
                    FillSource::L2Peer => {
                        let p = self.peer_of(line, l2);
                        let r = SnoopResponse::CleanIntervene(L2Id::new(p));
                        let src = AgentId::L2(L2Id::new(p));
                        (Some((p, r)), SnoopResponse::L3Miss, src)
                    }
                    FillSource::L3 => (None, SnoopResponse::L3Hit(L3State::Clean), AgentId::L3),
                    FillSource::Memory => {
                        self.traffic.mem.push((at, line));
                        (None, SnoopResponse::L3Miss, AgentId::Memory)
                    }
                };
                let kind = if store {
                    TxnKind::ReadExclusive
                } else {
                    TxnKind::ReadShared
                };
                self.txn((kind, l2, line, false), peer, l3);
                let me = AgentId::L2(L2Id::new(l2));
                self.traffic.ring.push((at, me, Some((src, me))));
                self.traffic.l3.push((at, line, None));
                self.holder.insert(line, l2);
            }
            SimEvent::CastoutIssued {
                l2,
                line,
                dirty,
                snarf_eligible,
            } => {
                if self.wbht && !dirty {
                    self.traffic.wbht.push((l2 as u8, line, false));
                }
                self.castouts
                    .insert((l2 as u8, line), (now, dirty, snarf_eligible));
            }
            SimEvent::CastoutAborted { l2, line } => {
                self.traffic.wbht.push((l2 as u8, line, false));
            }
            SimEvent::CastoutSquashed { l2, line, .. }
            | SimEvent::CastoutSnarfed { l2, line, .. }
            | SimEvent::CastoutAccepted { l2, line } => {
                let l2 = l2 as u8;
                let Some((at, dirty, snarf)) = self.castouts.remove(&(l2, line)) else {
                    return;
                };
                let me = AgentId::L2(L2Id::new(l2));
                let (peer, l3, data) = match *event {
                    SimEvent::CastoutSquashed {
                        reason: SquashReason::PeerHasCopy,
                        ..
                    } => {
                        let p = self.peer_of(line, l2);
                        let r = SnoopResponse::PeerHasCopy(L2Id::new(p));
                        (Some((p, r)), SnoopResponse::L3Accept, None)
                    }
                    SimEvent::CastoutSquashed { .. } => {
                        (None, SnoopResponse::L3Hit(L3State::Clean), None)
                    }
                    SimEvent::CastoutSnarfed { by, .. } => {
                        let by = by as u8;
                        self.holder.insert(line, by);
                        let r = SnoopResponse::SnarfAccept(L2Id::new(by));
                        let dst = AgentId::L2(L2Id::new(by));
                        (Some((by, r)), SnoopResponse::L3Accept, Some((me, dst)))
                    }
                    _ => {
                        self.traffic.l3.push((now, line, Some(dirty)));
                        (None, SnoopResponse::L3Accept, Some((me, AgentId::L3)))
                    }
                };
                let kind = if dirty {
                    TxnKind::CastoutDirty
                } else {
                    TxnKind::CastoutClean
                };
                self.txn((kind, l2, line, snarf), peer, l3);
                self.traffic.ring.push((at, me, data));
            }
            SimEvent::L3Retry { reason, line } => {
                // The retried transaction is the outstanding one on this
                // line: a read for a full read queue, else a castout.
                let read = reason == L3RetryReason::ReadQueueFull;
                let found = (0..self.num_l2).find_map(|l2| {
                    if read {
                        self.misses
                            .get(&(l2, line))
                            .map(|&(_, store)| (l2, store, false))
                    } else {
                        self.castouts
                            .get(&(l2, line))
                            .map(|&(_, dirty, snarf)| (l2, dirty, snarf))
                    }
                });
                let Some((l2, flag, snarf)) = found else {
                    return;
                };
                let kind = match (read, flag) {
                    (true, true) => TxnKind::ReadExclusive,
                    (true, false) => TxnKind::ReadShared,
                    (false, true) => TxnKind::CastoutDirty,
                    (false, false) => TxnKind::CastoutClean,
                };
                self.txn((kind, l2, line, snarf), None, SnoopResponse::L3Retry);
                let me = AgentId::L2(L2Id::new(l2));
                self.traffic.ring.push((now, me, None));
                if read {
                    self.traffic.l3.push((now, line, None));
                }
            }
            SimEvent::WbhtAllocate { l2, line } => {
                self.traffic.wbht.push((l2 as u8, line, true));
            }
            _ => {}
        }
    }
}

/// Nanoseconds per operation for `ops` operations that took `start..now`.
fn ns_per(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Host ns per operation of each kind in a recorded stream that mixes
/// two kinds, replayed in order on fresh state: the whole stream runs
/// once, then only its `b` operations. The second run gives `b`'s cost
/// and the difference `a`'s. Returns `(a, b)`; a kind the stream lacks
/// costs 0.
fn split_cost<S, O>(
    ops: &[O],
    is_b: impl Fn(&O) -> bool,
    fresh: impl Fn() -> S,
    mut apply: impl FnMut(&mut S, &O),
) -> (f64, f64) {
    let b_ops: Vec<&O> = ops.iter().filter(|o| is_b(o)).collect();
    let mut state = fresh();
    let start = Instant::now();
    for o in ops {
        apply(&mut state, o);
    }
    let all_ns = start.elapsed().as_nanos() as f64;
    drop(black_box(state));
    let mut state = fresh();
    let start = Instant::now();
    for o in &b_ops {
        apply(&mut state, o);
    }
    let b_ns = start.elapsed().as_nanos() as f64;
    drop(black_box(state));
    let per = |ns: f64, n: usize| if n == 0 { 0.0 } else { ns / n as f64 };
    (
        per((all_ns - b_ns).max(0.0), ops.len() - b_ops.len()),
        per(b_ns, b_ops.len()),
    )
}

/// One generated reference, reduced to what the L1 and L2 consume.
#[derive(Clone, Copy)]
struct Ref {
    thread: u16,
    line: u64,
    store: bool,
}

/// Per-L2 sliced tag arrays, as the simulator's L2 units hold them.
struct L2Tags {
    geom: SlicedGeometry,
    arrays: Vec<Vec<TagArray<L2State>>>,
}

impl L2Tags {
    fn new(cfg: &SystemConfig) -> Self {
        let geom = SlicedGeometry::new(
            cfg.l2_slices,
            cfg.l2_slice_bytes,
            cfg.l2_assoc,
            cfg.line_bytes,
        )
        .expect("the run validated this L2 geometry");
        let arrays = (0..cfg.num_l2)
            .map(|_| {
                (0..cfg.l2_slices)
                    .map(|_| TagArray::new(geom.per_slice(), ReplacementPolicy::Lru))
                    .collect()
            })
            .collect();
        L2Tags { geom, arrays }
    }

    fn slot(&mut self, l2: u8, line: u64) -> (&mut TagArray<L2State>, LineAddr) {
        let line = LineAddr::new(line);
        let slice = self.geom.slice_of(line) as usize;
        (
            &mut self.arrays[l2 as usize][slice],
            self.geom.slice_local(line),
        )
    }

    /// Global line address of a slice-local victim.
    fn global(&self, slice: usize, local: LineAddr) -> u64 {
        (local.raw() << self.geom.slices().trailing_zeros()) | slice as u64
    }
}

/// Results of one replay round, as `(metric name, value)`.
pub type LayerMetrics = Vec<(&'static str, f64)>;

/// Runs one replay round over every layer, recording one span per layer
/// under `parent`.
pub fn replay(inp: &LayerInputs, log: &mut SpanLog, parent: usize) -> LayerMetrics {
    let cfg = inp.cfg;
    let traffic = inp.traffic;
    let mut out = LayerMetrics::new();
    let threads = inp.params.threads as usize;

    // trace: generate the workload's stream, round-robin over threads as
    // the event loop interleaves them.
    let refs = log.scope("trace.next_record", Some(parent), || {
        let mut gen = SyntheticWorkload::new(inp.params.clone(), cfg.seed)
            .expect("the run validated these parameters");
        let mut refs = Vec::with_capacity(inp.records);
        let start = Instant::now();
        for i in 0..inp.records {
            let t = (i % threads) as u16;
            let r = gen.next_record(ThreadId::new(t));
            refs.push(Ref {
                thread: t,
                line: r.addr.line(cfg.line_bytes).raw(),
                store: r.op.is_store(),
            });
        }
        out.push(("trace.next_record_ns", ns_per(start, inp.records)));
        refs
    });

    // cache.l2_tag: the stream as the L2s see it. Loads that hit the L1
    // stop there; an L2 hit refreshes recency, a miss inserts; a store
    // invalidates peer copies, and a line an L2 loses leaves its L1s.
    log.scope("cache.l2_tag", Some(parent), || {
        let mut l1s: Vec<L1Cache> = match cfg.l1 {
            Some(c) => (0..cfg.cores)
                .map(|_| L1Cache::new(c, cfg.line_bytes))
                .collect(),
            None => Vec::new(),
        };
        let tpc = u16::from(cfg.threads_per_core);
        let l1_l2: Vec<u8> = (0..l1s.len())
            .map(|core| cfg.l2_of_thread(ThreadId::new(core as u16 * tpc)).index() as u8)
            .collect();
        let back_invalidate = |l1s: &mut [L1Cache], l2: u8, line: u64| {
            for (l1, _) in l1s.iter_mut().zip(&l1_l2).filter(|(_, o)| **o == l2) {
                l1.invalidate(LineAddr::new(line));
            }
        };
        let mut l2 = L2Tags::new(cfg);
        let mut stream: Vec<(u8, u64)> = Vec::new();
        let mut hits = 0usize;
        for r in &refs {
            let t = ThreadId::new(r.thread);
            let core = cfg.core_of_thread(t);
            let me = cfg.l2_of_thread(t).index() as u8;
            let line = LineAddr::new(r.line);
            if !r.store && !l1s.is_empty() && l1s[core].load(line) {
                continue;
            }
            stream.push((me, r.line));
            let (arr, local) = l2.slot(me, r.line);
            if arr.touch(local) {
                hits += 1;
                if r.store {
                    arr.set_state(local, L2State::Modified);
                }
            } else {
                let st = if r.store {
                    L2State::Modified
                } else {
                    L2State::Exclusive
                };
                if let Some(ev) = arr.insert(local, st, InsertPosition::Mru) {
                    let slice = l2.geom.slice_of(line) as usize;
                    let victim = l2.global(slice, ev.line);
                    back_invalidate(&mut l1s, me, victim);
                }
            }
            if r.store {
                for p in (0..cfg.num_l2).filter(|&p| p != me) {
                    let (arr, local) = l2.slot(p, r.line);
                    if arr.invalidate(local).is_some() {
                        back_invalidate(&mut l1s, p, r.line);
                    }
                }
            } else if !l1s.is_empty() {
                l1s[core].fill(line);
            }
        }
        out.push((
            "cache.l2_tag.hit_rate",
            hits as f64 / stream.len().max(1) as f64,
        ));

        // Probe cost on the warmed arrays, hits and misses as the
        // post-L1 stream mixes them.
        let start = Instant::now();
        let mut found = 0usize;
        for &(me, line) in &stream {
            let (arr, local) = l2.slot(me, line);
            found += usize::from(black_box(arr.probe(local)).is_some());
        }
        black_box(found);
        out.push(("cache.l2_tag.probe_ns", ns_per(start, stream.len())));

        // Insert cost: the run's own fills, in order, into empty arrays
        // (probe, then insert when absent, as the simulator fills).
        let mut fresh = L2Tags::new(cfg);
        let start = Instant::now();
        for &(me, line) in &traffic.fills {
            let (arr, local) = fresh.slot(me, line);
            if arr.probe(local).is_none() {
                black_box(arr.insert(local, L2State::Exclusive, InsertPosition::Mru));
            }
        }
        out.push(("cache.l2_tag.insert_ns", ns_per(start, traffic.fills.len())));
    });

    // cache.l3_tag: accepted castouts fill the victim cache, read snoops
    // probe it, in cycle order.
    let l3_geom = cfg.l3.geometry;
    log.scope("cache.l3_tag", Some(parent), || {
        let fresh = || -> Vec<TagArray<L3State>> {
            (0..l3_geom.slices())
                .map(|_| TagArray::new(l3_geom.per_slice(), ReplacementPolicy::Lru))
                .collect()
        };
        let (probe_ns, _) = split_cost(
            &traffic.l3,
            |op| op.2.is_some(),
            fresh,
            |tags, &(_, line, castout)| {
                let line = LineAddr::new(line);
                let s = l3_geom.slice_of(line) as usize;
                let local = l3_geom.slice_local(line);
                let present = black_box(tags[s].probe(local)).is_some();
                if let (Some(dirty), false) = (castout, present) {
                    let st = if dirty {
                        L3State::Dirty
                    } else {
                        L3State::Clean
                    };
                    tags[s].insert(local, st, InsertPosition::Mru);
                }
            },
        );
        out.push(("cache.l3_tag.probe_ns", probe_ns));
    });

    // cache.wbht: the run's own consults and allocations, per L2.
    log.scope("cache.wbht", Some(parent), || {
        let fresh = || -> Vec<HistoryTable<()>> {
            (0..cfg.num_l2)
                .map(|_| {
                    HistoryTable::new(inp.table_entries, 16).expect("power-of-two table geometry")
                })
                .collect()
        };
        let (lookup_ns, record_ns) = split_cost(
            &traffic.wbht,
            |op| op.2,
            fresh,
            |tables, &(l2, line, record)| {
                let table = &mut tables[l2 as usize];
                if record {
                    table.record(LineAddr::new(line), ());
                } else {
                    black_box(table.lookup(LineAddr::new(line)));
                }
            },
        );
        out.push(("cache.wbht.record_ns", record_ns));
        out.push(("cache.wbht.lookup_ns", lookup_ns));
    });

    // cache.mshr: each recorded miss allocates, each fill completes.
    log.scope("cache.mshr", Some(parent), || {
        let mut files: Vec<MshrFile<u16>> = (0..cfg.num_l2)
            .map(|_| MshrFile::new(cfg.l2_mshrs))
            .collect();
        let mut waiters = Vec::new();
        let allocs = traffic.mshr.iter().filter(|op| op.2).count();
        let start = Instant::now();
        for &(l2, line, allocate) in &traffic.mshr {
            let file = &mut files[l2 as usize];
            if allocate {
                let _ = black_box(file.allocate(LineAddr::new(line), 0));
            } else {
                waiters.clear();
                file.complete_into(LineAddr::new(line), &mut waiters);
            }
        }
        black_box(&waiters);
        out.push(("cache.mshr.alloc_complete_ns", ns_per(start, allocs)));
    });

    // engine: pop the earliest event and schedule one in its place, at
    // the run's high-water population, with the run's event delays.
    log.scope("engine.event_queue", Some(parent), || {
        let delays: &[Cycle] = if inp.delays.is_empty() {
            &[1]
        } else {
            inp.delays
        };
        let pop = inp.eq_population.max(1);
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..pop {
            q.push(delays[i % delays.len()], i as u32);
        }
        let mut k = pop % delays.len();
        let ops = inp.records;
        let start = Instant::now();
        for _ in 0..ops {
            let (t, ev) = q.pop().expect("population stays constant");
            q.push(t + delays[k], black_box(ev));
            k += 1;
            if k == delays.len() {
                k = 0;
            }
        }
        out.push(("engine.event_queue.push_pop_ns", ns_per(start, ops)));
    });

    // coherence: combine every recorded transaction's responses.
    log.scope("coherence.combine", Some(parent), || {
        let mut collector = SnoopCollector::new();
        let start = Instant::now();
        for (txn, range) in &traffic.txns {
            black_box(collector.combine(txn, &traffic.responses[range.clone()]));
        }
        out.push(("coherence.combine_ns", ns_per(start, traffic.txns.len())));
    });

    // ring: every transaction's address beat, plus its data transfer.
    log.scope("ring.issue_transfer", Some(parent), || {
        let topo = RingTopology::standard_cmp(cfg.num_l2, cfg.ring.hop_cycles);
        let mut ring = Ring::new(topo, cfg.ring);
        let start = Instant::now();
        for &(at, issuer, data) in &traffic.ring {
            let issued = ring.issue_address(at, issuer);
            if let Some((src, dst)) = data {
                black_box(ring.transfer_data(issued, src, dst));
            }
        }
        out.push(("ring.issue_transfer_ns", ns_per(start, traffic.ring.len())));
    });

    // mem: the L3 model snoops reads and absorbs castouts; the memory
    // controller serves the fills from memory.
    log.scope("mem", Some(parent), || {
        let (snoop_ns, accept_ns) = split_cost(
            &traffic.l3,
            |op| op.2.is_some(),
            || L3Cache::new(cfg.l3),
            |l3, &(at, line, castout)| match castout {
                Some(dirty) => {
                    black_box(l3.accept_castout(at, LineAddr::new(line), dirty));
                }
                None => {
                    black_box(l3.snoop_read(at, LineAddr::new(line)));
                }
            },
        );
        out.push(("mem.l3_accept_castout_ns", accept_ns));
        out.push(("mem.l3_snoop_read_ns", snoop_ns));
        let mut memory = MemoryController::new(cfg.mem);
        let start = Instant::now();
        for &(at, line) in &traffic.mem {
            black_box(memory.read(at, LineAddr::new(line)));
        }
        out.push(("mem.read_ns", ns_per(start, traffic.mem.len())));
    });
    out
}

/// History-table entries per L2 at a capacity scale (the paper's 32 K
/// divided by the scale, never below 256).
pub fn table_entries(scale: u64) -> u64 {
    (32 * 1024 / scale.max(1)).max(256)
}
