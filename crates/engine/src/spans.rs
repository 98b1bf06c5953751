//! Transaction span tracing: where did the cycles of one miss go?
//!
//! The telemetry layer ([`crate::telemetry`]) records *point* events; this
//! module records *spans*: one record per sampled bus transaction (miss,
//! upgrade, or castout), decomposed into cycle-stamped phases from issue to
//! fill/squash. A span is a start cycle plus an ordered list of phase
//! *marks*; each mark closes the segment opened by the previous one, so the
//! segments tile `[start, end]` exactly and
//! `queue_wait + service == total` holds for every span by construction.
//!
//! The [`SpanTracer`] handle follows the same zero-cost-when-off contract
//! as [`crate::telemetry::Telemetry`]: a disabled tracer is a `None` and
//! every call site pays a single branch. Sampling (`1/N` by span id) bounds
//! memory on long runs while keeping the kept population deterministic.
//! [`crate::chrome::ChromeTrace`] exports finished spans for Perfetto.
//!
//! # Example
//!
//! ```
//! use cmpsim_engine::spans::{SpanKind, SpanOutcome, SpanPhase, SpanTracer};
//! use cmpsim_engine::telemetry::FillSource;
//!
//! let tracer = SpanTracer::sampled(1);
//! tracer.start(7, SpanKind::Miss, 0, 0x40, 100);
//! tracer.mark(7, SpanPhase::MshrAlloc, 103);
//! tracer.mark(7, SpanPhase::RingTransit, 120);
//! tracer.mark(7, SpanPhase::MemQueue, 150);
//! tracer.mark(7, SpanPhase::MemService, 470);
//! tracer.mark(7, SpanPhase::DataReturn, 531);
//! tracer.finish(7, SpanOutcome::Filled(FillSource::Memory), 531);
//! let spans = tracer.finished_spans();
//! assert_eq!(spans[0].total(), 431);
//! assert_eq!(spans[0].queue_wait() + spans[0].service(), 431);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::metrics::MetricsRegistry;
use crate::stats::Log2Histogram;
use crate::telemetry::FillSource;
use crate::Cycle;

/// Identifies one traced transaction; the simulator uses the bus
/// transaction id, which is unique for the life of a run.
pub type SpanId = u64;

/// What kind of transaction a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A read-class L2 miss (ReadShared / ReadExclusive).
    Miss,
    /// An ownership upgrade (no data transfer).
    Upgrade,
    /// A castout (write-back) of a victim line.
    Castout,
}

impl SpanKind {
    /// Stable lower-case tag used in the Chrome trace export.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Miss => "miss",
            SpanKind::Upgrade => "upgrade",
            SpanKind::Castout => "castout",
        }
    }
}

/// One phase of a transaction's lifecycle. A mark with a phase closes the
/// segment that began at the previous mark (or at the span start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    /// Miss detection to bus issue (MSHR allocation + issue delay).
    MshrAlloc,
    /// Castout drain pick to bus issue.
    Issue,
    /// Waiting for the ring's address-phase arbitration slot.
    RingArb,
    /// Address beat on the ring.
    RingTransit,
    /// Snoop broadcast, per-agent snoop, and combined-response window.
    SnoopWindow,
    /// Back-off between a Retry combined response and the re-issue.
    RetryBackoff,
    /// Waiting for the providing peer L2's array port.
    PeerQueue,
    /// Peer L2 array read (intervention data access).
    PeerService,
    /// Waiting for a free L3 array bank.
    L3Queue,
    /// L3 array access.
    L3Service,
    /// Waiting for a free memory bank.
    MemQueue,
    /// Memory access.
    MemService,
    /// Data transfer back to the consumer (ring/link occupancy plus any
    /// wait for the combined response to reach the requester).
    DataReturn,
    /// Implicit tail segment closed by [`SpanTracer::finish`] when the
    /// outcome lands after the last recorded mark (e.g. a transaction
    /// resolved locally without a data phase).
    Resolve,
}

impl SpanPhase {
    /// Stable lower-case tag used in the Chrome trace export.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanPhase::MshrAlloc => "mshr_alloc",
            SpanPhase::Issue => "issue",
            SpanPhase::RingArb => "ring_arb",
            SpanPhase::RingTransit => "ring_transit",
            SpanPhase::SnoopWindow => "snoop_window",
            SpanPhase::RetryBackoff => "retry_backoff",
            SpanPhase::PeerQueue => "peer_queue",
            SpanPhase::PeerService => "peer_service",
            SpanPhase::L3Queue => "l3_queue",
            SpanPhase::L3Service => "l3_service",
            SpanPhase::MemQueue => "mem_queue",
            SpanPhase::MemService => "mem_service",
            SpanPhase::DataReturn => "data_return",
            SpanPhase::Resolve => "resolve",
        }
    }

    /// Queue-wait phases are time spent *waiting for* a contended
    /// resource; everything else is service (useful work or fixed
    /// protocol latency).
    pub fn is_queue_wait(self) -> bool {
        matches!(
            self,
            SpanPhase::RingArb
                | SpanPhase::RetryBackoff
                | SpanPhase::PeerQueue
                | SpanPhase::L3Queue
                | SpanPhase::MemQueue
        )
    }
}

impl fmt::Display for SpanPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// A miss filled with data from `FillSource`.
    Filled(FillSource),
    /// An upgrade was granted (no data moved).
    Upgraded,
    /// Resolved locally without a bus data phase (e.g. a racing fill
    /// satisfied the miss before issue, or the castout entry was claimed).
    ResolvedLocal,
    /// Castout squashed (a valid copy already exists in the L3 or a peer).
    Squashed,
    /// Castout absorbed by a peer L2 (snarf).
    Snarfed,
    /// Castout accepted by the L3 victim cache.
    AcceptedL3,
}

impl SpanOutcome {
    /// Stable lower-case tag used in the Chrome trace export.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanOutcome::Filled(FillSource::L2Peer) => "fill_l2_peer",
            SpanOutcome::Filled(FillSource::L3) => "fill_l3",
            SpanOutcome::Filled(FillSource::Memory) => "fill_memory",
            SpanOutcome::Upgraded => "upgrade",
            SpanOutcome::ResolvedLocal => "local",
            SpanOutcome::Squashed => "squashed",
            SpanOutcome::Snarfed => "snarfed",
            SpanOutcome::AcceptedL3 => "accepted_l3",
        }
    }

    /// The fill source, when this outcome is a data fill.
    pub fn fill_source(self) -> Option<FillSource> {
        match self {
            SpanOutcome::Filled(s) => Some(s),
            _ => None,
        }
    }
}

/// One completed (or in-flight) transaction span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id (== bus transaction id).
    pub id: SpanId,
    /// Transaction kind.
    pub kind: SpanKind,
    /// Index of the requesting/casting L2.
    pub l2: u32,
    /// Raw line address.
    pub line: u64,
    /// Cycle the transaction was created.
    pub start: Cycle,
    /// Phase marks; each entry closes the segment opened by the previous
    /// one (or by `start`). Cycle stamps are non-decreasing.
    pub marks: Vec<(SpanPhase, Cycle)>,
    /// Set once the span is finished.
    pub outcome: Option<SpanOutcome>,
}

impl SpanRecord {
    fn new(id: SpanId, kind: SpanKind, l2: u32, line: u64, start: Cycle) -> Self {
        SpanRecord {
            id,
            kind,
            l2,
            line,
            start,
            marks: Vec::with_capacity(8),
            outcome: None,
        }
    }

    /// Cycle of the most recent mark (the span start before any mark).
    pub fn last_cycle(&self) -> Cycle {
        self.marks.last().map_or(self.start, |&(_, t)| t)
    }

    /// Records a phase transition at `at`, closing the current segment.
    ///
    /// Marks must be monotone in cycle time; a violation is a simulator
    /// bug and trips a debug assertion. Release builds clamp instead so a
    /// trace is still internally consistent.
    pub fn mark(&mut self, phase: SpanPhase, at: Cycle) {
        let last = self.last_cycle();
        debug_assert!(
            at >= last,
            "span {} phase {} at cycle {} precedes previous mark at {}",
            self.id,
            phase,
            at,
            last
        );
        self.marks.push((phase, at.max(last)));
    }

    /// End cycle: the last mark (== `start` for an empty span).
    pub fn end(&self) -> Cycle {
        self.last_cycle()
    }

    /// Total latency in cycles.
    pub fn total(&self) -> Cycle {
        self.end() - self.start
    }

    /// `(phase, segment_start, segment_len)` for each recorded segment.
    pub fn segments(&self) -> impl Iterator<Item = (SpanPhase, Cycle, Cycle)> + '_ {
        let mut prev = self.start;
        self.marks.iter().map(move |&(phase, t)| {
            let seg = (phase, prev, t - prev);
            prev = t;
            seg
        })
    }

    /// Cycles spent in queue-wait phases (see
    /// [`SpanPhase::is_queue_wait`]).
    pub fn queue_wait(&self) -> Cycle {
        self.segments()
            .filter(|(p, _, _)| p.is_queue_wait())
            .map(|(_, _, len)| len)
            .sum()
    }

    /// Cycles spent in service phases: always `total() - queue_wait()`.
    pub fn service(&self) -> Cycle {
        self.total() - self.queue_wait()
    }
}

/// Latency breakdown histograms for one population of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SourceLatency {
    /// End-to-end span latency.
    pub total: Log2Histogram,
    /// Queue-wait portion.
    pub queue_wait: Log2Histogram,
    /// Service portion.
    pub service: Log2Histogram,
}

impl SourceLatency {
    fn add(&mut self, span: &SpanRecord) {
        self.total.add(span.total());
        self.queue_wait.add(span.queue_wait());
        self.service.add(span.service());
    }
}

/// Aggregated view of all finished spans, ready for metrics export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanSummary {
    /// Spans started (before sampling).
    pub started: u64,
    /// Spans kept by sampling and finished.
    pub recorded: u64,
    /// Spans dropped by the `1/N` sampler.
    pub sampled_out: u64,
    /// Misses filled by a peer L2 intervention.
    pub l2_peer: SourceLatency,
    /// Misses filled from the L3.
    pub l3: SourceLatency,
    /// Misses filled from memory.
    pub memory: SourceLatency,
    /// All castout spans (squashed, snarfed, or accepted).
    pub castout: SourceLatency,
}

impl SpanSummary {
    /// Registers the summary under `span_*` names in a metrics registry,
    /// so the breakdown rides the shared `--json`/`--csv` export path.
    pub fn register_into(&self, m: &mut MetricsRegistry) {
        m.set_counter("spans_started", self.started);
        m.set_counter("spans_recorded", self.recorded);
        m.set_counter("spans_sampled_out", self.sampled_out);
        let groups = [
            ("span_l2_peer", &self.l2_peer),
            ("span_l3", &self.l3),
            ("span_memory", &self.memory),
            ("span_castout", &self.castout),
        ];
        for (name, lat) in groups {
            m.set_histogram(&format!("{name}_total"), &lat.total);
            m.set_histogram(&format!("{name}_queue_wait"), &lat.queue_wait);
            m.set_histogram(&format!("{name}_service"), &lat.service);
        }
    }
}

#[derive(Debug, Default)]
struct SpanBook {
    sample: u64,
    active: HashMap<SpanId, SpanRecord>,
    finished: Vec<SpanRecord>,
    started: u64,
    sampled_out: u64,
}

/// Cheap-to-clone handle for recording transaction spans.
///
/// A disabled tracer holds no book: every `start`/`mark`/`finish` call is
/// a single `Option` branch, preserving the zero-cost-when-off property of
/// the telemetry layer. Clones share one book, mirroring how
/// [`crate::telemetry::Telemetry`] clones share one sink.
#[derive(Debug, Clone, Default)]
pub struct SpanTracer {
    book: Option<Arc<Mutex<SpanBook>>>,
}

impl SpanTracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        SpanTracer { book: None }
    }

    /// A tracer keeping every `sample`-th span (by span id). `sampled(1)`
    /// keeps everything.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is zero.
    pub fn sampled(sample: u64) -> Self {
        assert!(sample > 0, "span sample divisor must be at least 1");
        SpanTracer {
            book: Some(Arc::new(Mutex::new(SpanBook {
                sample,
                ..SpanBook::default()
            }))),
        }
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.book.is_some()
    }

    /// Opens a span for transaction `id` at cycle `now`. A span dropped by
    /// the sampler is counted and ignored by later `mark`/`finish` calls.
    #[inline]
    pub fn start(&self, id: SpanId, kind: SpanKind, l2: u32, line: u64, now: Cycle) {
        if let Some(book) = &self.book {
            let mut book = book.lock().unwrap();
            book.started += 1;
            if !id.is_multiple_of(book.sample) {
                book.sampled_out += 1;
                return;
            }
            book.active
                .insert(id, SpanRecord::new(id, kind, l2, line, now));
        }
    }

    /// Records a phase transition for span `id`; a no-op for unknown or
    /// sampled-out ids.
    #[inline]
    pub fn mark(&self, id: SpanId, phase: SpanPhase, at: Cycle) {
        if let Some(book) = &self.book {
            if let Some(rec) = book.lock().unwrap().active.get_mut(&id) {
                rec.mark(phase, at);
            }
        }
    }

    /// Closes span `id` with `outcome` at cycle `at`. If `at` lies beyond
    /// the last mark, the gap is recorded as a [`SpanPhase::Resolve`]
    /// segment so the telescoping invariant survives.
    #[inline]
    pub fn finish(&self, id: SpanId, outcome: SpanOutcome, at: Cycle) {
        if let Some(book) = &self.book {
            let mut book = book.lock().unwrap();
            if let Some(mut rec) = book.active.remove(&id) {
                if at > rec.last_cycle() {
                    rec.mark(SpanPhase::Resolve, at);
                }
                rec.outcome = Some(outcome);
                book.finished.push(rec);
            }
        }
    }

    /// Clones out every finished span, in finish order.
    pub fn finished_spans(&self) -> Vec<SpanRecord> {
        match &self.book {
            Some(book) => book.lock().unwrap().finished.clone(),
            None => Vec::new(),
        }
    }

    /// Aggregates finished spans into per-fill-source latency histograms.
    pub fn summary(&self) -> SpanSummary {
        let mut s = SpanSummary::default();
        let Some(book) = &self.book else {
            return s;
        };
        let book = book.lock().unwrap();
        s.started = book.started;
        s.sampled_out = book.sampled_out;
        s.recorded = book.finished.len() as u64;
        for span in &book.finished {
            match span.outcome {
                Some(SpanOutcome::Filled(FillSource::L2Peer)) => s.l2_peer.add(span),
                Some(SpanOutcome::Filled(FillSource::L3)) => s.l3.add(span),
                Some(SpanOutcome::Filled(FillSource::Memory)) => s.memory.add(span),
                _ if span.kind == SpanKind::Castout => s.castout.add(span),
                _ => {}
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_span() -> SpanRecord {
        let mut s = SpanRecord::new(3, SpanKind::Miss, 1, 0x40, 100);
        s.mark(SpanPhase::MshrAlloc, 103);
        s.mark(SpanPhase::RingArb, 110);
        s.mark(SpanPhase::RingTransit, 112);
        s.mark(SpanPhase::SnoopWindow, 140);
        s.mark(SpanPhase::L3Queue, 155);
        s.mark(SpanPhase::L3Service, 231);
        s.mark(SpanPhase::DataReturn, 267);
        s.outcome = Some(SpanOutcome::Filled(FillSource::L3));
        s
    }

    #[test]
    fn segments_tile_the_span() {
        let s = sample_span();
        assert_eq!(s.total(), 167);
        let seg_sum: Cycle = s.segments().map(|(_, _, len)| len).sum();
        assert_eq!(seg_sum, s.total());
        assert_eq!(s.queue_wait(), 7 + 15); // ring_arb + l3_queue
        assert_eq!(s.queue_wait() + s.service(), s.total());
    }

    #[test]
    fn segments_report_starts_in_order() {
        let s = sample_span();
        let mut prev_end = s.start;
        for (_, seg_start, len) in s.segments() {
            assert_eq!(seg_start, prev_end);
            prev_end = seg_start + len;
        }
        assert_eq!(prev_end, s.end());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "precedes previous mark")]
    fn non_monotone_mark_trips_debug_assert() {
        let mut s = SpanRecord::new(1, SpanKind::Miss, 0, 0, 100);
        s.mark(SpanPhase::MshrAlloc, 110);
        s.mark(SpanPhase::RingTransit, 105);
    }

    #[test]
    fn tracer_lifecycle_and_summary() {
        let tracer = SpanTracer::sampled(1);
        assert!(tracer.is_enabled());
        tracer.start(1, SpanKind::Miss, 0, 0x80, 10);
        tracer.mark(1, SpanPhase::MshrAlloc, 13);
        tracer.mark(1, SpanPhase::MemQueue, 20);
        tracer.mark(1, SpanPhase::MemService, 340);
        tracer.mark(1, SpanPhase::DataReturn, 441);
        tracer.finish(1, SpanOutcome::Filled(FillSource::Memory), 441);
        tracer.start(2, SpanKind::Castout, 1, 0xc0, 50);
        tracer.mark(2, SpanPhase::Issue, 51);
        tracer.mark(2, SpanPhase::SnoopWindow, 90);
        tracer.finish(2, SpanOutcome::Squashed, 90);
        let s = tracer.summary();
        assert_eq!(s.started, 2);
        assert_eq!(s.recorded, 2);
        assert_eq!(s.memory.total.count(), 1);
        assert_eq!(s.memory.total.mean(), 431.0);
        assert_eq!(s.castout.total.count(), 1);
    }

    #[test]
    fn finish_beyond_last_mark_adds_resolve_tail() {
        let tracer = SpanTracer::sampled(1);
        tracer.start(1, SpanKind::Miss, 0, 0, 10);
        tracer.finish(1, SpanOutcome::ResolvedLocal, 25);
        let spans = tracer.finished_spans();
        assert_eq!(spans[0].marks, vec![(SpanPhase::Resolve, 25)]);
        assert_eq!(spans[0].total(), 15);
    }

    #[test]
    fn sampler_keeps_every_nth_id() {
        let tracer = SpanTracer::sampled(4);
        for id in 0..16 {
            tracer.start(id, SpanKind::Miss, 0, 0, 0);
            tracer.finish(id, SpanOutcome::ResolvedLocal, 5);
        }
        let s = tracer.summary();
        assert_eq!(s.started, 16);
        assert_eq!(s.recorded, 4); // ids 0, 4, 8, 12
        assert_eq!(s.sampled_out, 12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = SpanTracer::disabled();
        assert!(!tracer.is_enabled());
        tracer.start(1, SpanKind::Miss, 0, 0, 10);
        tracer.mark(1, SpanPhase::MshrAlloc, 12);
        tracer.finish(1, SpanOutcome::ResolvedLocal, 12);
        assert!(tracer.finished_spans().is_empty());
        assert_eq!(tracer.summary(), SpanSummary::default());
    }

    #[test]
    fn clones_share_one_book() {
        let tracer = SpanTracer::sampled(1);
        let clone = tracer.clone();
        clone.start(9, SpanKind::Upgrade, 2, 0x100, 7);
        clone.finish(9, SpanOutcome::Upgraded, 30);
        assert_eq!(tracer.finished_spans().len(), 1);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// For any monotone mark sequence, segments tile the span and
            /// the queue-wait/service split telescopes to the total.
            #[test]
            fn telescoping_holds_for_monotone_marks(
                start in 0u64..1_000,
                deltas in proptest::collection::vec((0u64..500, 0usize..14), 0..12),
            ) {
                let phases = [
                    SpanPhase::MshrAlloc, SpanPhase::Issue, SpanPhase::RingArb,
                    SpanPhase::RingTransit, SpanPhase::SnoopWindow,
                    SpanPhase::RetryBackoff, SpanPhase::PeerQueue,
                    SpanPhase::PeerService, SpanPhase::L3Queue,
                    SpanPhase::L3Service, SpanPhase::MemQueue,
                    SpanPhase::MemService, SpanPhase::DataReturn,
                    SpanPhase::Resolve,
                ];
                let mut rec = SpanRecord::new(1, SpanKind::Miss, 0, 0, start);
                let mut t = start;
                for (delta, phase_idx) in deltas {
                    t += delta;
                    rec.mark(phases[phase_idx], t);
                }
                prop_assert_eq!(rec.end(), t);
                prop_assert_eq!(rec.queue_wait() + rec.service(), rec.total());
                let seg_sum: Cycle = rec.segments().map(|(_, _, len)| len).sum();
                prop_assert_eq!(seg_sum, rec.total());
                // Marks are monotone as recorded.
                let mut prev = rec.start;
                for &(_, at) in &rec.marks {
                    prop_assert!(at >= prev);
                    prev = at;
                }
            }

            /// Any strictly decreasing stamp trips the monotonicity debug
            /// assertion (the satellite's enforced ordering contract).
            #[test]
            #[cfg(debug_assertions)]
            fn decreasing_mark_panics(first in 1u64..10_000, back in 1u64..1_000) {
                let mut rec = SpanRecord::new(1, SpanKind::Miss, 0, 0, 0);
                rec.mark(SpanPhase::MshrAlloc, first);
                let bad = first.saturating_sub(back);
                prop_assert!(
                    std::panic::catch_unwind(move || rec.mark(SpanPhase::RingTransit, bad))
                        .is_err()
                );
            }
        }
    }
}
