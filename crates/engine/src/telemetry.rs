//! Event tracing and interval sampling for the simulator.
//!
//! Three pieces:
//!
//! * [`SimEvent`] — the typed vocabulary of things the simulator can
//!   report (misses, fills, castout outcomes, policy decisions, retries).
//! * [`EventSink`] / [`Telemetry`] — where events go. [`Telemetry`] is a
//!   cheap cloneable handle every component holds; when tracing is
//!   disabled it is a `None` and [`Telemetry::emit`] never constructs the
//!   event (the closure is not called), so the hot path pays one branch.
//! * [`IntervalSampler`] — snapshots cumulative counters every N cycles
//!   into a per-interval time series for phase plots (the paper's
//!   adaptive mechanisms are windowed; end-of-run aggregates hide when a
//!   policy engaged).
//!
//! Events serialize to JSON Lines (one object per line, `t` = cycle):
//!
//! ```text
//! {"t":10452,"type":"wbht_predict","l2":3,"line":88211,"engaged":true,"abort":true,"correct":true}
//! ```
//!
//! # Example
//!
//! ```
//! use cmpsim_engine::telemetry::{SimEvent, Telemetry, VecSink};
//!
//! let (t, sink) = Telemetry::with_vec_sink();
//! t.emit(42, || SimEvent::RetrySwitchFlip {
//!     engaged: true,
//!     window_retries: 600,
//!     threshold: 500,
//! });
//! assert_eq!(sink.lock().unwrap().events().len(), 1);
//!
//! let off = Telemetry::disabled();
//! off.emit(43, || unreachable!("closure never runs when disabled"));
//! ```

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::Cycle;

/// Where a demand fill's data came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillSource {
    /// Intervened by a peer L2 holding the line.
    L2Peer,
    /// Hit in the shared L3 victim cache.
    L3,
    /// Fetched from off-chip memory.
    Memory,
}

impl FillSource {
    fn as_str(self) -> &'static str {
        match self {
            FillSource::L2Peer => "l2_peer",
            FillSource::L3 => "l3",
            FillSource::Memory => "memory",
        }
    }
}

/// Why a castout was squashed on the bus instead of reaching the L3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquashReason {
    /// The L3 already held a valid copy of the line.
    AlreadyInL3,
    /// A peer L2 still holds the line, so the hierarchy keeps its copy.
    PeerHasCopy,
}

impl SquashReason {
    fn as_str(self) -> &'static str {
        match self {
            SquashReason::AlreadyInL3 => "already_in_l3",
            SquashReason::PeerHasCopy => "peer_has_copy",
        }
    }
}

/// Which full L3 resource forced a requester to retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L3RetryReason {
    /// The read-request queue was full.
    ReadQueueFull,
    /// The castout data-in queue was full.
    DataInFull,
    /// No castout buffer slot was free.
    CastoutBufferFull,
}

impl L3RetryReason {
    fn as_str(self) -> &'static str {
        match self {
            L3RetryReason::ReadQueueFull => "read_queue_full",
            L3RetryReason::DataInFull => "data_in_full",
            L3RetryReason::CastoutBufferFull => "castout_buffer_full",
        }
    }
}

/// One typed simulator event.
///
/// `l2` fields are L2 slice indices; `line` fields are line addresses.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A reference missed in an L2 slice and a fill was requested.
    L2Miss {
        /// Requesting L2 slice.
        l2: u32,
        /// Missing line address.
        line: u64,
        /// True for stores.
        store: bool,
    },
    /// A demand miss completed and the line was filled into the L2.
    L2Fill {
        /// Filled L2 slice.
        l2: u32,
        /// Filled line address.
        line: u64,
        /// Where the data came from.
        source: FillSource,
        /// Miss latency in cycles.
        latency: Cycle,
    },
    /// A write-back left an L2's write-back queue for the bus.
    CastoutIssued {
        /// Issuing L2 slice.
        l2: u32,
        /// Castout line address.
        line: u64,
        /// True for dirty (modified) lines.
        dirty: bool,
        /// True when peers may snarf this castout.
        snarf_eligible: bool,
    },
    /// The WBHT aborted a clean castout before it used the bus.
    CastoutAborted {
        /// Aborting L2 slice.
        l2: u32,
        /// Aborted line address.
        line: u64,
    },
    /// A castout used the bus but was squashed before entering the L3.
    CastoutSquashed {
        /// Issuing L2 slice.
        l2: u32,
        /// Squashed line address.
        line: u64,
        /// Why it was squashed.
        reason: SquashReason,
    },
    /// A peer L2 snarfed a castout instead of the L3 accepting it.
    CastoutSnarfed {
        /// Issuing L2 slice.
        l2: u32,
        /// Receiving (snarfing) L2 slice.
        by: u32,
        /// Snarfed line address.
        line: u64,
    },
    /// The L3 accepted a castout.
    CastoutAccepted {
        /// Issuing L2 slice.
        l2: u32,
        /// Accepted line address.
        line: u64,
    },
    /// A store to a shared line completed as an update instead of an
    /// invalidation (hybrid update/invalidate coherence).
    CoherenceUpdate {
        /// Writing L2 slice.
        l2: u32,
        /// Updated line address.
        line: u64,
    },
    /// The WBHT allocated (or refreshed) an entry for a redundant line.
    WbhtAllocate {
        /// Allocating L2 slice.
        l2: u32,
        /// Line the entry covers.
        line: u64,
    },
    /// The WBHT was consulted for a clean castout.
    WbhtPredict {
        /// Consulting L2 slice.
        l2: u32,
        /// Line consulted.
        line: u64,
        /// Whether the retry switch currently engages the WBHT.
        engaged: bool,
        /// The decision taken: true = abort the castout.
        abort: bool,
        /// Whether the decision matched L3 residency (ground truth).
        correct: bool,
    },
    /// A WBHT consult turned out wrong (redundant line sent, or a needed
    /// write-back suppressed).
    WbhtMispredict {
        /// Consulting L2 slice.
        l2: u32,
        /// Mispredicted line.
        line: u64,
        /// The (wrong) decision that was taken: true = aborted.
        abort: bool,
    },
    /// The retry-rate switch flipped at a window boundary.
    RetrySwitchFlip {
        /// New state: true = WBHT aborts engaged.
        engaged: bool,
        /// Retries observed in the window that just closed.
        window_retries: u64,
        /// The flip threshold.
        threshold: u64,
    },
    /// A snarf-eligible castout was arbitrated among peer L2s.
    SnarfArbitration {
        /// Issuing L2 slice.
        l2: u32,
        /// Castout line address.
        line: u64,
        /// The winning peer, if any accepted the line.
        winner: Option<u32>,
    },
    /// A peer declined a snarf because no snarf buffer slot was free.
    SnarfBufferDeclined {
        /// Declining L2 slice.
        l2: u32,
        /// Line that could not be buffered.
        line: u64,
    },
    /// The L3 bounced a request because a resource was full.
    L3Retry {
        /// Which resource was full.
        reason: L3RetryReason,
        /// Line whose request bounced.
        line: u64,
    },
    /// One closed interval-sampler window (cycle range plus per-interval
    /// counter deltas).
    Interval {
        /// Window start cycle (inclusive).
        start: Cycle,
        /// Window end cycle (exclusive).
        end: Cycle,
        /// Counter deltas over the window, in registration order.
        counters: Vec<(&'static str, u64)>,
    },
}

impl SimEvent {
    /// The event's `type` tag as it appears in JSONL output.
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::L2Miss { .. } => "l2_miss",
            SimEvent::L2Fill { .. } => "l2_fill",
            SimEvent::CastoutIssued { .. } => "castout_issued",
            SimEvent::CastoutAborted { .. } => "castout_aborted",
            SimEvent::CastoutSquashed { .. } => "castout_squashed",
            SimEvent::CastoutSnarfed { .. } => "castout_snarfed",
            SimEvent::CastoutAccepted { .. } => "castout_accepted",
            SimEvent::CoherenceUpdate { .. } => "coherence_update",
            SimEvent::WbhtAllocate { .. } => "wbht_allocate",
            SimEvent::WbhtPredict { .. } => "wbht_predict",
            SimEvent::WbhtMispredict { .. } => "wbht_mispredict",
            SimEvent::RetrySwitchFlip { .. } => "retry_switch_flip",
            SimEvent::SnarfArbitration { .. } => "snarf_arbitration",
            SimEvent::SnarfBufferDeclined { .. } => "snarf_buffer_declined",
            SimEvent::L3Retry { .. } => "l3_retry",
            SimEvent::Interval { .. } => "interval",
        }
    }

    /// Every tag [`SimEvent::kind`] returns, in declaration order: the
    /// one list trace readers check kinds against.
    pub const KINDS: &'static [&'static str] = &[
        "l2_miss",
        "l2_fill",
        "castout_issued",
        "castout_aborted",
        "castout_squashed",
        "castout_snarfed",
        "castout_accepted",
        "coherence_update",
        "wbht_allocate",
        "wbht_predict",
        "wbht_mispredict",
        "retry_switch_flip",
        "snarf_arbitration",
        "snarf_buffer_declined",
        "l3_retry",
        "interval",
    ];

    /// Serializes to one JSON object (no trailing newline), `t` first.
    pub fn to_json(&self, now: Cycle) -> String {
        let mut s = format!("{{\"t\":{},\"type\":\"{}\"", now, self.kind());
        match self {
            SimEvent::L2Miss { l2, line, store } => {
                push_kv(&mut s, &[("l2", J::U(*l2 as u64)), ("line", J::U(*line))]);
                push_kv(&mut s, &[("store", J::B(*store))]);
            }
            SimEvent::L2Fill {
                l2,
                line,
                source,
                latency,
            } => {
                push_kv(
                    &mut s,
                    &[
                        ("l2", J::U(*l2 as u64)),
                        ("line", J::U(*line)),
                        ("source", J::S(source.as_str())),
                        ("latency", J::U(*latency)),
                    ],
                );
            }
            SimEvent::CastoutIssued {
                l2,
                line,
                dirty,
                snarf_eligible,
            } => {
                push_kv(
                    &mut s,
                    &[
                        ("l2", J::U(*l2 as u64)),
                        ("line", J::U(*line)),
                        ("dirty", J::B(*dirty)),
                        ("snarf_eligible", J::B(*snarf_eligible)),
                    ],
                );
            }
            SimEvent::CastoutAborted { l2, line }
            | SimEvent::CastoutAccepted { l2, line }
            | SimEvent::CoherenceUpdate { l2, line }
            | SimEvent::WbhtAllocate { l2, line }
            | SimEvent::SnarfBufferDeclined { l2, line } => {
                push_kv(&mut s, &[("l2", J::U(*l2 as u64)), ("line", J::U(*line))]);
            }
            SimEvent::CastoutSquashed { l2, line, reason } => {
                push_kv(
                    &mut s,
                    &[
                        ("l2", J::U(*l2 as u64)),
                        ("line", J::U(*line)),
                        ("reason", J::S(reason.as_str())),
                    ],
                );
            }
            SimEvent::CastoutSnarfed { l2, by, line } => {
                push_kv(
                    &mut s,
                    &[
                        ("l2", J::U(*l2 as u64)),
                        ("by", J::U(*by as u64)),
                        ("line", J::U(*line)),
                    ],
                );
            }
            SimEvent::WbhtPredict {
                l2,
                line,
                engaged,
                abort,
                correct,
            } => {
                push_kv(
                    &mut s,
                    &[
                        ("l2", J::U(*l2 as u64)),
                        ("line", J::U(*line)),
                        ("engaged", J::B(*engaged)),
                        ("abort", J::B(*abort)),
                        ("correct", J::B(*correct)),
                    ],
                );
            }
            SimEvent::WbhtMispredict { l2, line, abort } => {
                push_kv(
                    &mut s,
                    &[
                        ("l2", J::U(*l2 as u64)),
                        ("line", J::U(*line)),
                        ("abort", J::B(*abort)),
                    ],
                );
            }
            SimEvent::RetrySwitchFlip {
                engaged,
                window_retries,
                threshold,
            } => {
                push_kv(
                    &mut s,
                    &[
                        ("engaged", J::B(*engaged)),
                        ("window_retries", J::U(*window_retries)),
                        ("threshold", J::U(*threshold)),
                    ],
                );
            }
            SimEvent::SnarfArbitration { l2, line, winner } => {
                push_kv(&mut s, &[("l2", J::U(*l2 as u64)), ("line", J::U(*line))]);
                match winner {
                    Some(w) => push_kv(&mut s, &[("winner", J::U(*w as u64))]),
                    None => s.push_str(",\"winner\":null"),
                }
            }
            SimEvent::L3Retry { reason, line } => {
                push_kv(
                    &mut s,
                    &[("reason", J::S(reason.as_str())), ("line", J::U(*line))],
                );
            }
            SimEvent::Interval {
                start,
                end,
                counters,
            } => {
                push_kv(&mut s, &[("start", J::U(*start)), ("end", J::U(*end))]);
                s.push_str(",\"counters\":{");
                for (i, (k, v)) in counters.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!("\"{k}\":{v}"));
                }
                s.push('}');
            }
        }
        s.push('}');
        s
    }
}

/// Tiny JSON scalar helper for [`SimEvent::to_json`].
enum J {
    U(u64),
    B(bool),
    S(&'static str),
}

fn push_kv(s: &mut String, kvs: &[(&str, J)]) {
    for (k, v) in kvs {
        match v {
            J::U(u) => s.push_str(&format!(",\"{k}\":{u}")),
            J::B(b) => s.push_str(&format!(",\"{k}\":{b}")),
            J::S(t) => s.push_str(&format!(",\"{k}\":\"{t}\"")),
        }
    }
}

/// Consumer of simulator events.
pub trait EventSink {
    /// Receives one event stamped with the current cycle.
    fn emit(&mut self, now: Cycle, event: &SimEvent);

    /// Flushes buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// A sink that discards everything (telemetry explicitly "on but off").
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&mut self, _now: Cycle, _event: &SimEvent) {}
}

/// A sink that records events in memory, for tests and tools.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<(Cycle, SimEvent)>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded `(cycle, event)` pairs, in emission order.
    pub fn events(&self) -> &[(Cycle, SimEvent)] {
        &self.events
    }
}

impl EventSink for VecSink {
    fn emit(&mut self, now: Cycle, event: &SimEvent) {
        self.events.push((now, event.clone()));
    }
}

/// A sink that writes one JSON object per line to any writer.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    /// Sticky first write error, surfaced on [`EventSink::flush`] via panic
    /// avoidance: we stop writing and remember the error.
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL trace file.
    ///
    /// # Errors
    ///
    /// Returns any error from [`File::create`].
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlSink { out, error: None }
    }

    /// The first write error encountered, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn emit(&mut self, now: Cycle, event: &SimEvent) {
        if self.error.is_some() {
            return;
        }
        let line = event.to_json(now);
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) {
        if let Err(e) = self.out.flush() {
            self.error.get_or_insert(e);
        }
    }
}

/// Cheap cloneable handle to an optional shared event sink.
///
/// Every simulator component holds one. Disabled handles are a `None`:
/// [`Telemetry::emit`] is one branch and never constructs the event.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<Mutex<dyn EventSink + Send>>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.sink.is_some())
            .finish()
    }
}

impl Telemetry {
    /// A disabled handle (the default).
    pub fn disabled() -> Self {
        Telemetry { sink: None }
    }

    /// Wraps a sink in a new shared handle.
    pub fn new<S: EventSink + Send + 'static>(sink: S) -> Self {
        Telemetry {
            sink: Some(Arc::new(Mutex::new(sink))),
        }
    }

    /// Builds a handle around an existing shared sink (lets the caller
    /// keep a typed reference, e.g. to read a [`VecSink`] back).
    pub fn from_shared<S: EventSink + Send + 'static>(sink: Arc<Mutex<S>>) -> Self {
        Telemetry { sink: Some(sink) }
    }

    /// A handle plus a typed reference to its in-memory sink.
    pub fn with_vec_sink() -> (Self, Arc<Mutex<VecSink>>) {
        let sink = Arc::new(Mutex::new(VecSink::new()));
        (Telemetry::from_shared(sink.clone()), sink)
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits the event produced by `make` — only calling `make` (and only
    /// paying any formatting cost) when a sink is attached.
    #[inline]
    pub fn emit<F: FnOnce() -> SimEvent>(&self, now: Cycle, make: F) {
        if let Some(sink) = &self.sink {
            sink.lock().expect("telemetry sink lock").emit(now, &make());
        }
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.lock().expect("telemetry sink lock").flush();
        }
    }
}

pub use crate::interval::{IntervalRecord, IntervalSampler, DEFAULT_INTERVAL};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emit_never_runs_closure() {
        let t = Telemetry::disabled();
        t.emit(1, || panic!("must not run"));
        assert!(!t.is_enabled());
    }

    #[test]
    fn vec_sink_records_in_order() {
        let (t, sink) = Telemetry::with_vec_sink();
        assert!(t.is_enabled());
        t.emit(5, || SimEvent::L2Miss {
            l2: 1,
            line: 10,
            store: false,
        });
        t.emit(9, || SimEvent::CastoutAborted { l2: 1, line: 10 });
        let ev = sink.lock().unwrap();
        assert_eq!(ev.events().len(), 2);
        assert_eq!(ev.events()[0].0, 5);
        assert_eq!(ev.events()[1].1.kind(), "castout_aborted");
    }

    #[test]
    fn clone_shares_sink() {
        let (t, sink) = Telemetry::with_vec_sink();
        let t2 = t.clone();
        t.emit(1, || SimEvent::CastoutAccepted { l2: 0, line: 1 });
        t2.emit(2, || SimEvent::CastoutAccepted { l2: 0, line: 2 });
        assert_eq!(sink.lock().unwrap().events().len(), 2);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(
            7,
            &SimEvent::L2Fill {
                l2: 2,
                line: 99,
                source: FillSource::L3,
                latency: 120,
            },
        );
        sink.emit(
            8,
            &SimEvent::L3Retry {
                reason: L3RetryReason::ReadQueueFull,
                line: 4,
            },
        );
        sink.flush();
        let text = String::from_utf8(sink.out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"t\":7,\"type\":\"l2_fill\",\"l2\":2,\"line\":99,\"source\":\"l3\",\"latency\":120}"
        );
        assert!(lines[1].contains("\"reason\":\"read_queue_full\""));
    }

    /// One event of every variant. Each arm of the `match` builds the
    /// next variant, with no wildcard arm, so a new variant does not
    /// compile until it is listed here.
    fn one_of_each() -> Vec<SimEvent> {
        let mut events = Vec::new();
        let mut next = Some(SimEvent::L2Miss {
            l2: 0,
            line: 1,
            store: true,
        });
        while let Some(ev) = next {
            next = match &ev {
                SimEvent::L2Miss { .. } => Some(SimEvent::L2Fill {
                    l2: 0,
                    line: 1,
                    source: FillSource::Memory,
                    latency: 5,
                }),
                SimEvent::L2Fill { .. } => Some(SimEvent::CastoutIssued {
                    l2: 0,
                    line: 1,
                    dirty: false,
                    snarf_eligible: true,
                }),
                SimEvent::CastoutIssued { .. } => Some(SimEvent::CastoutAborted { l2: 0, line: 1 }),
                SimEvent::CastoutAborted { .. } => Some(SimEvent::CastoutSquashed {
                    l2: 0,
                    line: 1,
                    reason: SquashReason::PeerHasCopy,
                }),
                SimEvent::CastoutSquashed { .. } => Some(SimEvent::CastoutSnarfed {
                    l2: 0,
                    by: 3,
                    line: 1,
                }),
                SimEvent::CastoutSnarfed { .. } => {
                    Some(SimEvent::CastoutAccepted { l2: 0, line: 1 })
                }
                SimEvent::CastoutAccepted { .. } => {
                    Some(SimEvent::CoherenceUpdate { l2: 0, line: 1 })
                }
                SimEvent::CoherenceUpdate { .. } => Some(SimEvent::WbhtAllocate { l2: 0, line: 1 }),
                SimEvent::WbhtAllocate { .. } => Some(SimEvent::WbhtPredict {
                    l2: 0,
                    line: 1,
                    engaged: true,
                    abort: false,
                    correct: true,
                }),
                SimEvent::WbhtPredict { .. } => Some(SimEvent::WbhtMispredict {
                    l2: 0,
                    line: 1,
                    abort: true,
                }),
                SimEvent::WbhtMispredict { .. } => Some(SimEvent::RetrySwitchFlip {
                    engaged: false,
                    window_retries: 3,
                    threshold: 9,
                }),
                SimEvent::RetrySwitchFlip { .. } => Some(SimEvent::SnarfArbitration {
                    l2: 0,
                    line: 1,
                    winner: None,
                }),
                SimEvent::SnarfArbitration { .. } => {
                    Some(SimEvent::SnarfBufferDeclined { l2: 0, line: 1 })
                }
                SimEvent::SnarfBufferDeclined { .. } => Some(SimEvent::L3Retry {
                    reason: L3RetryReason::CastoutBufferFull,
                    line: 1,
                }),
                SimEvent::L3Retry { .. } => Some(SimEvent::Interval {
                    start: 0,
                    end: 100,
                    counters: vec![("a", 1), ("b", 2)],
                }),
                SimEvent::Interval { .. } => None,
            };
            events.push(ev);
        }
        events
    }

    #[test]
    fn kinds_lists_every_variant_once() {
        let kinds: Vec<&str> = one_of_each().iter().map(SimEvent::kind).collect();
        for kind in &kinds {
            assert!(SimEvent::KINDS.contains(kind), "{kind} missing from KINDS");
        }
        assert_eq!(kinds.len(), SimEvent::KINDS.len());
    }

    #[test]
    fn event_json_is_balanced_for_all_variants() {
        let events = one_of_each();
        for ev in &events {
            let j = ev.to_json(42);
            assert!(j.starts_with("{\"t\":42,\"type\":\""), "{j}");
            assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
            assert_eq!(j.matches('"').count() % 2, 0, "{j}");
            assert!(j.contains(&format!("\"type\":\"{}\"", ev.kind())));
        }
    }
}
