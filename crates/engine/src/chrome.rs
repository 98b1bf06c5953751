//! Chrome trace-event export: the one writer behind `cmpsim
//! --trace-spans`.
//!
//! A [`ChromeTrace`] is a JSON array of trace events for
//! `chrome://tracing` and <https://ui.perfetto.dev>, one event per line.
//! Timestamps are simulated cycles (shown as µs), so its three tracks
//! share one timeline:
//!
//! * **`spans`** — a process lane per L2 (`pid` = L2 index) and a thread
//!   lane per span (`tid` = span id): one enclosing `"ph":"X"` event with
//!   the outcome and the queue-wait/service split, then one per phase.
//! * **`host_samples`** — host-profiler counters on pid 9999: per-stage
//!   wall time since the previous sample, event-queue depth, throughput.
//! * **`decisions`** — cumulative decision-audit counters on pid 9998.
//!
//! An empty track writes nothing, not even its process name.
//!
//! ```
//! use cmpsim_engine::chrome::ChromeTrace;
//!
//! let mut out = Vec::new();
//! ChromeTrace::default().write(&mut out).unwrap();
//! assert_eq!(out, b"[\n]\n");
//! ```

use std::io::{self, Write};

use crate::profiler::{HostSample, HostStage, STAGE_COUNT, TIMED_STAGES};
use crate::spans::{SpanOutcome, SpanRecord};
use crate::stream::DecisionFrame;
use crate::Cycle;

/// The tracks of one Chrome trace file; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChromeTrace<'a> {
    /// Finished transaction spans.
    pub spans: &'a [SpanRecord],
    /// Host-profiler samples, in sample order.
    pub host_samples: &'a [HostSample],
    /// Decision-audit interval frames, in cycle order.
    pub decisions: &'a [DecisionFrame],
}

impl ChromeTrace<'_> {
    /// Writes the span track, then the host and decision tracks.
    ///
    /// # Errors
    ///
    /// Returns any error from writing to `w`.
    pub fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut events = self.span_events();
        events.extend(self.host_events());
        events.extend(self.decision_events());
        writeln!(w, "[")?;
        for (i, event) in events.iter().enumerate() {
            let sep = if i + 1 < events.len() { "," } else { "" };
            writeln!(w, "{event}{sep}")?;
        }
        writeln!(w, "]")
    }

    fn span_events(&self) -> Vec<String> {
        let mut l2s: Vec<u32> = self.spans.iter().map(|s| s.l2).collect();
        l2s.sort_unstable();
        l2s.dedup();
        let mut out: Vec<String> = l2s
            .into_iter()
            .map(|l2| process_name(l2, &format!("L2#{l2}")))
            .collect();
        for s in self.spans {
            let complete = |name: &str, ts: Cycle, dur: Cycle, args: String| {
                format!(
                    "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":{},\
                     \"tid\":{},\"args\":{{\"span\":{}{args}}}}}",
                    s.l2, s.id, s.id
                )
            };
            out.push(complete(
                s.kind.as_str(),
                s.start,
                s.total(),
                format!(
                    ",\"line\":{},\"outcome\":\"{}\",\"queue_wait\":{},\"service\":{}",
                    s.line,
                    s.outcome.map_or("open", SpanOutcome::as_str),
                    s.queue_wait(),
                    s.service()
                ),
            ));
            for (phase, start, len) in s.segments() {
                let class = if phase.is_queue_wait() {
                    "queue"
                } else {
                    "service"
                };
                let args = format!(",\"class\":\"{class}\"");
                out.push(complete(phase.as_str(), start, len, args));
            }
        }
        out
    }

    /// Stage time is µs since the previous sample; no `tid`.
    fn host_events(&self) -> Vec<String> {
        const PID: u32 = 9999;
        if self.host_samples.is_empty() {
            return Vec::new();
        }
        let mut out = vec![process_name(PID, "host (simulator wall-clock)")];
        let mut prev = [0u64; STAGE_COUNT];
        for s in self.host_samples {
            let stages = HostStage::all()[..TIMED_STAGES]
                .iter()
                .map(|&st| {
                    let i = st as usize;
                    (st.as_str(), s.stage_ns[i].saturating_sub(prev[i]) / 1_000)
                })
                .collect();
            prev = s.stage_ns;
            let g = &s.gauges;
            for (name, args) in [
                ("host_stage_us", stages),
                (
                    "host_event_queue",
                    vec![("ring", g.eq_ring_len), ("overflow", g.eq_overflow_len)],
                ),
                (
                    "host_throughput",
                    vec![
                        ("events_per_sec", s.events_per_sec),
                        ("cycles_per_sec", s.cycles_per_sec),
                    ],
                ),
            ] {
                out.push(counter(name, g.cycles, PID, "", &args));
            }
        }
        out
    }

    /// The counters carry `"tid":0`.
    fn decision_events(&self) -> Vec<String> {
        const PID: u32 = 9998;
        if self.decisions.is_empty() {
            return Vec::new();
        }
        let mut out = vec![process_name(PID, "decision audit")];
        for f in self.decisions {
            for (name, args) in [
                (
                    "wbht outcomes",
                    vec![
                        ("correct", f.aborts_correct),
                        ("mispredicted", f.aborts_mispredicted),
                        ("allows_redundant", f.allows_redundant),
                    ],
                ),
                (
                    "snarf outcomes",
                    vec![("useful", f.snarfs_useful), ("wasted", f.snarfs_wasted)],
                ),
                ("wbht engaged", vec![("engaged", u64::from(f.engaged))]),
            ] {
                out.push(counter(name, f.cycle, PID, ",\"tid\":0", &args));
            }
        }
        out
    }
}

fn process_name(pid: u32, name: &str) -> String {
    format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"{name}\"}}}}"
    )
}

/// A counter event over integer `args`; `tid` is empty or `,"tid":N`.
fn counter(name: &str, ts: Cycle, pid: u32, tid: &str, args: &[(&str, u64)]) -> String {
    let args: Vec<String> = args.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!(
        "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid}{tid},\"args\":{{{}}}}}",
        args.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::HostGauges;
    use crate::spans::{SpanKind, SpanPhase, SpanTracer};
    use crate::telemetry::FillSource;

    fn span() -> SpanRecord {
        let tracer = SpanTracer::sampled(1);
        tracer.start(3, SpanKind::Miss, 1, 0x40, 100);
        for (phase, at) in [
            (SpanPhase::MshrAlloc, 103),
            (SpanPhase::RingArb, 110),
            (SpanPhase::L3Queue, 155),
            (SpanPhase::L3Service, 231),
            (SpanPhase::DataReturn, 267),
        ] {
            tracer.mark(3, phase, at);
        }
        tracer.finish(3, SpanOutcome::Filled(FillSource::L3), 267);
        tracer.finished_spans().remove(0)
    }

    fn host_sample(cycles: u64, frontend_ns: u64) -> HostSample {
        let mut stage_ns = [0; STAGE_COUNT];
        stage_ns[HostStage::Frontend as usize] = frontend_ns;
        HostSample {
            sample: 0,
            wall_ns: 0,
            cycles_per_sec: 7,
            events_per_sec: 9,
            rss_kb: 0,
            gauges: HostGauges {
                cycles,
                ..Default::default()
            },
            stage_ns,
        }
    }

    fn render(trace: ChromeTrace<'_>) -> String {
        let mut buf = Vec::new();
        trace.write(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    /// The event lines, with their separating commas stripped after
    /// checking that every line but the last has one.
    fn events(text: &str) -> Vec<&str> {
        assert!(text.starts_with("[\n") && text.ends_with("\n]\n"), "{text}");
        let lines: Vec<&str> = text.lines().filter(|l| l.starts_with('{')).collect();
        for l in &lines[..lines.len() - 1] {
            assert!(l.ends_with("},"), "{l}");
        }
        assert!(lines.last().unwrap().ends_with("}}"));
        lines.iter().map(|l| l.trim_end_matches(',')).collect()
    }

    #[test]
    fn span_track_is_balanced_and_tiles_each_span() {
        let spans = [span()];
        let text = render(ChromeTrace {
            spans: &spans,
            ..Default::default()
        });
        let events = events(&text);
        // 1 process name + 1 enclosing + 5 phase events.
        assert_eq!(events.len(), 7);
        for e in &events {
            assert_eq!(e.matches('{').count(), e.matches('}').count(), "{e}");
            assert_eq!(e.matches('"').count() % 2, 0, "{e}");
        }
        assert!(events[0].contains("\"name\":\"L2#1\""));
        assert!(events[1].contains("\"outcome\":\"fill_l3\""));
        assert!(text.contains("\"name\":\"l3_queue\""));
        assert!(text.contains("\"class\":\"queue\""));
        let dur = |e: &str| -> u64 {
            let at = e.find("\"dur\":").unwrap() + 6;
            let digits: String = e[at..].chars().take_while(char::is_ascii_digit).collect();
            digits.parse().unwrap()
        };
        let phases: u64 = events[2..].iter().map(|e| dur(e)).sum();
        assert_eq!(dur(events[1]), phases);
    }

    #[test]
    fn counter_tracks_follow_the_spans() {
        let spans = [span()];
        let samples = [host_sample(500, 4_000), host_sample(1_500, 10_000)];
        let frames = [DecisionFrame {
            cycle: 2_000,
            aborts_mispredicted: 1,
            engaged: true,
            ..Default::default()
        }];
        let text = render(ChromeTrace {
            spans: &spans,
            host_samples: &samples,
            decisions: &frames,
        });
        let events = events(&text);
        // 7 span events, 1 + 3 per host sample, 1 + 3 per decision frame.
        assert_eq!(events.len(), 7 + 7 + 4);
        let host = &events[7..14];
        assert!(host[0].contains("\"pid\":9999,\"tid\":0"));
        assert!(host[1].starts_with(
            "{\"name\":\"host_stage_us\",\"ph\":\"C\",\"ts\":500,\"pid\":9999,\
             \"args\":{\"frontend\":4,"
        ));
        // Stage time is per-interval: 10 µs cumulative minus 4 µs.
        assert!(host[4].contains("\"frontend\":6,"), "{}", host[4]);
        assert!(host[6].ends_with("\"events_per_sec\":9,\"cycles_per_sec\":7}}"));
        let decisions = &events[14..];
        assert!(decisions[0].contains("\"name\":\"decision audit\""));
        assert_eq!(
            decisions[1],
            "{\"name\":\"wbht outcomes\",\"ph\":\"C\",\"ts\":2000,\"pid\":9998,\"tid\":0,\
             \"args\":{\"correct\":0,\"mispredicted\":1,\"allows_redundant\":0}}"
        );
        assert!(decisions[3].contains("\"engaged\":1"));
    }
}
