//! End-to-end span-tracer tests: phase telescoping through a full
//! simulation, fill-source latency tiers against the paper's numbers,
//! sampling, timing invariance, Chrome-trace export validity, and a
//! golden-file determinism check of the exported format.
//!
//! Regenerate the golden file after an intentional format change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test spans golden
//! ```

use cmp_hierarchies::adaptive::{run, PolicyConfig, RunSpec, SystemConfig};
use cmp_hierarchies::engine::chrome::ChromeTrace;
use cmp_hierarchies::engine::spans::{SpanRecord, SpanTracer};
use cmp_hierarchies::engine::telemetry::FillSource;
use cmp_hierarchies::trace::Workload;

fn traced_spec(refs: u64, sample: u64) -> RunSpec {
    let mut cfg = SystemConfig::scaled(16);
    cfg.policy = PolicyConfig::baseline();
    let mut spec = RunSpec::for_workload(cfg, Workload::Trade2, refs);
    spec.span_tracer = SpanTracer::sampled(sample);
    spec
}

fn mean_total(spans: &[SpanRecord], src: FillSource) -> f64 {
    let of_src: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.outcome.and_then(|o| o.fill_source()) == Some(src))
        .collect();
    assert!(!of_src.is_empty(), "no fills from {src:?}");
    of_src.iter().map(|s| s.total()).sum::<u64>() as f64 / of_src.len() as f64
}

#[test]
fn every_span_telescopes_and_finishes() {
    let report = run(traced_spec(2_000, 1)).unwrap();
    assert!(!report.spans.is_empty());
    let summary = report.span_summary.as_ref().unwrap();
    assert_eq!(summary.recorded, report.spans.len() as u64);
    assert_eq!(summary.sampled_out, 0);
    let mut ids = std::collections::HashSet::new();
    for s in &report.spans {
        // The telescoping invariant: phase segments tile [start, end]
        // exactly, so queue wait and service always add up.
        assert_eq!(
            s.queue_wait() + s.service(),
            s.total(),
            "span {} does not telescope",
            s.id
        );
        assert!(s.outcome.is_some(), "span {} left unfinished", s.id);
        assert!(ids.insert(s.id), "duplicate span id {}", s.id);
        let mut prev = s.start;
        for (_, seg_start, len) in s.segments() {
            assert_eq!(seg_start, prev, "gap in span {}", s.id);
            prev = seg_start + len;
        }
        assert_eq!(prev, s.end(), "segments do not reach span end");
    }
    // Spans cross-check the aggregate fill counters exactly (no
    // sampling, so every granted read is one recorded miss span).
    assert_eq!(summary.l2_peer.total.count(), report.stats.fills_from_l2);
    assert_eq!(summary.l3.total.count(), report.stats.fills_from_l3);
    assert_eq!(summary.memory.total.count(), report.stats.fills_from_memory);
}

#[test]
fn latency_tiers_follow_the_paper_hierarchy() {
    // Paper §4: contention-free latencies of ~77 (L2-to-L2 intervention),
    // ~167 (L3 hit), ~431 (memory). Observed means carry queueing on
    // top, so assert the ordering strictly and the levels loosely.
    let report = run(traced_spec(4_000, 1)).unwrap();
    let l2 = mean_total(&report.spans, FillSource::L2Peer);
    let l3 = mean_total(&report.spans, FillSource::L3);
    let mem = mean_total(&report.spans, FillSource::Memory);
    assert!(l2 < l3 && l3 < mem, "tier ordering broken: {l2} {l3} {mem}");
    assert!((60.0..300.0).contains(&l2), "intervention tier at {l2}");
    assert!((120.0..400.0).contains(&l3), "L3 tier at {l3}");
    assert!((380.0..700.0).contains(&mem), "memory tier at {mem}");
}

#[test]
fn sampling_keeps_a_deterministic_subset() {
    let full = run(traced_spec(1_000, 1)).unwrap();
    let sampled = run(traced_spec(1_000, 8)).unwrap();
    let summary = sampled.span_summary.as_ref().unwrap();
    assert!(summary.sampled_out > 0);
    assert!(sampled.spans.len() < full.spans.len());
    assert_eq!(
        summary.started,
        summary.recorded + summary.sampled_out,
        "every started span must be recorded or sampled out"
    );
    for s in &sampled.spans {
        assert_eq!(s.id % 8, 0, "span {} escaped the 1/8 sampler", s.id);
    }
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    // The tracer only observes (it never reserves resources), so a
    // traced run and an untraced run of the same spec are cycle-exact
    // replicas of each other.
    let traced = run(traced_spec(1_500, 1)).unwrap();
    let mut untraced_spec = traced_spec(1_500, 1);
    untraced_spec.span_tracer = SpanTracer::disabled();
    let untraced = run(untraced_spec).unwrap();
    assert_eq!(traced.cycles(), untraced.cycles());
    assert_eq!(traced.stats.refs, untraced.stats.refs);
    assert_eq!(
        traced.stats.fills_from_memory,
        untraced.stats.fills_from_memory
    );
    assert_eq!(traced.stats.retries_total, untraced.stats.retries_total);
    assert!(untraced.spans.is_empty());
    assert!(untraced.span_summary.is_none());
}

#[test]
fn chrome_trace_export_is_well_formed() {
    let report = run(traced_spec(800, 4)).unwrap();
    let mut buf = Vec::new();
    let trace = ChromeTrace {
        spans: &report.spans,
        ..Default::default()
    };
    trace.write(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.starts_with("[\n"));
    assert!(text.ends_with("]\n"));
    let events: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with('{') || l.starts_with(" {"))
        .collect();
    let enclosing = events
        .iter()
        .filter(|l| {
            l.contains("\"name\":\"miss\"")
                || l.contains("\"name\":\"castout\"")
                || l.contains("\"name\":\"upgrade\"")
        })
        .count();
    assert_eq!(enclosing, report.spans.len());
    for line in &events {
        let body = line.trim_start().trim_end_matches(',');
        assert!(body.starts_with('{') && body.ends_with('}'), "{body}");
        assert_eq!(body.matches('{').count(), body.matches('}').count());
        assert_eq!(body.matches('"').count() % 2, 0);
        assert!(
            body.contains("\"ph\":\"X\"") || body.contains("\"ph\":\"M\""),
            "{body}"
        );
    }
}

#[test]
fn golden_span_trace_is_stable() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/spans_small.json");
    let report = run(traced_spec(300, 4)).unwrap();
    // Keep the golden file small and focused: the first 30 spans.
    let head: Vec<SpanRecord> = report.spans.iter().take(30).cloned().collect();
    let mut buf = Vec::new();
    let trace = ChromeTrace {
        spans: &head,
        ..Default::default()
    };
    trace.write(&mut buf).unwrap();
    let produced = String::from_utf8(buf).unwrap();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &produced).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(golden_path)
        .expect("golden file missing; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        produced, expected,
        "span trace drifted from tests/golden/spans_small.json; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
