//! Policy face-off: the paper's adaptive mechanisms against the two
//! post-paper policies, on equal footing.
//!
//! Runs the memory-pressure sweep (1..=6 outstanding loads/thread) for
//! the WBHT (§2), the reuse-distance copy-back filter, and the hybrid
//! update/invalidate coherence policy, each against the shared
//! baseline, and tabulates runtime improvement per workload. A second
//! pass at the highest pressure level enables the span tracer and
//! attributes mean miss latency to its fill source (peer L2, L3,
//! memory) plus the castout path, per policy — showing *where* each
//! policy buys or spends its cycles rather than just the bottom line.

use cmpsim_engine::spans::SpanTracer;
use cmpsim_engine::stats::Log2Histogram;

use crate::experiments::{
    base_cfg, default_entries, hybrid_cfg, pressure_sweep, rdcb_cfg, wbht_cfg, workloads,
};
use crate::{parallel_runs, Profile, Table};
use cmp_adaptive_wb::UpdateScope;

/// A named config constructor at a given pressure level.
type Contender = (
    &'static str,
    Box<dyn Fn(u32) -> cmp_adaptive_wb::SystemConfig>,
);

/// The contenders, in render order.
fn contenders(p: &Profile) -> Vec<Contender> {
    let entries = default_entries(p);
    let p = *p;
    vec![
        ("baseline", Box::new(move |n| base_cfg(&p, n))),
        (
            "wbht",
            Box::new(move |n| wbht_cfg(&p, n, entries, UpdateScope::Local)),
        ),
        ("rdcb", Box::new(move |n| rdcb_cfg(&p, n, entries))),
        ("hybrid", Box::new(move |n| hybrid_cfg(&p, n, entries))),
    ]
}

/// Runs the face-off and renders the sweep + attribution tables.
pub fn run(p: &Profile) -> String {
    let entries = default_entries(p);
    let wbht = pressure_sweep(p, |p, n| wbht_cfg(p, n, entries, UpdateScope::Local));
    let rdcb = pressure_sweep(p, |p, n| rdcb_cfg(p, n, entries));
    let hybrid = pressure_sweep(p, |p, n| hybrid_cfg(p, n, entries));
    format!(
        "WBHT runtime improvement over baseline\n{}\n\
         Reuse-distance copy-back runtime improvement over baseline\n{}\n\
         Hybrid update/invalidate runtime improvement over baseline\n{}\n\
         Mean miss latency by fill source at 6 loads/thread (cycles)\n{}",
        wbht.render(),
        rdcb.render(),
        hybrid.render(),
        attribution(p).render()
    )
}

/// Span-tracer latency attribution at the top pressure level: one row
/// per policy, mean span latency per fill source merged across the
/// standard workloads.
fn attribution(p: &Profile) -> Table {
    let contenders = contenders(p);
    let mut specs = Vec::new();
    for (_, cfg) in &contenders {
        for &wl in &workloads() {
            let mut spec = p.spec(cfg(6), wl);
            spec.span_tracer = SpanTracer::sampled(4);
            specs.push(spec);
        }
    }
    let reports = parallel_runs(specs);
    let mut t = Table::new(vec![
        "Policy".into(),
        "L2 peer".into(),
        "L3".into(),
        "Memory".into(),
        "Castout".into(),
        "Memory fills".into(),
    ]);
    let mut idx = 0;
    for (name, _) in &contenders {
        // Merge each source's latency histogram across the workloads so
        // the row reflects the whole suite.
        let mut merged = [
            Log2Histogram::new(),
            Log2Histogram::new(),
            Log2Histogram::new(),
            Log2Histogram::new(),
        ];
        for _ in &workloads() {
            let s = reports[idx].span_summary.as_ref().expect("tracer enabled");
            idx += 1;
            merged[0].merge(&s.l2_peer.total);
            merged[1].merge(&s.l3.total);
            merged[2].merge(&s.memory.total);
            merged[3].merge(&s.castout.total);
        }
        let mut row = vec![name.to_string()];
        row.extend(merged.iter().map(|h| format!("{:.0}", h.mean())));
        row.push(merged[2].count().to_string());
        t.row(row);
    }
    t
}

/// Structural self-check for CI (`exp policy-faceoff --check`): runs a
/// smoke-sized face-off and validates that every contender completed,
/// the new policies populated their report sections, and the span
/// attribution recorded fills. Returns the failures, empty on pass.
pub fn check(p: &Profile) -> Vec<String> {
    let contenders = contenders(p);
    let mut specs = Vec::new();
    for (_, cfg) in &contenders {
        let mut spec = p.spec(cfg(4), workloads()[0]);
        spec.span_tracer = SpanTracer::sampled(2);
        specs.push(spec);
    }
    let reports = parallel_runs(specs);
    let mut fails = Vec::new();
    for ((name, _), r) in contenders.iter().zip(&reports) {
        if r.stats.refs == 0 {
            fails.push(format!("{name}: no references processed"));
        }
        let s = r.span_summary.as_ref();
        if s.is_none_or(|s| s.recorded == 0) {
            fails.push(format!("{name}: span tracer recorded nothing"));
        }
        match *name {
            "rdcb" if r.rdcb.as_ref().is_none_or(|x| x.decisions == 0) => {
                fails.push("rdcb: no copy-back decisions audited".into());
            }
            "hybrid" if r.hybrid.is_none() => {
                fails.push("hybrid: report section missing".into());
            }
            "wbht" if r.wbht.allocated == 0 => {
                fails.push("wbht: history table never allocated".into());
            }
            _ => {}
        }
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Profile {
        Profile {
            scale_factor: 16,
            refs_per_thread: 1_000,
            seeds: 1,
        }
    }

    #[test]
    fn check_passes_on_smoke_profile() {
        let fails = check(&tiny());
        assert!(fails.is_empty(), "faceoff check failed: {fails:?}");
    }

    #[test]
    fn report_covers_every_contender() {
        let out = run(&Profile {
            scale_factor: 16,
            refs_per_thread: 500,
            seeds: 1,
        });
        for want in [
            "WBHT runtime improvement",
            "Reuse-distance copy-back",
            "Hybrid update/invalidate",
            "Mean miss latency by fill source",
            "baseline",
            "rdcb",
            "hybrid",
        ] {
            assert!(out.contains(want), "missing {want:?} in:\n{out}");
        }
    }
}
