//! `report audit` — decision-quality report and CI consistency gate for
//! the adaptive-decision audit layer.
//!
//! ```text
//! report audit [--pressure N]    audited combined-policy run per
//!                                workload: abort precision, useful-snarf
//!                                rate, retry-switch timeline, per-L2
//!                                breakdown, and per-set heatmaps
//! report audit --check           CI gate: the audit must not perturb the
//!                                simulation (audit-on metrics minus the
//!                                audit_* section byte-identical to
//!                                audit-off) and must resolve an outcome
//!                                for nearly every recorded decision
//! ```
//!
//! Scale follows `CMPSIM_PROFILE` (quick / full / smoke) like the
//! experiment binaries; `--jobs N` bounds worker threads.

use std::num::NonZeroUsize;

use cmp_adaptive_wb::{DecisionAuditSummary, PolicyConfig, RunReport, UpdateScope};
use cmpsim_bench::cli::Args;
use cmpsim_bench::{parallel_runs, set_jobs, Profile};
use cmpsim_trace::Workload;

pub const USAGE: &str = "usage: report audit [--check] [--pressure N] [--jobs N]";

pub fn run(mut args: Args) -> Result<(), String> {
    let mut pressure = 6u32;
    let mut check = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--pressure" => {
                pressure = args.number();
                if !(1..=64).contains(&pressure) {
                    args.fail("--pressure expects 1..=64");
                }
            }
            "--jobs" => set_jobs(args.number::<NonZeroUsize>().get()),
            other => args.fail(format!("unknown flag {other}")),
        }
    }
    let p = Profile::from_env();
    if check {
        self_check(&p, pressure)
    } else {
        report(&p, pressure);
        Ok(())
    }
}

fn combined_spec(
    p: &Profile,
    wl: Workload,
    pressure: u32,
    audit: bool,
) -> cmp_adaptive_wb::RunSpec {
    let mut cfg = p.config();
    cfg.max_outstanding = pressure;
    let entries = p.table_entries(32 * 1024);
    cfg.policy =
        PolicyConfig::parse("combined", entries, UpdateScope::Local, 1).expect("known policy");
    let mut spec = p.spec(cfg, wl);
    spec.audit = audit;
    spec
}

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Buckets a per-set histogram into at most `width` columns and renders
/// one intensity character per bucket (peak-normalized).
fn heatmap(counts: &[u32], width: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    if counts.is_empty() {
        return String::new();
    }
    let buckets = width.min(counts.len());
    let mut sums = vec![0u64; buckets];
    for (i, &c) in counts.iter().enumerate() {
        sums[i * buckets / counts.len()] += c as u64;
    }
    let peak = sums.iter().copied().max().unwrap_or(0);
    sums.iter()
        .map(|&s| {
            match (s * (RAMP.len() as u64 - 1) + peak / 2).checked_div(peak) {
                Some(idx) => RAMP[idx as usize] as char,
                None => ' ', // all-zero histogram
            }
        })
        .collect()
}

fn report(p: &Profile, pressure: u32) {
    let specs: Vec<_> = Workload::all()
        .iter()
        .map(|&wl| combined_spec(p, wl, pressure, true))
        .collect();
    let reports = parallel_runs(specs);
    let mut t = cmpsim_bench::Table::new(vec![
        "Workload".into(),
        "Policy".into(),
        "Decisions".into(),
        "Engaged".into(),
        "Aborts".into(),
        "Precision".into(),
        "Snarfs".into(),
        "Useful".into(),
        "Net cycles".into(),
        "Coverage".into(),
        "Switch on/total".into(),
    ]);
    for r in &reports {
        let a = audit_of(r);
        let tot = &a.totals;
        t.row(vec![
            r.workload.clone(),
            // Config-axis label (what was asked for), not inferred from
            // which stat sections happen to be populated.
            r.policy.to_string(),
            tot.wbht_decisions.to_string(),
            pct(tot.engaged_rate()),
            tot.aborts.to_string(),
            pct(a.abort_precision()),
            tot.snarfs.to_string(),
            pct(a.useful_snarf_rate()),
            format!("{:+}", a.net_cycles()),
            pct(a.resolved_coverage()),
            format!("{}/{}", a.engaged_windows, a.windows),
        ]);
    }
    println!(
        "== Decision audit: combined policy at {pressure} outstanding loads/thread ==\n{}",
        t.render()
    );

    let mut per = cmpsim_bench::Table::new(vec![
        "Workload".into(),
        "L2".into(),
        "Decisions".into(),
        "Precision".into(),
        "Snarfs".into(),
        "Useful".into(),
    ]);
    for r in &reports {
        let a = audit_of(r);
        for (i, s) in a.per_l2.iter().enumerate() {
            per.row(vec![
                if i == 0 {
                    r.workload.clone()
                } else {
                    String::new()
                },
                i.to_string(),
                s.wbht_decisions.to_string(),
                pct(s.abort_precision()),
                s.snarfs.to_string(),
                pct(s.useful_snarf_rate()),
            ]);
        }
    }
    println!("Per-L2 breakdown\n{}", per.render());

    println!("Per-set decision heatmaps (slice-major, peak-normalized)");
    for r in &reports {
        let a = audit_of(r);
        println!(
            "  {:<12} aborts |{}|",
            r.workload,
            heatmap(&a.heat_abort, 64)
        );
        println!("  {:<12} snarfs |{}|", "", heatmap(&a.heat_snarf, 64));
    }
}

fn audit_of(r: &RunReport) -> &DecisionAuditSummary {
    r.audit.as_ref().expect("spec requested the audit")
}

/// CI gate: see the module docs.
fn self_check(p: &Profile, pressure: u32) -> Result<(), String> {
    let wl = Workload::Trade2;
    let reports = parallel_runs(vec![
        combined_spec(p, wl, pressure, false),
        combined_spec(p, wl, pressure, true),
    ]);
    let (off, on) = (&reports[0], &reports[1]);

    let off_rows = off.metrics().flat_rows();
    let on_rows: Vec<_> = on
        .metrics()
        .flat_rows()
        .into_iter()
        .filter(|(name, _)| !name.starts_with("audit_"))
        .collect();
    let mut ok = true;
    if off_rows != on_rows {
        ok = false;
        eprintln!("report audit: FAILED — audit-on run perturbed the base metrics:");
        for (a, b) in off_rows.iter().zip(on_rows.iter()) {
            if a != b {
                eprintln!("  off {a:?} != on {b:?}");
            }
        }
        if off_rows.len() != on_rows.len() {
            eprintln!("  row count off {} vs on {}", off_rows.len(), on_rows.len());
        }
    } else {
        eprintln!(
            "report audit: base metrics identical with audit on ({} rows)",
            off_rows.len()
        );
    }

    let a = audit_of(on);
    let checks: [(&str, bool); 3] = [
        ("WBHT decisions were recorded", a.totals.wbht_decisions > 0),
        ("snarf placements were recorded", a.totals.snarfs > 0),
        (
            "resolved-outcome coverage >= 95%",
            a.resolved_coverage() >= 0.95,
        ),
    ];
    for (what, pass) in checks {
        eprintln!(
            "report audit: {what}: {}",
            if pass { "ok" } else { "FAILED" }
        );
        ok &= pass;
    }
    eprintln!(
        "report audit: decisions {}, aborts {} (precision {}), snarfs {} (useful {}), coverage {}",
        a.totals.wbht_decisions,
        a.totals.aborts,
        pct(a.abort_precision()),
        a.totals.snarfs,
        pct(a.useful_snarf_rate()),
        pct(a.resolved_coverage()),
    );
    if ok {
        Ok(())
    } else {
        Err("FAILED — see the checks above".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_is_peak_normalized_and_finite() {
        let mut counts = vec![0u32; 256];
        counts[0] = 10;
        counts[255] = 100;
        let map = heatmap(&counts, 64);
        assert_eq!(map.len(), 64);
        assert!(map.ends_with('@'), "{map}");
        assert!(map.contains(' '), "{map}");
        // Degenerate inputs stay quiet rather than dividing by zero.
        assert_eq!(heatmap(&[], 64), "");
        assert_eq!(heatmap(&[0, 0], 64), "  ");
    }

    #[test]
    fn audited_and_plain_runs_agree_on_base_metrics() {
        let p = Profile {
            scale_factor: 16,
            refs_per_thread: 1_000,
            seeds: 1,
        };
        let off = cmp_adaptive_wb::run(combined_spec(&p, Workload::Trade2, 6, false)).unwrap();
        let on = cmp_adaptive_wb::run(combined_spec(&p, Workload::Trade2, 6, true)).unwrap();
        let on_rows: Vec<_> = on
            .metrics()
            .flat_rows()
            .into_iter()
            .filter(|(n, _)| !n.starts_with("audit_"))
            .collect();
        assert_eq!(off.metrics().flat_rows(), on_rows);
        assert!(audit_of(&on).resolved_coverage() >= 0.95);
    }
}
