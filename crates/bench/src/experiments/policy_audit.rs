//! Decision-quality audit across the memory-pressure sweep.
//!
//! Runs the combined policy (two half-sized tables, §5.3) with the
//! decision-audit layer enabled and tabulates, per workload and
//! pressure level, how good the adaptive decisions actually were:
//! WBHT abort precision (aborted clean write-backs that were never
//! re-missed all the way to memory), the useful-snarf rate (snarfed
//! lines that later served a local hit or an intervention), and the
//! whole-machine net cycle balance of both mechanisms.

use crate::experiments::{combined_cfg, default_entries, pct, workloads};
use crate::{parallel_runs, Profile, Table};

/// Runs the experiment and renders the three quality tables.
pub fn run(p: &Profile) -> String {
    let entries = default_entries(p);
    let pressures: Vec<u32> = (1..=6).collect();
    let mut specs = Vec::new();
    for &wl in &workloads() {
        for &n in &pressures {
            let mut spec = p.spec(combined_cfg(p, n, entries), wl);
            spec.audit = true;
            specs.push(spec);
        }
    }
    let reports = parallel_runs(specs);

    let mut header = vec!["Max outstanding loads/thread".to_string()];
    header.extend(pressures.iter().map(|n| n.to_string()));
    let mut precision = Table::new(header.clone());
    let mut useful = Table::new(header.clone());
    let mut net = Table::new(header);
    let mut idx = 0;
    for &wl in &workloads() {
        let mut prow = vec![wl.name().to_string()];
        let mut urow = vec![wl.name().to_string()];
        let mut nrow = vec![wl.name().to_string()];
        for _ in &pressures {
            let a = reports[idx].audit.as_ref().expect("audit enabled");
            idx += 1;
            prow.push(if a.totals.aborts == 0 {
                "n/a".into()
            } else {
                pct(a.abort_precision())
            });
            urow.push(if a.totals.snarfs == 0 {
                "n/a".into()
            } else {
                pct(a.useful_snarf_rate())
            });
            nrow.push(format!("{:+}", a.net_cycles()));
        }
        precision.row(prow);
        useful.row(urow);
        net.row(nrow);
    }
    format!(
        "WBHT abort precision (aborted write-backs never re-missed to memory)\n{}\n\
         Useful-snarf rate (snarfed lines later hit locally or served a peer)\n{}\n\
         Net cycles saved (abort + snarf credits minus penalties)\n{}",
        precision.render(),
        useful.render(),
        net.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_quality_rates_per_workload() {
        let p = Profile {
            scale_factor: 16,
            refs_per_thread: 2_000,
            seeds: 1,
        };
        let out = run(&p);
        assert!(out.contains("abort precision"));
        assert!(out.contains("Useful-snarf rate"));
        assert!(out.contains("Net cycles"));
        // Every workload appears once per table.
        for wl in workloads() {
            assert_eq!(out.matches(wl.name()).count(), 3, "{}", wl.name());
        }
        // At least one cell resolved to an actual percentage.
        assert!(out.contains('%'), "no resolved rates in:\n{out}");
    }
}
