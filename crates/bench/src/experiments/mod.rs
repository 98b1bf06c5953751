//! One module per table/figure of the paper's evaluation (§5).

pub mod ext_exclusive;
pub mod ext_granularity;
pub mod ext_insert_pos;
pub mod ext_private_l3;
pub mod ext_replacement;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod policy_audit;
pub mod policy_faceoff;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod workloads_profile;

use cmp_adaptive_wb::{PolicyConfig, SystemConfig, UpdateScope};
use cmpsim_trace::Workload;

use crate::Profile;

/// An experiment: its paper id, a title, and a runner producing the
/// report text.
#[derive(Clone)]
pub struct Experiment {
    /// Paper identifier, e.g. `"table1"` or `"fig4"`.
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Runner.
    pub run: fn(&Profile) -> String,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("id", &self.id)
            .field("title", &self.title)
            .finish()
    }
}

/// All experiments, in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            title: "Table 1: % of clean L2 write-backs already present in the L3",
            run: table1::run,
        },
        Experiment {
            id: "table2",
            title: "Table 2: write-back reuse statistics",
            run: table2::run,
        },
        Experiment {
            id: "table3",
            title: "Table 3: system parameters",
            run: table3::run,
        },
        Experiment {
            id: "table4",
            title: "Table 4: effects of the WBHT (6 loads/thread)",
            run: table4::run,
        },
        Experiment {
            id: "table5",
            title: "Table 5: effects of L2-to-L2 write-backs (6 loads/thread)",
            run: table5::run,
        },
        Experiment {
            id: "fig2",
            title: "Figure 2: runtime improvement of the WBHT vs outstanding loads",
            run: fig2::run,
        },
        Experiment {
            id: "fig3",
            title: "Figure 3: WBHT with global (all-L2) table updates",
            run: fig3::run,
        },
        Experiment {
            id: "fig4",
            title: "Figure 4: runtime vs WBHT size (normalized to 512 entries)",
            run: fig4::run,
        },
        Experiment {
            id: "fig5",
            title: "Figure 5: runtime improvement of L2 snarfing vs outstanding loads",
            run: fig5::run,
        },
        Experiment {
            id: "fig6",
            title: "Figure 6: runtime vs snarf-table size (normalized to 512 entries)",
            run: fig6::run,
        },
        Experiment {
            id: "fig7",
            title: "Figure 7: combined WBHT + snarfing (two half-sized tables)",
            run: fig7::run,
        },
        Experiment {
            id: "ext-granularity",
            title: "Extension (paper §7): multi-line WBHT entries (quarter-size table)",
            run: ext_granularity::run,
        },
        Experiment {
            id: "ext-replacement",
            title: "Extension (paper §7): history-aware L2 replacement",
            run: ext_replacement::run,
        },
        Experiment {
            id: "ext-exclusive",
            title: "Ablation: retaining vs strictly exclusive L3 victim cache",
            run: ext_exclusive::run,
        },
        Experiment {
            id: "ext-private-l3",
            title: "Extension (paper §7): POWER5-style chip-private L3s",
            run: ext_private_l3::run,
        },
        Experiment {
            id: "ext-insert-pos",
            title: "Ablation: snarf insertion recency position (MRU/Mid/LRU)",
            run: ext_insert_pos::run,
        },
        Experiment {
            id: "workloads",
            title: "Workload characterization (calibration evidence)",
            run: workloads_profile::run,
        },
        Experiment {
            id: "policy-audit",
            title: "Decision audit: WBHT abort precision and useful-snarf rate",
            run: policy_audit::run,
        },
        Experiment {
            id: "policy-faceoff",
            title: "Policy face-off: WBHT vs reuse-distance copy-back vs hybrid coherence",
            run: policy_faceoff::run,
        },
    ]
}

/// Looks up an experiment by id.
pub fn by_id(id: &str) -> Option<Experiment> {
    all().into_iter().find(|e| e.id == id)
}

// --- shared configuration helpers -----------------------------------------

/// Baseline system at a given memory pressure.
pub(crate) fn base_cfg(p: &Profile, pressure: u32) -> SystemConfig {
    let mut c = p.config();
    c.max_outstanding = pressure;
    c
}

/// A system running the policy `spec` (see [`PolicyConfig::parse`])
/// with `entries`-entry tables.
fn parsed_cfg(
    p: &Profile,
    pressure: u32,
    spec: &str,
    entries: u64,
    scope: UpdateScope,
) -> SystemConfig {
    let mut c = base_cfg(p, pressure);
    c.policy = PolicyConfig::parse(spec, entries, scope, 1).expect("known policy");
    c
}

/// WBHT system (paper default 32K entries unless overridden).
pub(crate) fn wbht_cfg(
    p: &Profile,
    pressure: u32,
    entries: u64,
    scope: UpdateScope,
) -> SystemConfig {
    parsed_cfg(p, pressure, "wbht", entries, scope)
}

/// Snarf system.
pub(crate) fn snarf_cfg(p: &Profile, pressure: u32, entries: u64) -> SystemConfig {
    parsed_cfg(p, pressure, "snarf", entries, UpdateScope::Local)
}

/// Combined system: the `entries` budget split into two half-sized
/// tables (§5.3).
pub(crate) fn combined_cfg(p: &Profile, pressure: u32, entries: u64) -> SystemConfig {
    parsed_cfg(p, pressure, "combined", entries, UpdateScope::Local)
}

/// Reuse-distance copy-back system.
pub(crate) fn rdcb_cfg(p: &Profile, pressure: u32, entries: u64) -> SystemConfig {
    parsed_cfg(p, pressure, "rdcb", entries, UpdateScope::Local)
}

/// Hybrid update/invalidate coherence system.
pub(crate) fn hybrid_cfg(p: &Profile, pressure: u32, entries: u64) -> SystemConfig {
    parsed_cfg(p, pressure, "hybrid", entries, UpdateScope::Local)
}

/// Scaled paper-default table size (32K at full scale).
pub(crate) fn default_entries(p: &Profile) -> u64 {
    p.table_entries(32 * 1024)
}

/// Formats a fraction as a percentage.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a signed percentage-point value.
pub(crate) fn pp(x: f64) -> String {
    format!("{x:+.1}%")
}

/// The standard workload order used in every table.
pub(crate) fn workloads() -> [Workload; 4] {
    Workload::all()
}

/// A pressure-sweep figure (Figures 2, 3, 5, 7): runs baseline and the
/// variant at pressures 1..=6 and tabulates percentage improvements.
pub(crate) fn pressure_sweep(
    p: &Profile,
    make_variant: impl Fn(&Profile, u32) -> SystemConfig,
) -> crate::Table {
    let pressures: Vec<u32> = (1..=6).collect();
    let mut specs = Vec::new();
    for &wl in &workloads() {
        for &n in &pressures {
            for seed in 0..p.seeds {
                let mut base = base_cfg(p, n);
                base.seed = base.seed.wrapping_add(seed * 7919);
                let mut var = make_variant(p, n);
                var.seed = base.seed;
                specs.push(p.spec(base, wl));
                specs.push(p.spec(var, wl));
            }
        }
    }
    let reports = crate::parallel_runs(specs);
    let mut header = vec!["Max outstanding loads/thread".to_string()];
    header.extend(pressures.iter().map(|n| n.to_string()));
    let mut t = crate::Table::new(header);
    let mut idx = 0;
    for &wl in &workloads() {
        let mut row = vec![wl.name().to_string()];
        for _ in &pressures {
            let mut acc = 0.0;
            for _ in 0..p.seeds {
                let base = &reports[idx];
                let variant = &reports[idx + 1];
                idx += 2;
                acc += variant.improvement_over(base);
            }
            row.push(pp(acc / p.seeds as f64));
        }
        t.row(row);
    }
    t
}

/// A table-size sweep (Figures 4 and 6) at 6 loads/thread: runtimes
/// normalized to the 512-entry configuration (values < 1 are faster).
pub(crate) fn size_sweep(
    p: &Profile,
    sizes: &[u64],
    make_variant: impl Fn(&Profile, u64) -> SystemConfig,
) -> crate::Table {
    let mut specs = Vec::new();
    for &wl in &workloads() {
        for seed in 0..p.seeds {
            let bump = seed * 7919;
            let mut norm = make_variant(p, 512);
            norm.seed = norm.seed.wrapping_add(bump);
            specs.push(p.spec(norm, wl));
            for &sz in sizes {
                let mut cfg = make_variant(p, sz);
                cfg.seed = cfg.seed.wrapping_add(bump);
                specs.push(p.spec(cfg, wl));
            }
        }
    }
    let reports = crate::parallel_runs(specs);
    let mut header = vec!["Table entries".to_string()];
    header.extend(sizes.iter().map(|s| s.to_string()));
    let mut t = crate::Table::new(header);
    let mut idx = 0;
    for &wl in &workloads() {
        let mut acc = vec![0.0f64; sizes.len()];
        for _ in 0..p.seeds {
            let norm = reports[idx].stats.cycles as f64;
            idx += 1;
            for a in acc.iter_mut() {
                *a += reports[idx].stats.cycles as f64 / norm;
                idx += 1;
            }
        }
        let mut row = vec![wl.name().to_string()];
        for a in acc {
            row.push(format!("{:.3}", a / p.seeds as f64));
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_table_and_figure() {
        let ids: Vec<&str> = all().iter().map(|e| e.id).collect();
        for want in [
            "table1", "table2", "table3", "table4", "table5", "fig2", "fig3", "fig4", "fig5",
            "fig6", "fig7",
        ] {
            assert!(ids.contains(&want), "missing experiment {want}");
        }
        assert!(by_id("table4").is_some());
        assert!(by_id("nope").is_none());
    }

    #[test]
    fn config_helpers_set_policies() {
        let p = Profile::quick();
        assert_eq!(base_cfg(&p, 3).max_outstanding, 3);
        assert!(wbht_cfg(&p, 6, 1024, UpdateScope::Local).policy.has_wbht());
        assert!(snarf_cfg(&p, 6, 1024).policy.has_snarf());
        let c = combined_cfg(&p, 6, 2048);
        assert_eq!(c.policy.wbht.unwrap().entries, 1024);
        assert_eq!(c.policy.snarf.unwrap().entries, 1024);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.421), "42.1%");
        assert_eq!(pp(13.09), "+13.1%");
        assert_eq!(pp(-0.26), "-0.3%");
    }
}
