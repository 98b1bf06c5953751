//! Per-workload parameter presets.
//!
//! Each preset dials the synthetic populations so the workload lands in
//! the paper's qualitative band (Tables 1, 2, 4):
//!
//! | Workload   | Key characteristics from the paper |
//! |------------|------------------------------------|
//! | TP         | 92 % CPU utilization, *low* L3 hit rate (32 %), very high L3 retry volume, highest local reuse of snarfed lines |
//! | CPW2       | ~70 % CPU utilization, ~50 % L3 hit rate, 60 % of clean WBs redundant, modest improvements |
//! | NotesBench | Very low memory pressure, 70 % L3 hit rate, WBHT almost never triggered |
//! | Trade2     | Heaviest WB traffic, 79 % of clean WBs redundant, lines re-referenced 300+ times, most WBHT-size-sensitive |

use crate::{SegmentMix, WorkloadParams};

/// Threads per bounce group: one group per core pair (4 threads in the
/// modelled 16-thread CMP), degrading gracefully for small test systems.
fn threads_per_group(threads: u16) -> u16 {
    (threads / 4).max(1)
}

/// Cache capacity scale used to size workload regions.
///
/// The synthetic populations are meaningful only *relative to* the cache
/// hierarchy (a "bounce set 3× the L3" thrashes any L3), so presets take
/// the capacities as input and the same workload definitions work for
/// the paper-sized hierarchy and for scaled-down test hierarchies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheScale {
    /// Total L2 lines across all L2 caches.
    pub l2_lines_total: u64,
    /// Total L3 lines.
    pub l3_lines_total: u64,
}

impl CacheScale {
    /// The paper's hierarchy: 4 L2 caches × 2 MB (4 × 512 KB slices) and
    /// a 16 MB L3, 128-byte lines.
    pub fn paper() -> Self {
        CacheScale {
            l2_lines_total: 4 * 2 * 1024 * 1024 / 128,
            l3_lines_total: 16 * 1024 * 1024 / 128,
        }
    }

    /// The paper hierarchy scaled down by `factor` (capacities divided,
    /// structure preserved).
    pub fn scaled(factor: u64) -> Self {
        let p = Self::paper();
        CacheScale {
            l2_lines_total: (p.l2_lines_total / factor).max(64),
            l3_lines_total: (p.l3_lines_total / factor).max(128),
        }
    }
}

/// The four commercial workloads of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Online transaction processing (TPC-C-like mix).
    Tp,
    /// Commercial Processing Workload 2 (OLTP database server at ~70 %
    /// CPU utilization).
    Cpw2,
    /// Lotus Domino mail-server benchmark.
    NotesBench,
    /// J2EE online-brokerage web application.
    Trade2,
}

impl Workload {
    /// All four workloads in the paper's table order.
    pub fn all() -> [Workload; 4] {
        [
            Workload::Cpw2,
            Workload::NotesBench,
            Workload::Tp,
            Workload::Trade2,
        ]
    }

    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Tp => "TP",
            Workload::Cpw2 => "CPW2",
            Workload::NotesBench => "NotesBench",
            Workload::Trade2 => "Trade2",
        }
    }

    /// Looks a workload up by its command-line name, ignoring case:
    /// `tp`, `cpw2`, `notesbench` (or `nb`) and `trade2`.
    pub fn from_name(name: &str) -> Option<Workload> {
        match name.to_ascii_lowercase().as_str() {
            "tp" => Some(Workload::Tp),
            "cpw2" => Some(Workload::Cpw2),
            "notesbench" | "nb" => Some(Workload::NotesBench),
            "trade2" => Some(Workload::Trade2),
            _ => None,
        }
    }

    /// Builds the workload's parameters for a given thread count and
    /// cache scale.
    pub fn params(self, threads: u16, scale: CacheScale) -> WorkloadParams {
        let l2_per_cache = scale.l2_lines_total / 4;
        let l3 = scale.l3_lines_total;
        match self {
            // TP: hot private set (high CPU utilization), bounce set 3x
            // the L3 (thrashes it -> ~32% hit rate), significant
            // migratory and shared traffic (dirty castouts pressure the
            // L3 queues -> huge retry volume; snarfed lines get reused).
            Workload::Tp => WorkloadParams {
                name: "TP".into(),
                line_bytes: 128,
                threads,
                issue_interval: 1,
                mix: SegmentMix {
                    private: 0.40,
                    bounce: 0.12,
                    rotor: 0.20,
                    shared: 0.12,
                    migratory: 0.12,
                    streaming: 0.04,
                },
                private_lines: (l2_per_cache / 8).max(16),
                private_theta: 3.2,
                private_store_frac: 0.22,
                bounce_lines: (l3 * 3 / 4).max(64),
                bounce_group_threads: threads_per_group(threads),
                bounce_cross_frac: 0.15,
                bounce_theta: 1.5,
                bounce_store_frac: 0.35,
                rotor_lines: l2_per_cache.max(32),
                rotor_store_frac: 0.50,
                shared_lines: (l2_per_cache / 2).max(16),
                shared_theta: 2.0,
                shared_store_frac: 0.04,
                migratory_lines: (l2_per_cache / 8).max(16),
                migratory_rmw_frac: 0.6,
            },
            // CPW2: moderate everything; bounce set comparable to the L3
            // (-> ~50% hit rate, 60% redundant clean write-backs).
            Workload::Cpw2 => WorkloadParams {
                name: "CPW2".into(),
                line_bytes: 128,
                threads,
                issue_interval: 3,
                mix: SegmentMix {
                    private: 0.64,
                    bounce: 0.15,
                    rotor: 0.04,
                    shared: 0.08,
                    migratory: 0.04,
                    streaming: 0.05,
                },
                private_lines: (l2_per_cache / 8).max(16),
                private_theta: 3.0,
                private_store_frac: 0.15,
                bounce_lines: (l3 * 30 / 100).max(64),
                bounce_group_threads: threads_per_group(threads),
                bounce_cross_frac: 0.20,
                bounce_theta: 2.0,
                bounce_store_frac: 0.04,
                rotor_lines: l2_per_cache.max(32),
                rotor_store_frac: 0.06,
                shared_lines: (l2_per_cache / 2).max(16),
                shared_theta: 2.0,
                shared_store_frac: 0.03,
                migratory_lines: (l2_per_cache / 8).max(16),
                migratory_rmw_frac: 0.5,
            },
            // NotesBench: dominated by the private working set (very low
            // memory pressure); small bounce set well inside the L3
            // (70% hit rate); little store traffic.
            Workload::NotesBench => WorkloadParams {
                name: "NotesBench".into(),
                line_bytes: 128,
                threads,
                issue_interval: 24,
                mix: SegmentMix {
                    private: 0.905,
                    bounce: 0.055,
                    rotor: 0.01,
                    shared: 0.015,
                    migratory: 0.005,
                    streaming: 0.01,
                },
                private_lines: (l2_per_cache / 16).max(16),
                private_theta: 3.5,
                private_store_frac: 0.10,
                bounce_lines: (l3 / 8).max(64),
                bounce_group_threads: threads_per_group(threads),
                bounce_cross_frac: 0.20,
                bounce_theta: 1.5,
                bounce_store_frac: 0.03,
                rotor_lines: l2_per_cache.max(32),
                rotor_store_frac: 0.04,
                shared_lines: (l2_per_cache / 4).max(16),
                shared_theta: 2.2,
                shared_store_frac: 0.02,
                migratory_lines: (l2_per_cache / 8).max(16),
                migratory_rmw_frac: 0.5,
            },
            // Trade2: the heaviest write-back traffic; bounce set ~60% of
            // the L3 with a skew that re-references hot lines hundreds of
            // times (79% redundant clean write-backs, 79% L3 hit rate,
            // strongest WBHT-size sensitivity).
            Workload::Trade2 => WorkloadParams {
                name: "Trade2".into(),
                line_bytes: 128,
                threads,
                issue_interval: 1,
                mix: SegmentMix {
                    private: 0.36,
                    bounce: 0.34,
                    rotor: 0.12,
                    shared: 0.08,
                    migratory: 0.04,
                    streaming: 0.06,
                },
                private_lines: (l2_per_cache / 8).max(16),
                private_theta: 2.8,
                private_store_frac: 0.20,
                bounce_lines: (l3 / 8).max(64),
                bounce_group_threads: threads_per_group(threads),
                bounce_cross_frac: 0.25,
                bounce_theta: 1.9,
                bounce_store_frac: 0.05,
                rotor_lines: l2_per_cache.max(32),
                rotor_store_frac: 0.06,
                shared_lines: (l2_per_cache / 2).max(16),
                shared_theta: 2.0,
                shared_store_frac: 0.03,
                migratory_lines: (l2_per_cache / 8).max(16),
                migratory_rmw_frac: 0.5,
            },
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyntheticWorkload;

    #[test]
    fn all_presets_validate() {
        for w in Workload::all() {
            for factor in [1, 8, 64] {
                let p = w.params(16, CacheScale::scaled(factor));
                assert!(
                    SyntheticWorkload::new(p, 0).is_ok(),
                    "{w} at scale {factor} invalid"
                );
            }
        }
    }

    #[test]
    fn paper_scale_sizes() {
        let s = CacheScale::paper();
        assert_eq!(s.l2_lines_total, 65536); // 8 MB of 128 B lines
        assert_eq!(s.l3_lines_total, 131072); // 16 MB
    }

    #[test]
    fn scaled_preserves_ratio() {
        let s = CacheScale::scaled(8);
        assert_eq!(s.l2_lines_total, 8192);
        assert_eq!(s.l3_lines_total, 16384);
    }

    #[test]
    fn tp_thrashes_l3_trade2_fits() {
        let s = CacheScale::paper();
        let tp = Workload::Tp.params(16, s);
        let t2 = Workload::Trade2.params(16, s);
        // Aggregate bounce footprint = per-group region x groups.
        let groups = |p: &crate::WorkloadParams| 16 / p.bounce_group_threads as u64;
        assert!(tp.bounce_lines * groups(&tp) > s.l3_lines_total * 2);
        assert!(t2.bounce_lines * groups(&t2) < s.l3_lines_total);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Workload::Tp.name(), "TP");
        assert_eq!(Workload::Cpw2.to_string(), "CPW2");
        assert_eq!(Workload::NotesBench.name(), "NotesBench");
        assert_eq!(Workload::Trade2.name(), "Trade2");
    }

    #[test]
    fn from_name_accepts_every_display_name() {
        for w in Workload::all() {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nb"), Some(Workload::NotesBench));
        assert_eq!(Workload::from_name("TRADE2"), Some(Workload::Trade2));
        assert_eq!(Workload::from_name("bogus"), None);
    }

    #[test]
    fn notesbench_is_private_dominated() {
        let p = Workload::NotesBench.params(16, CacheScale::paper());
        assert!(p.mix.private > 0.6);
    }
}
