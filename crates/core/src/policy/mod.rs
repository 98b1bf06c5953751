//! The adaptive cache-management policies and the stack that holds
//! them.
//!
//! The paper's two mechanisms and two rivals from the related work are
//! held, each when configured, by the [`PolicyStack`] the pipeline
//! dispatches through (hook table in `framework.rs`):
//!
//! * **WBHT** ([`WbhtConfig`], §2) — filters redundant clean
//!   write-backs with per-L2 history tables, gated by the retry-rate
//!   switch (§2.2);
//! * **snarf** ([`SnarfConfig`], §3) — L2-to-L2 write-back absorption
//!   driven by a chip-wide reuse table;
//! * **reuse-distance copy-back** ([`RdcbConfig`], after Wang et al.,
//!   arXiv:2105.14442) — vetoes copy-backs of clean victims predicted
//!   dead, a rival to the WBHT;
//! * **hybrid update/invalidate** ([`HybridConfig`], after Dovgopol &
//!   Rosonke, arXiv:1502.00101) — adaptively completes stores to
//!   shared lines as updates instead of invalidations.
//!
//! [`PolicyConfig`] selects any combination, and
//! [`PolicyConfig::parse`] reads one from a `--policy` spec such as
//! `wbht+hybrid`; the paper's configurations are the
//! [`PolicyConfig::wbht`]/[`PolicyConfig::snarf`]/
//! [`PolicyConfig::combined`] corners.

mod framework;
mod hybrid;
mod rdcb;
mod retry_switch;
mod snarf;
mod wbht;

pub use framework::{CastoutCtx, CastoutDecision, PolicyStack, ResponseCtx};
pub use hybrid::{CoherenceAction, HybridConfig, HybridStats, HybridUpdateInvalidate};
pub use rdcb::{RdcbConfig, RdcbStats, ReuseDistanceCopyBack};
pub use retry_switch::{RetrySwitch, RetrySwitchConfig};
pub use snarf::{SnarfConfig, SnarfStats, SnarfTable};
pub use wbht::{UpdateScope, Wbht, WbhtConfig, WbhtStats};

use cmpsim_cache::CacheGeometry;

/// The most entries one history table may have. Figures 4 and 6 sweep
/// tables up to 64K entries; the bound stops a mistyped size from
/// allocating the host's memory away before anything can reject it.
pub const MAX_TABLE_ENTRIES: u64 = 1 << 20;

/// A history-table size no table can be built with: above
/// [`MAX_TABLE_ENTRIES`], or not a power-of-two number of whole sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableSizeError {
    /// The table: `WBHT`, `snarf table`, `rdcb table` or `hybrid table`.
    pub table: &'static str,
    /// The entry count it was configured with.
    pub entries: u64,
    /// Its associativity.
    pub assoc: u64,
}

impl std::fmt::Display for TableSizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let TableSizeError {
            table,
            entries,
            assoc,
        } = self;
        if *entries > MAX_TABLE_ENTRIES {
            write!(
                f,
                "{table} of {entries} entries exceeds the {MAX_TABLE_ENTRIES}-entry limit"
            )
        } else {
            write!(
                f,
                "{table} of {entries} entries is not a power-of-two number of {assoc}-way sets"
            )
        }
    }
}

impl std::error::Error for TableSizeError {}

/// A policy spec named a mechanism [`PolicyConfig::parse`] does not
/// know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPolicy(pub String);

impl std::fmt::Display for UnknownPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown policy {} (expected base|baseline|wbht|snarf|combined|rdcb|hybrid, \
             joinable with '+')",
            self.0
        )
    }
}

impl std::error::Error for UnknownPolicy {}

/// Which adaptive mechanisms are active — a composable set (each field
/// is independent; any combination is valid). The default is the
/// baseline: every victimized line, clean and dirty, is written back
/// and peers are invalidated on stores.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicyConfig {
    /// Write-back history table (paper §2).
    pub wbht: Option<WbhtConfig>,
    /// L2-to-L2 snarfing (paper §3).
    pub snarf: Option<SnarfConfig>,
    /// Reuse-distance clean copy-back filtering (related work).
    pub rdcb: Option<RdcbConfig>,
    /// Hybrid update/invalidate coherence (related work).
    pub hybrid: Option<HybridConfig>,
}

impl PolicyConfig {
    /// The baseline: no adaptive mechanism.
    pub fn baseline() -> Self {
        PolicyConfig::default()
    }

    /// WBHT only.
    pub fn wbht(cfg: WbhtConfig) -> Self {
        PolicyConfig {
            wbht: Some(cfg),
            ..Default::default()
        }
    }

    /// Snarfing only.
    pub fn snarf(cfg: SnarfConfig) -> Self {
        PolicyConfig {
            snarf: Some(cfg),
            ..Default::default()
        }
    }

    /// WBHT and snarfing together (the paper's combined configuration).
    pub fn combined(wbht: WbhtConfig, snarf: SnarfConfig) -> Self {
        PolicyConfig {
            wbht: Some(wbht),
            snarf: Some(snarf),
            ..Default::default()
        }
    }

    /// Reuse-distance copy-back only.
    pub fn rdcb(cfg: RdcbConfig) -> Self {
        PolicyConfig {
            rdcb: Some(cfg),
            ..Default::default()
        }
    }

    /// Hybrid update/invalidate only.
    pub fn hybrid(cfg: HybridConfig) -> Self {
        PolicyConfig {
            hybrid: Some(cfg),
            ..Default::default()
        }
    }

    /// The paper's §5.3 combined configuration: both tables at 16K
    /// entries "to preserve the overall space requirements".
    pub fn combined_paper() -> Self {
        PolicyConfig::combined(
            WbhtConfig {
                entries: 16 * 1024,
                ..WbhtConfig::default()
            },
            SnarfConfig {
                entries: 16 * 1024,
                ..SnarfConfig::default()
            },
        )
    }

    /// Is the WBHT active?
    pub fn has_wbht(&self) -> bool {
        self.wbht.is_some()
    }

    /// Is snarfing active?
    pub fn has_snarf(&self) -> bool {
        self.snarf.is_some()
    }

    /// Is reuse-distance copy-back active?
    pub fn has_rdcb(&self) -> bool {
        self.rdcb.is_some()
    }

    /// Is hybrid update/invalidate active?
    pub fn has_hybrid(&self) -> bool {
        self.hybrid.is_some()
    }

    /// The paper's 32K-entry history-table budget scaled down with the
    /// cache capacities by `scale` (at least 256 entries): the table
    /// size `cmpsim` uses when `--entries` is not given.
    pub fn scaled_entries(scale: u64) -> u64 {
        (32 * 1024 / scale.max(1)).max(256)
    }

    /// Parses a policy spec: one mechanism name or several joined with
    /// `+` (e.g. `wbht+hybrid`), case-insensitive. Every table gets
    /// `entries` entries; `combined` is shorthand for the paper's
    /// wbht+snarf corner with that budget split between the two.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownPolicy`] for a name outside
    /// `base|baseline|wbht|snarf|combined|rdcb|hybrid`.
    pub fn parse(
        spec: &str,
        entries: u64,
        scope: UpdateScope,
        granularity: u64,
    ) -> Result<Self, UnknownPolicy> {
        let wbht = |entries| WbhtConfig {
            entries,
            assoc: 16,
            scope,
            granularity,
        };
        let snarf = |entries| SnarfConfig {
            entries,
            ..Default::default()
        };
        let mut p = PolicyConfig::default();
        for part in spec.to_ascii_lowercase().split('+') {
            match part.trim() {
                "base" | "baseline" => {}
                "wbht" => p.wbht = Some(wbht(entries)),
                "snarf" => p.snarf = Some(snarf(entries)),
                "combined" => {
                    let half = (entries / 2).max(256);
                    p.wbht = Some(wbht(half));
                    p.snarf = Some(snarf(half));
                }
                "rdcb" => {
                    p.rdcb = Some(RdcbConfig {
                        entries,
                        ..Default::default()
                    })
                }
                "hybrid" => {
                    p.hybrid = Some(HybridConfig {
                        entries,
                        ..Default::default()
                    })
                }
                other => return Err(UnknownPolicy(other.to_string())),
            }
        }
        Ok(p)
    }

    /// Checks every configured table's size without building (or
    /// allocating) anything; `System` construction runs this first.
    ///
    /// # Errors
    ///
    /// Returns the first [`TableSizeError`], naming its table.
    pub(crate) fn check_tables(&self) -> Result<(), TableSizeError> {
        let tables = [
            self.wbht.map(|c| ("WBHT", c.entries, c.assoc)),
            self.snarf.map(|c| ("snarf table", c.entries, c.assoc)),
            self.rdcb.map(|c| ("rdcb table", c.entries, c.assoc)),
            self.hybrid.map(|c| ("hybrid table", c.entries, c.assoc)),
        ];
        for (table, entries, assoc) in tables.into_iter().flatten() {
            if entries > MAX_TABLE_ENTRIES
                || CacheGeometry::from_entries(entries, assoc, 1).is_err()
            {
                return Err(TableSizeError {
                    table,
                    entries,
                    assoc,
                });
            }
        }
        Ok(())
    }

    /// A short policy label for reports. The paper's four corners keep
    /// their historical names; other combinations join the active
    /// mechanisms with `+` in canonical order.
    pub fn label(&self) -> &'static str {
        match (
            self.has_wbht(),
            self.has_snarf(),
            self.has_rdcb(),
            self.has_hybrid(),
        ) {
            (false, false, false, false) => "baseline",
            (true, false, false, false) => "wbht",
            (false, true, false, false) => "snarf",
            (true, true, false, false) => "combined",
            (false, false, true, false) => "rdcb",
            (false, false, false, true) => "hybrid",
            (true, false, true, false) => "wbht+rdcb",
            (true, false, false, true) => "wbht+hybrid",
            (false, true, true, false) => "snarf+rdcb",
            (false, true, false, true) => "snarf+hybrid",
            (false, false, true, true) => "rdcb+hybrid",
            (true, true, true, false) => "wbht+snarf+rdcb",
            (true, true, false, true) => "wbht+snarf+hybrid",
            (true, false, true, true) => "wbht+rdcb+hybrid",
            (false, true, true, true) => "snarf+rdcb+hybrid",
            (true, true, true, true) => "wbht+snarf+rdcb+hybrid",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(PolicyConfig::baseline().label(), "baseline");
        assert_eq!(PolicyConfig::wbht(WbhtConfig::default()).label(), "wbht");
        assert_eq!(PolicyConfig::snarf(SnarfConfig::default()).label(), "snarf");
        assert_eq!(PolicyConfig::combined_paper().label(), "combined");
        assert_eq!(PolicyConfig::rdcb(RdcbConfig::default()).label(), "rdcb");
        assert_eq!(
            PolicyConfig::hybrid(HybridConfig::default()).label(),
            "hybrid"
        );
        let mix = PolicyConfig {
            snarf: Some(SnarfConfig::default()),
            rdcb: Some(RdcbConfig::default()),
            ..Default::default()
        };
        assert_eq!(mix.label(), "snarf+rdcb");
    }

    #[test]
    fn capability_flags() {
        assert!(!PolicyConfig::baseline().has_wbht());
        assert!(!PolicyConfig::baseline().has_snarf());
        assert!(PolicyConfig::wbht(WbhtConfig::default()).has_wbht());
        assert!(PolicyConfig::snarf(SnarfConfig::default()).has_snarf());
        assert!(PolicyConfig::rdcb(RdcbConfig::default()).has_rdcb());
        assert!(PolicyConfig::hybrid(HybridConfig::default()).has_hybrid());
        let c = PolicyConfig::combined_paper();
        assert!(c.has_wbht() && c.has_snarf());
        assert!(!c.has_rdcb() && !c.has_hybrid());
    }

    #[test]
    fn parse_composes_mechanisms() {
        let p = PolicyConfig::parse("WBHT+hybrid", 4096, UpdateScope::Global, 2).unwrap();
        assert_eq!(p.label(), "wbht+hybrid");
        let w = p.wbht.unwrap();
        assert_eq!((w.entries, w.assoc, w.granularity), (4096, 16, 2));
        assert_eq!(w.scope, UpdateScope::Global);
        assert_eq!(p.hybrid.unwrap().entries, 4096);
        let c = PolicyConfig::parse("combined", 4096, UpdateScope::Local, 1).unwrap();
        assert_eq!(
            (c.wbht.unwrap().entries, c.snarf.unwrap().entries),
            (2048, 2048)
        );
        assert_eq!(
            PolicyConfig::parse("base", 4096, UpdateScope::Local, 1),
            Ok(PolicyConfig::baseline())
        );
    }

    #[test]
    fn parse_error_lists_the_accepted_names() {
        let e = PolicyConfig::parse("wbht+lru", 4096, UpdateScope::Local, 1).unwrap_err();
        assert_eq!(e, UnknownPolicy("lru".into()));
        let msg = e.to_string();
        for name in ["baseline", "wbht", "snarf", "combined", "rdcb", "hybrid"] {
            assert!(msg.contains(name), "{msg}");
        }
    }

    #[test]
    fn table_sizes_are_checked_before_anything_is_built() {
        let local = UpdateScope::Local;
        assert_eq!(
            PolicyConfig::parse("wbht", 3, local, 1)
                .unwrap()
                .check_tables(),
            Err(TableSizeError {
                table: "WBHT",
                entries: 3,
                assoc: 16,
            })
        );
        let e = PolicyConfig::parse("snarf", 8, local, 1)
            .unwrap()
            .check_tables()
            .unwrap_err();
        assert_eq!(
            e.to_string(),
            "snarf table of 8 entries is not a power-of-two number of 16-way sets"
        );
        // 2^44 entries would ask the host for 128 TiB of tags.
        let e = PolicyConfig::parse("hybrid", 1 << 44, local, 1)
            .unwrap()
            .check_tables()
            .unwrap_err();
        assert_eq!(
            e.to_string(),
            "hybrid table of 17592186044416 entries exceeds the 1048576-entry limit"
        );
        for spec in ["wbht", "snarf", "rdcb", "hybrid", "combined"] {
            let p = PolicyConfig::parse(spec, MAX_TABLE_ENTRIES, local, 1).unwrap();
            assert_eq!(p.check_tables(), Ok(()), "{spec}");
        }
    }

    #[test]
    fn combined_paper_halves_tables() {
        let c = PolicyConfig::combined_paper();
        let (w, s) = (c.wbht.unwrap(), c.snarf.unwrap());
        assert_eq!(w.entries, 16 * 1024);
        assert_eq!(s.entries, 16 * 1024);
    }
}
