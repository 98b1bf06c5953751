//! Whole-system configuration.

use cmpsim_cache::GeometryError;
use cmpsim_coherence::L2Id;
use cmpsim_engine::Cycle;
use cmpsim_mem::{L3Config, MemoryConfig};
use cmpsim_ring::RingConfig;
use cmpsim_trace::ThreadId;

use crate::policy::{PolicyConfig, RetrySwitchConfig};
use crate::system::SystemError;

// The paper geometries are static, so check them against the packed tag
// word at compile time (3 L2 state bits, 1 L3 state bit, tag-only
// history tables); a state enum growing past its bit budget fails the
// build here instead of at first construction. Dynamically scaled
// geometries (--scale, --entries) are covered by the runtime check in
// `TagArray::try_new`.
const _: () = {
    use cmpsim_cache::packed_fits;
    assert!(packed_fits(3, 512 * 1024 / 128 / 8)); // L2 slice · L2State
    assert!(packed_fits(1, 4 * 1024 * 1024 / 128 / 16)); // L3 slice · L3State
    assert!(packed_fits(0, 32 * 1024 / 16)); // history tables (tag-only)
    assert!(packed_fits(3, 16 * 1024 / 128 / 8)); // smallest --scale L2 slice
    assert!(packed_fits(0, 4 * 1024 / 128 / 4)); // smallest --scale L1
};

/// How the L3 level is organized (§7: "we are investigating alternate
/// L3 organizations and policies, including having separate buses for
/// chip-private L3 caches and memory, similar to the POWER 5
/// architecture").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum L3Organization {
    /// The paper's evaluated design: one shared victim cache on the
    /// snooped ring, absorbing castouts from every L2.
    #[default]
    SharedVictim,
    /// POWER5-style: the L3 level is one partition per L2, of the same
    /// total capacity, each reached over a dedicated bus; no shared L3
    /// is built. Castouts go only to the owner's L3 (no ring address
    /// phase, no snoops) and then resolve like ring castouts; a private
    /// L3 serves only its own L2's misses.
    PrivatePerL2,
}

/// A core count the chip cannot be built with: each L2 serves one core
/// pair, so the cores must be a positive multiple of 2 and `num_l2`
/// exactly half of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreCountError {
    /// The configured cores.
    pub cores: u8,
    /// The configured L2 count.
    pub num_l2: u8,
}

impl std::fmt::Display for CoreCountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cores must be a positive multiple of 2 with one L2 per core pair, \
             got {} cores and {} L2s",
            self.cores, self.num_l2
        )
    }
}

impl std::error::Error for CoreCountError {}

/// L1 cache configuration (private per core, write-through).
///
/// The paper's Table 3 omits L1 parameters (its traces are L2 traffic);
/// these defaults are typical for the POWER generation modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Config {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub assoc: u64,
}

impl Default for L1Config {
    fn default() -> Self {
        L1Config {
            size_bytes: 32 * 1024,
            assoc: 4,
        }
    }
}

/// Full configuration of the modelled CMP (paper Figure 1 / Table 3).
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Processor cores (paper: 8).
    pub cores: u8,
    /// SMT threads per core (paper: 2).
    pub threads_per_core: u8,
    /// L2 caches, each shared by a core pair (paper: 4).
    pub num_l2: u8,
    /// Cache line size in bytes (paper: 128).
    pub line_bytes: u64,
    /// Optional L1 filter caches (None disables the L1 level).
    pub l1: Option<L1Config>,
    /// Bytes per L2 slice (paper: 512 KB).
    pub l2_slice_bytes: u64,
    /// Slices per L2 (paper: 4).
    pub l2_slices: u64,
    /// L2 associativity (paper: 8).
    pub l2_assoc: u64,
    /// L2 load-to-use hit latency (paper: 20) — informational; hits do
    /// not stall the SMT thread model.
    pub l2_hit_cycles: Cycle,
    /// Cycles to detect an L2 miss before the bus request is issued.
    pub miss_detect_cycles: Cycle,
    /// L2 data-array access when sourcing an intervention.
    pub l2_array_cycles: Cycle,
    /// L2 snoop (tag lookup + response) latency.
    pub l2_snoop_cycles: Cycle,
    /// Snoop tag-port initiation interval (pipelined lookups).
    pub l2_snoop_occupancy: Cycle,
    /// MSHRs per L2.
    pub l2_mshrs: usize,
    /// Write-back queue entries per L2 (paper §2.1: 8).
    pub wbq_len: usize,
    /// Castout bus transactions one L2 may have in flight concurrently.
    pub castout_inflight_max: usize,
    /// Intrachip ring parameters.
    pub ring: RingConfig,
    /// L3 victim-cache parameters.
    pub l3: L3Config,
    /// L3 organization (shared victim cache vs POWER5-style private).
    pub l3_organization: L3Organization,
    /// One-way delay of the dedicated off-chip L3 pathway.
    pub l3_link_delay: Cycle,
    /// Concurrent transfers on the L3 pathway.
    pub l3_link_lanes: usize,
    /// Line-transfer occupancy on the L3 pathway.
    pub l3_link_occupancy: Cycle,
    /// Memory-controller parameters.
    pub mem: MemoryConfig,
    /// One-way delay of the dedicated memory pathway.
    pub mem_link_delay: Cycle,
    /// Concurrent transfers on the memory pathway.
    pub mem_link_lanes: usize,
    /// Line-transfer occupancy on the memory pathway.
    pub mem_link_occupancy: Cycle,
    /// Back-off before re-issuing a retried transaction.
    pub retry_backoff: Cycle,
    /// Maximum outstanding misses per thread (the paper's memory-pressure
    /// knob, swept 1–6 in Figures 2/3/5/7).
    pub max_outstanding: u32,
    /// Snarf-buffer entries per L2 (resource-conflict declines, §3).
    pub snarf_buffers: usize,
    /// How long a snarf buffer is held per absorbed line.
    pub snarf_buffer_hold: Cycle,
    /// References a thread processes inline per scheduling step
    /// (simulation granularity for hit bursts; misses always re-enter
    /// the event queue).
    pub thread_batch: usize,
    /// Write-back policy under evaluation.
    pub policy: PolicyConfig,
    /// Retry-rate switch parameters (paper §2.2: 2000 retries / 1M
    /// cycles). [`SystemConfig::scaled`] shrinks the observation window
    /// proportionally so short scaled runs still complete windows.
    pub retry_switch: RetrySwitchConfig,
    /// §7 future-work extension: cost-aware L2 replacement that, among
    /// the least-recently-used ways, prefers evicting clean lines the
    /// WBHT knows to be resident in the L3 (their write-back will be
    /// aborted and a re-fetch only pays the L3 latency). Has no effect
    /// without a WBHT policy.
    pub history_aware_replacement: bool,
    /// Random seed for the synthetic workload.
    pub seed: u64,
}

impl SystemConfig {
    /// The paper's Table 3 system.
    pub fn paper() -> Self {
        SystemConfig {
            cores: 8,
            threads_per_core: 2,
            num_l2: 4,
            line_bytes: 128,
            l1: Some(L1Config::default()),
            l2_slice_bytes: 512 * 1024,
            l2_slices: 4,
            l2_assoc: 8,
            l2_hit_cycles: 20,
            miss_detect_cycles: 16,
            l2_array_cycles: 12,
            l2_snoop_cycles: 8,
            l2_snoop_occupancy: 2,
            l2_mshrs: 32,
            wbq_len: 8,
            castout_inflight_max: 2,
            ring: RingConfig::default(),
            l3: L3Config::paper(),
            l3_organization: L3Organization::SharedVictim,
            l3_link_delay: 25,
            l3_link_lanes: 4,
            l3_link_occupancy: 16,
            mem: MemoryConfig::default(),
            mem_link_delay: 25,
            mem_link_lanes: 4,
            mem_link_occupancy: 16,
            retry_backoff: 64,
            max_outstanding: 6,
            snarf_buffers: 4,
            snarf_buffer_hold: 32,
            thread_batch: 32,
            policy: PolicyConfig::baseline(),
            retry_switch: RetrySwitchConfig::default(),
            history_aware_replacement: false,
            seed: 0x1BAD_B002,
        }
    }

    /// The paper system with cache capacities divided by `factor`
    /// (structure and latencies preserved) — used by tests and the quick
    /// experiment profile so working sets stay proportionate.
    ///
    /// # Panics
    ///
    /// Panics where [`try_scaled`](Self::try_scaled) returns an error.
    pub fn scaled(factor: u64) -> Self {
        Self::try_scaled(factor).expect("scaled geometry must be valid")
    }

    /// [`scaled`](Self::scaled) for a `factor` that may come from user
    /// input (`--scale`).
    ///
    /// # Errors
    ///
    /// Returns the [`GeometryError`] of a zero `factor` or of one that
    /// does not divide the capacities into valid power-of-two
    /// geometries.
    pub fn try_scaled(factor: u64) -> Result<Self, GeometryError> {
        let mut c = Self::paper();
        // First: it rejects a zero factor before the divisions below.
        c.l3 = L3Config::try_scaled(factor)?;
        c.l2_slice_bytes = (512 * 1024 / factor).max(16 * 1024);
        if let Some(l1) = &mut c.l1 {
            l1.size_bytes = (l1.size_bytes / factor).max(4 * 1024);
        }
        c.retry_switch = RetrySwitchConfig::scaled(factor);
        Ok(c)
    }

    /// The paper's machine scaled *out* to `cores` cores: structure and
    /// latencies are preserved (two SMT threads per core, one L2 per
    /// core pair, same per-L2 capacity), only the agent count grows.
    /// This is the >8-core topology axis the ring hierarchy invites —
    /// a 32- or 64-core chip puts proportionally more L2 agents on the
    /// snooped ring.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreCountError`] if `cores` is not a positive
    /// multiple of 2 (an L2 serves a core pair).
    pub fn with_cores(cores: u8) -> Result<Self, CoreCountError> {
        let mut c = Self::paper();
        c.cores = cores;
        c.num_l2 = cores / 2;
        c.check_cores()?;
        Ok(c)
    }

    /// Checks that the cores pair up onto the L2s.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreCountError`] naming both counts otherwise.
    pub fn check_cores(&self) -> Result<(), CoreCountError> {
        if self.cores >= 2 && self.cores.is_multiple_of(2) && self.num_l2 == self.cores / 2 {
            Ok(())
        } else {
            Err(CoreCountError {
                cores: self.cores,
                num_l2: self.num_l2,
            })
        }
    }

    /// Total hardware threads.
    pub fn num_threads(&self) -> u16 {
        self.cores as u16 * self.threads_per_core as u16
    }

    /// The L2 cache serving a thread (each L2 is fed by a core pair, so
    /// by `threads_per_core * 2` threads — four in the paper system).
    pub fn l2_of_thread(&self, t: ThreadId) -> L2Id {
        let threads_per_l2 = self.num_threads() as usize / self.num_l2 as usize;
        L2Id::new((t.index() / threads_per_l2) as u8)
    }

    /// The core a thread runs on.
    pub fn core_of_thread(&self, t: ThreadId) -> usize {
        t.index() / self.threads_per_core as usize
    }

    /// Total L2 lines across all caches (for workload scaling).
    pub fn l2_lines_total(&self) -> u64 {
        self.num_l2 as u64 * self.l2_slices * self.l2_slice_bytes / self.line_bytes
    }

    /// Total L3 lines.
    pub fn l3_lines_total(&self) -> u64 {
        self.l3.geometry.total_bytes() / self.line_bytes
    }

    /// The cache scale exposed to workload presets.
    pub fn cache_scale(&self) -> cmpsim_trace::CacheScale {
        cmpsim_trace::CacheScale {
            l2_lines_total: self.l2_lines_total(),
            l3_lines_total: self.l3_lines_total(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Cores`] when the cores do not pair up onto
    /// the L2s, [`SystemError::Geometry`] when a cache geometry is
    /// invalid (a WBHT granularity included), and [`SystemError::Table`]
    /// when a history table's size cannot be built. Nothing is allocated
    /// before these checks pass.
    pub fn validate(&self) -> Result<(), SystemError> {
        self.check_cores().map_err(SystemError::Cores)?;
        cmpsim_cache::SlicedGeometry::new(
            self.l2_slices,
            self.l2_slice_bytes,
            self.l2_assoc,
            self.line_bytes,
        )?;
        if let Some(l1) = &self.l1 {
            cmpsim_cache::CacheGeometry::new(l1.size_bytes, l1.assoc, self.line_bytes)?;
        }
        self.policy.check_tables()?;
        if let Some(wbht) = &self.policy.wbht {
            wbht.check_granularity()?;
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        let c = SystemConfig::paper();
        assert!(c.validate().is_ok());
        assert_eq!(c.num_threads(), 16);
        assert_eq!(c.l2_lines_total(), 65536);
        assert_eq!(c.l3_lines_total(), 131072);
    }

    #[test]
    fn scaled_config_is_valid() {
        for f in [2, 4, 8, 16] {
            let c = SystemConfig::scaled(f);
            assert!(c.validate().is_ok(), "factor {f}");
        }
    }

    #[test]
    fn unscalable_factor_is_an_error_not_a_panic() {
        assert_eq!(
            SystemConfig::try_scaled(3).unwrap_err(),
            GeometryError::NotPowerOfTwo("size_bytes", 1_398_101)
        );
        assert_eq!(
            SystemConfig::try_scaled(0).unwrap_err(),
            GeometryError::Zero("scale factor")
        );
        for f in [1000, 4096, 65536] {
            assert!(SystemConfig::try_scaled(f).is_err(), "factor {f}");
        }
    }

    #[test]
    fn thread_to_l2_mapping() {
        let c = SystemConfig::paper();
        // Four threads per L2: t0-3 -> L2#0, t4-7 -> L2#1, ...
        assert_eq!(c.l2_of_thread(ThreadId::new(0)), L2Id::new(0));
        assert_eq!(c.l2_of_thread(ThreadId::new(3)), L2Id::new(0));
        assert_eq!(c.l2_of_thread(ThreadId::new(4)), L2Id::new(1));
        assert_eq!(c.l2_of_thread(ThreadId::new(15)), L2Id::new(3));
    }

    #[test]
    fn thread_to_core_mapping() {
        let c = SystemConfig::paper();
        assert_eq!(c.core_of_thread(ThreadId::new(0)), 0);
        assert_eq!(c.core_of_thread(ThreadId::new(1)), 0);
        assert_eq!(c.core_of_thread(ThreadId::new(2)), 1);
        assert_eq!(c.core_of_thread(ThreadId::new(15)), 7);
    }

    #[test]
    fn scaled_out_topologies_are_valid() {
        for cores in [2, 8, 16, 32, 64] {
            let c = SystemConfig::with_cores(cores).unwrap();
            assert!(c.validate().is_ok(), "{cores} cores");
            assert_eq!(c.num_threads(), cores as u16 * 2);
            assert_eq!(c.num_l2, cores / 2);
            // Thread→L2 mapping stays a clean core-pair partition.
            let threads_per_l2 = c.num_threads() as usize / c.num_l2 as usize;
            assert_eq!(threads_per_l2, 4);
            assert_eq!(
                c.l2_of_thread(ThreadId::new(c.num_threads() - 1)),
                L2Id::new(c.num_l2 - 1)
            );
        }
    }

    #[test]
    fn odd_core_count_rejected() {
        for cores in [0, 7] {
            let e = SystemConfig::with_cores(cores).unwrap_err();
            assert_eq!((e.cores, e.num_l2), (cores, cores / 2));
        }
    }

    #[test]
    fn validate_rejects_cores_that_disagree_with_the_l2s() {
        let mut c = SystemConfig::paper();
        c.num_l2 = 3;
        assert!(matches!(c.validate(), Err(SystemError::Cores(_))));
        assert_eq!(
            c.check_cores().unwrap_err().to_string(),
            "cores must be a positive multiple of 2 with one L2 per core pair, \
             got 8 cores and 3 L2s"
        );
    }

    #[test]
    fn validate_rejects_unbuildable_history_tables_before_allocating() {
        use crate::policy::{PolicyConfig, RdcbConfig, WbhtConfig};

        let mut c = SystemConfig::paper();
        c.policy = PolicyConfig::rdcb(RdcbConfig {
            entries: 1 << 40,
            ..Default::default()
        });
        let e = c.validate().unwrap_err();
        assert!(matches!(e, SystemError::Table(_)), "{e}");
        assert!(
            e.to_string()
                .starts_with("invalid history table: rdcb table"),
            "{e}"
        );
        c.policy = PolicyConfig::wbht(WbhtConfig {
            granularity: 3,
            ..Default::default()
        });
        assert_eq!(
            c.validate().unwrap_err().to_string(),
            "invalid geometry: wbht granularity must be a power of two, got 3"
        );
    }

    #[test]
    fn cache_scale_matches_paper() {
        let s = SystemConfig::paper().cache_scale();
        let p = cmpsim_trace::CacheScale::paper();
        assert_eq!(s.l2_lines_total, p.l2_lines_total);
        assert_eq!(s.l3_lines_total, p.l3_lines_total);
    }
}
