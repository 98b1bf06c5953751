//! Simulation statistics: every number the paper's tables report.

use cmpsim_engine::stats::Log2Histogram;
use cmpsim_engine::Cycle;

/// Per-L2 counters.
#[derive(Debug, Clone, Default)]
pub struct L2Stats {
    /// Demand accesses that hit in this L2 (including hits on lines that
    /// were snarfed in or recovered from the write-back queue).
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
    /// Misses satisfied by recovering the line from this cache's own
    /// write-back queue.
    pub wbq_recoveries: u64,
    /// Interventions sourced by this L2.
    pub interventions_provided: u64,
    /// Write-backs this L2 absorbed from peers.
    pub snarfs_accepted: u64,
}

impl L2Stats {
    /// Local hit rate.
    pub fn hit_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.hits as f64 / t as f64
        }
    }
}

/// Write-back traffic counters (Tables 1 and 4).
#[derive(Debug, Clone, Copy, Default)]
pub struct WbTraffic {
    /// Dirty castout transactions issued on the bus.
    pub dirty_requests: u64,
    /// Clean castout transactions issued on the bus.
    pub clean_requests: u64,
    /// Clean write-backs aborted by the WBHT (never reached the bus).
    pub clean_aborted: u64,
    /// Clean castouts squashed because the L3 already held the line
    /// (Table 1's numerator).
    pub clean_squashed_l3: u64,
    /// Castouts squashed because a peer L2 held the line.
    pub squashed_peer: u64,
    /// Castouts absorbed by peer L2s (snarfed).
    pub snarfed: u64,
    /// Castouts accepted by the L3.
    pub accepted_l3: u64,
}

impl WbTraffic {
    /// Total castout bus transactions (Table 4 "L2 Write Back Requests").
    pub fn requests(&self) -> u64 {
        self.dirty_requests + self.clean_requests
    }

    /// Fraction of clean castout transactions found already valid in the
    /// L3 (Table 1).
    pub fn clean_redundant_rate(&self) -> f64 {
        if self.clean_requests == 0 {
            0.0
        } else {
            self.clean_squashed_l3 as f64 / self.clean_requests as f64
        }
    }
}

/// Write-back reuse tracking (Table 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct WbReuse {
    /// Write-backs attempted (bus transactions).
    pub total: u64,
    /// Write-backs accepted by the L3.
    pub accepted: u64,
    /// Attempted write-backs whose line was later missed on again.
    pub reused_total: u64,
    /// L3-accepted write-backs whose line was later missed on again.
    pub reused_accepted: u64,
}

impl WbReuse {
    /// Table 2 "% Total".
    pub fn reuse_rate_total(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.reused_total as f64 / self.total as f64
        }
    }

    /// Table 2 "% Accepted".
    pub fn reuse_rate_accepted(&self) -> f64 {
        if self.accepted == 0 {
            0.0
        } else {
            self.reused_accepted as f64 / self.accepted as f64
        }
    }
}

/// Snarf effectiveness counters (Table 5).
#[derive(Debug, Clone, Copy, Default)]
pub struct SnarfUsage {
    /// Lines absorbed by peer L2s.
    pub snarfed: u64,
    /// Snarfed lines later hit by a thread of the snarfing L2.
    pub used_locally: u64,
    /// Snarfed lines later provided as interventions to other L2s.
    pub used_for_intervention: u64,
}

impl SnarfUsage {
    /// Table 5 "Snarfed Lines Used Locally" (fraction of snarfed lines).
    pub fn local_use_rate(&self) -> f64 {
        if self.snarfed == 0 {
            0.0
        } else {
            self.used_locally as f64 / self.snarfed as f64
        }
    }

    /// Table 5 "Snarfed Lines Provided for Interventions".
    pub fn intervention_use_rate(&self) -> f64 {
        if self.snarfed == 0 {
            0.0
        } else {
            self.used_for_intervention as f64 / self.snarfed as f64
        }
    }
}

/// Whole-run statistics.
#[derive(Debug, Clone, Default)]
pub struct SystemStats {
    /// Execution time: the cycle at which the last thread finished its
    /// reference stream (outstanding misses drained).
    pub cycles: Cycle,
    /// References processed.
    pub refs: u64,
    /// Loads processed.
    pub loads: u64,
    /// Stores processed.
    pub stores: u64,
    /// L1 hits (when the L1 level is enabled).
    pub l1_hits: u64,
    /// Per-L2 counters.
    pub l2: Vec<L2Stats>,
    /// Fills served by L2-to-L2 intervention.
    pub fills_from_l2: u64,
    /// Fills served by the L3.
    pub fills_from_l3: u64,
    /// Fills served by memory.
    pub fills_from_memory: u64,
    /// Upgrade transactions completed.
    pub upgrades: u64,
    /// Stores to shared lines completed as updates instead of
    /// invalidations (hybrid update/invalidate coherence; zero under
    /// the base write-invalidate protocol).
    pub coherence_updates: u64,
    /// Total retry combined-responses observed.
    pub retries_total: u64,
    /// Retries attributed to the L3.
    pub retries_l3: u64,
    /// Write-back traffic.
    pub wb: WbTraffic,
    /// Write-back reuse (Table 2).
    pub wb_reuse: WbReuse,
    /// Snarf usage (Table 5).
    pub snarf: SnarfUsage,
    /// Miss latency distribution (issue to fill).
    pub miss_latency: Log2Histogram,
    /// Peak MSHR occupancy observed across all L2s (out of
    /// `mshr_entries`; sustained saturation parks threads).
    pub mshr_high_water: u64,
    /// Peak write-back queue occupancy observed across all L2s (a full
    /// queue blocks L2 misses, §2.1).
    pub wbq_high_water: u64,
    /// Peak event-queue population in the simulation engine (simulator
    /// health, not a modelled structure).
    pub event_queue_high_water: u64,
}

impl SystemStats {
    /// Creates zeroed stats for `num_l2` caches.
    pub fn new(num_l2: usize) -> Self {
        SystemStats {
            l2: vec![L2Stats::default(); num_l2],
            ..Default::default()
        }
    }

    /// Aggregate L2 hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        let hits: u64 = self.l2.iter().map(|s| s.hits).sum();
        let misses: u64 = self.l2.iter().map(|s| s.misses).sum();
        let t = hits + misses;
        if t == 0 {
            0.0
        } else {
            hits as f64 / t as f64
        }
    }

    /// Off-chip accesses: fills that left the chip (L3 or memory).
    pub fn off_chip_accesses(&self) -> u64 {
        self.fills_from_l3 + self.fills_from_memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let s = SystemStats::new(4);
        assert_eq!(s.l2_hit_rate(), 0.0);
        assert_eq!(s.wb.clean_redundant_rate(), 0.0);
        assert_eq!(s.wb_reuse.reuse_rate_total(), 0.0);
        assert_eq!(s.snarf.local_use_rate(), 0.0);
        assert_eq!(s.l2[0].hit_rate(), 0.0);
    }

    #[test]
    fn wb_traffic_rates() {
        let wb = WbTraffic {
            clean_requests: 100,
            clean_squashed_l3: 60,
            dirty_requests: 40,
            ..Default::default()
        };
        assert_eq!(wb.requests(), 140);
        assert!((wb.clean_redundant_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn reuse_rates() {
        let r = WbReuse {
            total: 200,
            accepted: 100,
            reused_total: 50,
            reused_accepted: 40,
        };
        assert!((r.reuse_rate_total() - 0.25).abs() < 1e-12);
        assert!((r.reuse_rate_accepted() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn snarf_rates() {
        let s = SnarfUsage {
            snarfed: 50,
            used_locally: 10,
            used_for_intervention: 5,
        };
        assert!((s.local_use_rate() - 0.2).abs() < 1e-12);
        assert!((s.intervention_use_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn aggregate_hit_rate() {
        let mut s = SystemStats::new(2);
        s.l2[0].hits = 30;
        s.l2[0].misses = 10;
        s.l2[1].hits = 10;
        s.l2[1].misses = 10;
        assert!((s.l2_hit_rate() - 40.0 / 60.0).abs() < 1e-12);
        assert!((s.l2[0].hit_rate() - 0.75).abs() < 1e-12);
    }
}
