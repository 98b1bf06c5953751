//! The memory controller on its dedicated pathway.

use cmpsim_cache::LineAddr;
use cmpsim_engine::{Channel, Cycle};

/// Memory controller configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// DRAM access component of the 431-cycle contention-free memory
    /// latency (the rest is ring propagation, snoop/combining, and
    /// controller queueing).
    pub access_cycles: Cycle,
    /// Independent banks (concurrent accesses).
    pub banks: usize,
    /// Bank busy time per access.
    pub bank_occupancy: Cycle,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            access_cycles: 320,
            banks: 16,
            bank_occupancy: 64,
        }
    }
}

/// Memory statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Demand line reads served (off-chip accesses).
    pub reads: u64,
    /// Line writes absorbed (dirty L3 victims).
    pub writes: u64,
}

/// The memory controller: banked DRAM behind the dedicated memory path.
///
/// Memory is the backstop of the hierarchy — it can always source a line
/// (any address is valid) and always sinks dirty L3 victims.
///
/// # Example
///
/// ```
/// use cmpsim_mem::{MemoryController, MemoryConfig};
/// use cmpsim_cache::LineAddr;
///
/// let mut mem = MemoryController::new(MemoryConfig::default());
/// let (wait, ready) = mem.read(100, LineAddr::new(1));
/// assert_eq!(ready, 100 + wait + MemoryConfig::default().access_cycles);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryController {
    cfg: MemoryConfig,
    banks: Channel,
    stats: MemoryStats,
}

impl MemoryController {
    /// Creates a memory controller.
    pub fn new(cfg: MemoryConfig) -> Self {
        MemoryController {
            banks: Channel::new(cfg.banks, cfg.bank_occupancy),
            cfg,
            stats: MemoryStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> MemoryConfig {
        self.cfg
    }

    /// Reads a line. Returns `(bank_wait, ready)`: the access started at
    /// `now + bank_wait` and the data leaves the controller at `ready`.
    pub fn read(&mut self, now: Cycle, _line: LineAddr) -> (Cycle, Cycle) {
        self.stats.reads += 1;
        let (wait, _) = self.banks.reserve(now);
        (wait, now + wait + self.cfg.access_cycles)
    }

    /// Absorbs a dirty line write (posted; returns drain completion).
    pub fn write(&mut self, now: Cycle, _line: LineAddr) -> Cycle {
        self.stats.writes += 1;
        self.banks.reserve(now).1
    }

    /// Statistics.
    pub fn stats(&self) -> MemoryStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_latency_floor() {
        let cfg = MemoryConfig::default();
        let mut m = MemoryController::new(cfg);
        assert_eq!(m.read(0, LineAddr::new(9)), (0, cfg.access_cycles));
    }

    #[test]
    fn banks_provide_parallelism() {
        let cfg = MemoryConfig {
            access_cycles: 100,
            banks: 2,
            bank_occupancy: 50,
        };
        let mut m = MemoryController::new(cfg);
        assert_eq!(m.read(0, LineAddr::new(0)), (0, 100));
        assert_eq!(m.read(0, LineAddr::new(1)), (0, 100));
        // The third queues behind a bank.
        assert_eq!(m.read(0, LineAddr::new(2)), (50, 150));
    }

    #[test]
    fn writes_counted() {
        let mut m = MemoryController::new(MemoryConfig::default());
        m.write(0, LineAddr::new(4));
        m.read(0, LineAddr::new(5));
        assert_eq!(m.stats().writes, 1);
        assert_eq!(m.stats().reads, 1);
    }
}
