//! Property-based tests for the L3 victim cache and memory controller.

use cmpsim_cache::LineAddr;
use cmpsim_coherence::SnoopResponse;
use cmpsim_mem::{L3Cache, L3Config, MemoryConfig, MemoryController};
use proptest::prelude::*;

proptest! {
    /// The L3 never holds more lines than its capacity, and every line
    /// reported accepted is findable until evicted.
    #[test]
    fn l3_capacity_respected(ops in proptest::collection::vec((0u64..4096, any::<bool>()), 1..300)) {
        let mut l3 = L3Cache::new(L3Config::scaled(256)); // tiny: 16KB slices
        let cap = l3.config().geometry.total_bytes() / 128;
        let mut now = 0;
        for &(line, dirty) in &ops {
            now += 5;
            let _ = l3.accept_castout(now, LineAddr::new(line), dirty);
            prop_assert!(l3.valid_lines() <= cap);
        }
    }

    /// Snooping a castout never reports both squash and accept; retries
    /// happen only under queue pressure.
    #[test]
    fn l3_snoop_castout_classification(lines in proptest::collection::vec(0u64..256, 1..200)) {
        let mut l3 = L3Cache::new(L3Config::scaled(256));
        let mut now = 0;
        for &l in &lines {
            now += 7;
            let line = LineAddr::new(l);
            match l3.snoop_castout(now, line, false) {
                SnoopResponse::L3Hit(_) => {
                    prop_assert!(l3.peek(line), "hit response for absent line");
                }
                SnoopResponse::L3Accept => {
                    let _ = l3.accept_castout(now, line, false);
                }
                SnoopResponse::L3Retry => {}
                other => prop_assert!(false, "unexpected {other:?}"),
            }
        }
    }

    /// Read snoops never mutate contents: peek agrees before and after.
    #[test]
    fn l3_read_snoop_pure(lines in proptest::collection::vec(0u64..128, 1..100)) {
        let mut l3 = L3Cache::new(L3Config::scaled(256));
        let mut now = 0;
        for &l in &lines {
            now += 3;
            let _ = l3.accept_castout(now, LineAddr::new(l % 32), false);
            let probe = LineAddr::new(l);
            let before = l3.peek(probe);
            let _ = l3.snoop_read(now, probe);
            prop_assert_eq!(before, l3.peek(probe));
        }
    }

    /// Memory reads complete no earlier than the access latency, bank
    /// contention only ever delays, and each read is ready exactly at
    /// arrival + bank wait + access latency.
    #[test]
    fn memory_latency_floor(times in proptest::collection::vec(0u64..2_000, 1..60)) {
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let cfg = MemoryConfig::default();
        let mut mem = MemoryController::new(cfg);
        for &t in &sorted {
            let (wait, done) = mem.read(t, LineAddr::new(t));
            prop_assert_eq!(done, t + wait + cfg.access_cycles);
            prop_assert!(done >= t + cfg.access_cycles);
        }
        prop_assert_eq!(mem.stats().reads, sorted.len() as u64);
    }
}
