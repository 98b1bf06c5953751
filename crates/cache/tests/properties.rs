//! Property-based tests for cache structure invariants.

use cmpsim_cache::{
    CacheGeometry, HistoryTable, InsertPosition, LineAddr, MshrFile, ReplacementPolicy, TagArray,
    WbEntry, WriteBackQueue,
};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    /// A tag array never holds more valid lines than its capacity, never
    /// holds duplicates, and every probe hit returns the inserted state.
    #[test]
    fn tag_array_capacity_and_uniqueness(
        lines in proptest::collection::vec(0u64..256, 1..300),
    ) {
        let geom = CacheGeometry::new(4096, 4, 128).unwrap(); // 8 sets x 4 ways
        let mut t: TagArray<u16> = TagArray::new(geom, ReplacementPolicy::Lru);
        for &l in &lines {
            let la = LineAddr::new(l);
            if let Some((_, s)) = t.probe(la) {
                prop_assert_eq!(s, (l * 3) as u16);
                t.touch(la);
            } else {
                t.insert(la, (l * 3) as u16, InsertPosition::Mru);
            }
            prop_assert!(t.valid_lines() <= geom.num_lines());
            let mut seen = HashSet::new();
            for (line, _) in t.iter_valid() {
                prop_assert!(seen.insert(line), "duplicate line {line}");
            }
        }
    }

    /// After inserting a line it is always probeable until evicted or
    /// invalidated; eviction only happens from the same set.
    #[test]
    fn tag_array_eviction_same_set(lines in proptest::collection::vec(0u64..512, 1..200)) {
        let geom = CacheGeometry::new(2048, 2, 128).unwrap(); // 8 sets x 2 ways
        let mut t: TagArray<()> = TagArray::new(geom, ReplacementPolicy::Lru);
        for &l in &lines {
            let la = LineAddr::new(l);
            if t.probe(la).is_some() {
                continue;
            }
            if let Some(ev) = t.insert(la, (), InsertPosition::Mru) {
                prop_assert_eq!(geom.set_of(ev.line), geom.set_of(la));
            }
            prop_assert!(t.probe(la).is_some());
        }
    }

    /// History table: recorded entries remain visible until they age out;
    /// capacity is never exceeded; hit+miss equals lookups.
    #[test]
    fn history_table_bounds(ops in proptest::collection::vec((0u64..128, any::<bool>()), 1..400)) {
        let mut h: HistoryTable<()> = HistoryTable::new(32, 4).unwrap();
        let mut lookups = 0u64;
        for &(l, write) in &ops {
            let la = LineAddr::new(l);
            if write {
                h.record(la, ());
                prop_assert!(h.peek(la).is_some(), "just-recorded entry missing");
            } else {
                let _ = h.lookup(la);
                lookups += 1;
            }
            prop_assert!(h.len() <= h.capacity());
        }
        prop_assert_eq!(h.stats().hits + h.stats().misses, lookups);
    }

    /// MSHR file: waiters are returned exactly once, in order, and
    /// occupancy never exceeds capacity.
    #[test]
    fn mshr_waiters_conserved(ops in proptest::collection::vec((0u64..16, 0u32..8), 1..200)) {
        let mut m: MshrFile<(u64, u32)> = MshrFile::new(4);
        let mut outstanding: Vec<u64> = Vec::new();
        let mut issued = 0usize;
        let mut returned = 0usize;
        for &(l, w) in &ops {
            let la = LineAddr::new(l);
            match m.allocate(la, (l, w)) {
                Ok(true) => { outstanding.push(l); issued += 1; }
                Ok(false) => { issued += 1; }
                Err(_) => {
                    // Full: complete the oldest to make room.
                    let done = outstanding.remove(0);
                    let ws = m.complete(LineAddr::new(done)).unwrap();
                    for (wl, _) in &ws { prop_assert_eq!(*wl, done); }
                    returned += ws.len();
                }
            }
            prop_assert!(m.len() <= m.capacity());
        }
        for l in outstanding {
            returned += m.complete(LineAddr::new(l)).unwrap().len();
        }
        prop_assert_eq!(issued, returned);
    }

    /// Write-back queue preserves FIFO order among retained entries and
    /// never exceeds capacity.
    #[test]
    fn wb_queue_fifo(lines in proptest::collection::vec(0u64..64, 1..100), cap in 1usize..12) {
        let mut q = WriteBackQueue::new(cap);
        let mut model: Vec<u64> = Vec::new();
        for &l in &lines {
            if q.push(WbEntry { line: LineAddr::new(l), dirty: l % 2 == 0 }) {
                model.push(l);
            } else {
                prop_assert_eq!(q.len(), cap);
                let popped = q.pop().unwrap();
                prop_assert_eq!(popped.line.raw(), model.remove(0));
            }
        }
        while let Some(e) = q.pop() {
            prop_assert_eq!(e.line.raw(), model.remove(0));
        }
        prop_assert!(model.is_empty());
    }
}
