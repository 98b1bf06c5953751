//! Cache-organized history tables.
//!
//! The paper's two mechanisms are both built on "a small lookup table …
//! organized and accessed just like a cache tag array" (§2): the
//! Write-Back History Table stores bare tags, the snarf (reuse) table
//! stores tags plus a *use bit*, and the post-paper rdcb and hybrid
//! policies store a two-counter entry per tag. [`HistoryTable`] serves
//! them all: the tags live in a tag-only [`TagArray`] and each payload
//! sits in a parallel array at the flat way its tag occupies.

use crate::{CacheGeometry, GeometryError, InsertPosition, LineAddr, ReplacementPolicy, TagArray};

/// Statistics of a [`HistoryTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistoryStats {
    /// Lookups that found the queried line.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Allocations of new entries.
    pub allocs: u64,
    /// Entries lost to replacement (table conflict evictions).
    pub evictions: u64,
    /// Explicit invalidations.
    pub invalidations: u64,
}

/// A small, set-associative tag table that remembers recently seen lines.
///
/// Entries age out by LRU replacement exactly like cache lines — "lines
/// disappear from the WBHT due to the fact that there are many fewer
/// entries than possible tag values" (§2). Lookups are *performance
/// hints*: stale or missing entries only cost cycles, never correctness,
/// which is why the table may be updated lazily off the miss path.
///
/// The payload `P` can be any `Copy` value: it is stored beside the
/// packed tags, not in them, so `()` (the WBHT) costs no memory and a
/// wide entry imposes no tag-width limit.
///
/// # Example
///
/// ```
/// use cmpsim_cache::{HistoryTable, LineAddr};
///
/// // A 1K-entry, 16-way WBHT (payload () = tag-only).
/// let mut wbht: HistoryTable<()> = HistoryTable::new(1024, 16)?;
/// let line = LineAddr::new(0xABC);
/// assert!(!wbht.contains(line));
/// wbht.record(line, ());
/// assert!(wbht.contains(line));
/// # Ok::<(), cmpsim_cache::GeometryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HistoryTable<P> {
    tags: TagArray<()>,
    /// One payload per way, indexed by the flat way [`TagArray::probe`]
    /// reports. Only ways holding a valid tag are ever read.
    payloads: Box<[P]>,
    stats: HistoryStats,
}

impl<P: Copy + Default> HistoryTable<P> {
    /// Creates a table with `entries` total entries and `assoc` ways,
    /// with LRU replacement (as specified in the paper).
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] when `entries`/`assoc` do not form a
    /// valid power-of-two set-associative organization.
    pub fn new(entries: u64, assoc: u64) -> Result<Self, GeometryError> {
        // Line size is irrelevant for a tag-only table; use 1 "byte" per
        // entry so `entries` is the capacity.
        let geom = CacheGeometry::from_entries(entries, assoc, 1)?;
        Ok(HistoryTable {
            tags: TagArray::try_new(geom, ReplacementPolicy::Lru)?,
            payloads: vec![P::default(); geom.num_lines() as usize].into_boxed_slice(),
            stats: HistoryStats::default(),
        })
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> u64 {
        self.tags.geometry().num_lines()
    }

    /// Number of currently valid entries.
    pub fn len(&self) -> u64 {
        self.tags.valid_lines()
    }

    /// `true` when no entries are valid.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks for a line *without* updating recency or stats (pure peek).
    pub fn peek(&self, line: LineAddr) -> Option<P> {
        self.tags.probe(line).map(|(way, ())| self.payloads[way])
    }

    /// Looks up a line, updating recency and hit/miss stats. Returns the
    /// payload when present.
    pub fn lookup(&mut self, line: LineAddr) -> Option<P> {
        match self.tags.probe(line) {
            Some((way, ())) => {
                self.tags.touch(line);
                self.stats.hits += 1;
                Some(self.payloads[way])
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// `true` when the line is present (counts as a lookup).
    pub fn contains(&mut self, line: LineAddr) -> bool {
        self.lookup(line).is_some()
    }

    /// Records a line with the given payload: allocates a fresh entry (or
    /// refreshes an existing one), promoting it to MRU.
    pub fn record(&mut self, line: LineAddr, payload: P) {
        if let Some((way, ())) = self.tags.probe(line) {
            self.payloads[way] = payload;
            self.tags.touch(line);
            return;
        }
        self.stats.allocs += 1;
        let way = self.tags.way_to_fill(line);
        if self
            .tags
            .insert_into(line, way, (), InsertPosition::Mru)
            .is_some()
        {
            self.stats.evictions += 1;
        }
        self.payloads[way] = payload;
    }

    /// Updates the payload of an existing entry in place (no recency
    /// update). Returns `false` when the line is absent.
    pub fn update(&mut self, line: LineAddr, f: impl FnOnce(&mut P)) -> bool {
        let Some((way, ())) = self.tags.probe(line) else {
            return false;
        };
        f(&mut self.payloads[way]);
        true
    }

    /// Removes a line's entry, returning its payload.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<P> {
        let (way, ()) = self.tags.probe(line)?;
        self.tags.invalidate(line);
        self.stats.invalidations += 1;
        Some(self.payloads[way])
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> HistoryStats {
        self.stats
    }

    /// Hit rate of lookups so far (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.stats.hits + self.stats.misses;
        if total == 0 {
            0.0
        } else {
            self.stats.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_then_lookup() {
        let mut t: HistoryTable<()> = HistoryTable::new(64, 4).unwrap();
        let l = LineAddr::new(123);
        assert_eq!(t.lookup(l), None);
        t.record(l, ());
        assert_eq!(t.lookup(l), Some(()));
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
        assert_eq!(t.stats().allocs, 1);
    }

    #[test]
    fn capacity_and_len() {
        let mut t: HistoryTable<()> = HistoryTable::new(64, 4).unwrap();
        assert_eq!(t.capacity(), 64);
        assert!(t.is_empty());
        for i in 0..10 {
            t.record(LineAddr::new(i), ());
        }
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn conflict_eviction_ages_out_old_tags() {
        // 4 entries, 2-way -> 2 sets. Lines with the same parity collide.
        let mut t: HistoryTable<()> = HistoryTable::new(4, 2).unwrap();
        t.record(LineAddr::new(0), ());
        t.record(LineAddr::new(2), ());
        t.record(LineAddr::new(4), ()); // evicts line 0 (LRU)
        assert_eq!(t.stats().evictions, 1);
        assert!(!t.contains(LineAddr::new(0)));
        assert!(t.contains(LineAddr::new(2)));
        assert!(t.contains(LineAddr::new(4)));
    }

    #[test]
    fn lookup_refreshes_lru() {
        let mut t: HistoryTable<()> = HistoryTable::new(4, 2).unwrap();
        t.record(LineAddr::new(0), ());
        t.record(LineAddr::new(2), ());
        assert!(t.contains(LineAddr::new(0))); // refresh 0; 2 becomes LRU
        t.record(LineAddr::new(4), ());
        assert!(t.contains(LineAddr::new(0)));
        assert!(!t.contains(LineAddr::new(2)));
    }

    #[test]
    fn use_bit_payload() {
        // Snarf-table usage: payload is a "has been missed on" bit.
        let mut t: HistoryTable<bool> = HistoryTable::new(16, 4).unwrap();
        let l = LineAddr::new(9);
        t.record(l, false);
        assert_eq!(t.lookup(l), Some(false));
        assert!(t.update(l, |b| *b = true));
        assert_eq!(t.lookup(l), Some(true));
        assert!(!t.update(LineAddr::new(10), |b| *b = true));
    }

    #[test]
    fn record_refreshes_existing() {
        let mut t: HistoryTable<u8> = HistoryTable::new(16, 4).unwrap();
        t.record(LineAddr::new(1), 1);
        t.record(LineAddr::new(1), 2);
        assert_eq!(t.stats().allocs, 1); // second record is a refresh
        assert_eq!(t.lookup(LineAddr::new(1)), Some(2));
    }

    #[test]
    fn invalidate_counts() {
        let mut t: HistoryTable<()> = HistoryTable::new(16, 4).unwrap();
        t.record(LineAddr::new(1), ());
        assert_eq!(t.invalidate(LineAddr::new(1)), Some(()));
        assert_eq!(t.invalidate(LineAddr::new(1)), None);
        assert_eq!(t.stats().invalidations, 1);
    }

    #[test]
    fn peek_does_not_touch_stats() {
        let mut t: HistoryTable<()> = HistoryTable::new(16, 4).unwrap();
        t.record(LineAddr::new(1), ());
        assert!(t.peek(LineAddr::new(1)).is_some());
        assert!(t.peek(LineAddr::new(2)).is_none());
        assert_eq!(t.stats().hits + t.stats().misses, 0);
    }

    #[test]
    fn paper_sized_wbht() {
        // 32K entries, 16-way — the paper's WBHT.
        let t: HistoryTable<()> = HistoryTable::new(32 * 1024, 16).unwrap();
        assert_eq!(t.capacity(), 32 * 1024);
    }

    #[test]
    fn wide_table_holds_unpackable_payloads() {
        // Two u64s can never fit a packed tag word; they sit beside the
        // tags with the same table semantics as a tag-only payload.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        struct Wide {
            a: u64,
            b: u64,
        }
        let mut t: HistoryTable<Wide> = HistoryTable::new(16, 4).unwrap();
        let l = LineAddr::new(7);
        t.record(l, Wide { a: 1, b: 2 });
        assert_eq!(t.lookup(l), Some(Wide { a: 1, b: 2 }));
        assert!(t.update(l, |w| w.b = 9));
        assert_eq!(t.peek(l), Some(Wide { a: 1, b: 9 }));
    }

    #[test]
    fn payload_follows_its_line_through_way_reuse() {
        // One 2-way set (2 entries): lines 0 and 1 fill both ways, then
        // line 2 evicts line 0, the LRU entry, and reuses its way.
        let mut t: HistoryTable<u8> = HistoryTable::new(2, 2).unwrap();
        let (a, b, c) = (LineAddr::new(0), LineAddr::new(1), LineAddr::new(2));
        t.record(a, 0xA);
        t.record(b, 0xB);
        t.record(c, 0xC);
        assert_eq!(t.stats().evictions, 1);
        assert_eq!(t.peek(a), None);
        assert_eq!(t.peek(b), Some(0xB));
        assert_eq!(t.peek(c), Some(0xC));

        // `update` and `invalidate` act on their own entry only.
        assert!(t.update(c, |p| *p = 0xCC));
        assert!(!t.update(a, |p| *p = 0xAA));
        assert_eq!(t.peek(b), Some(0xB));
        assert_eq!(t.peek(c), Some(0xCC));
        assert_eq!(t.invalidate(b), Some(0xB));
        assert_eq!(t.peek(c), Some(0xCC));
        assert_eq!(t.invalidate(c), Some(0xCC));
        assert!(t.is_empty());

        let s = t.stats();
        assert_eq!((s.allocs, s.evictions, s.invalidations), (3, 1, 2));
    }

    #[test]
    fn hit_rate_empty_is_zero() {
        let t: HistoryTable<()> = HistoryTable::new(16, 4).unwrap();
        assert_eq!(t.hit_rate(), 0.0);
    }
}
