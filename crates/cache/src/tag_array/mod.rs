//! The set-associative tag array, generic over a per-line state payload.
//!
//! [`TagArray`] packs each line's state into one `u64` word
//! (`valid | state | tag`, see [`PackedLine`]) stored struct-of-arrays,
//! so a way scan is a handful of sequential u64 loads and the common
//! probe compiles to a masked-compare loop. History tables keep their
//! payloads (the snarf use bit, the rdcb and hybrid entries) beside a
//! tag-only `TagArray<()>`; see [`HistoryTable`](crate::HistoryTable).

mod packed;

use crate::LineAddr;

pub use packed::{packed_fits, PackedLine, TagArray, PACKED_LINE_ADDR_BITS};

/// Index of a way within a set.
pub type WayIdx = usize;

/// Where a newly inserted line lands in the recency stack.
///
/// Demand fills insert at [`Mru`](InsertPosition::Mru); the snarf
/// mechanism's insertion position is a tunable (§3 of the paper discusses
/// managing recipient LRU state to keep snarfed lines resident until
/// reuse).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InsertPosition {
    /// Most recently used — maximum residency.
    #[default]
    Mru,
    /// Halfway down the recency stack.
    Mid,
    /// Least recently used — first out.
    Lru,
}

/// A line evicted by [`TagArray::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted<S> {
    /// The victim's line address.
    pub line: LineAddr,
    /// The victim's state payload at eviction time.
    pub state: S,
}

/// A per-line state payload that fits the packed tag word.
///
/// [`TagArray`] stores each line as one `u64` of `valid | state | tag`;
/// a state type declares how many of those bits it needs
/// ([`BITS`](Self::BITS)) and how to round-trip through them.
/// Implementors must satisfy `from_bits(to_bits(s)) == s` and keep
/// `to_bits` within `BITS` bits; the array debug-asserts both.
///
/// Implemented by the coherence enums (`L2State`: 3 bits, `L3State`:
/// 1 bit — in `cmpsim-coherence`), `()` for tag-only arrays (history
/// tables, L1 filters), and small unsigned integers for tests.
pub trait PackedState: Copy + Default {
    /// State bits consumed in the packed word (0 for tag-only payloads).
    const BITS: u32;

    /// Encodes the state into its low [`BITS`](Self::BITS) bits.
    fn to_bits(self) -> u64;

    /// Decodes a value previously produced by [`to_bits`](Self::to_bits).
    fn from_bits(bits: u64) -> Self;
}

impl PackedState for () {
    const BITS: u32 = 0;

    #[inline]
    fn to_bits(self) -> u64 {
        0
    }

    #[inline]
    fn from_bits(_bits: u64) -> Self {}
}

impl PackedState for u8 {
    const BITS: u32 = 8;

    #[inline]
    fn to_bits(self) -> u64 {
        self as u64
    }

    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits as u8
    }
}

impl PackedState for u16 {
    const BITS: u32 = 16;

    #[inline]
    fn to_bits(self) -> u64 {
        self as u64
    }

    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits as u16
    }
}

/// Sentinel for "no memoized way" (associativities are far below this).
pub(crate) const NO_HINT: u32 = u32::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheGeometry, ReplacementPolicy};

    fn small() -> TagArray<u8> {
        // 4 sets x 2 ways, 128 B lines.
        TagArray::new(
            CacheGeometry::new(1024, 2, 128).unwrap(),
            ReplacementPolicy::Lru,
        )
    }

    #[test]
    fn probe_miss_then_hit() {
        let mut t = small();
        let l = LineAddr::new(12);
        assert!(t.probe(l).is_none());
        t.insert(l, 7, InsertPosition::Mru);
        assert_eq!(t.probe(l), Some((t.probe(l).unwrap().0, 7)));
        assert_eq!(t.valid_lines(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut t = small();
        // Set 0 holds lines 0, 4, 8, ...
        t.insert(LineAddr::new(0), 1, InsertPosition::Mru);
        t.insert(LineAddr::new(4), 2, InsertPosition::Mru);
        t.touch(LineAddr::new(0)); // 4 is now LRU
        let ev = t.insert(LineAddr::new(8), 3, InsertPosition::Mru).unwrap();
        assert_eq!(ev.line, LineAddr::new(4));
        assert_eq!(ev.state, 2);
        assert!(t.probe(LineAddr::new(0)).is_some());
    }

    #[test]
    fn lru_insert_position_lru_is_first_victim() {
        let mut t = small();
        t.insert(LineAddr::new(0), 1, InsertPosition::Mru);
        t.insert(LineAddr::new(4), 2, InsertPosition::Lru); // parked at LRU
        let ev = t.insert(LineAddr::new(8), 3, InsertPosition::Mru).unwrap();
        assert_eq!(ev.line, LineAddr::new(4));
    }

    #[test]
    fn invalidate_removes() {
        let mut t = small();
        t.insert(LineAddr::new(0), 9, InsertPosition::Mru);
        assert_eq!(t.invalidate(LineAddr::new(0)), Some(9));
        assert_eq!(t.invalidate(LineAddr::new(0)), None);
        assert_eq!(t.valid_lines(), 0);
    }

    #[test]
    fn update_state_rewrites_in_place() {
        let mut t = small();
        t.insert(LineAddr::new(0), 1, InsertPosition::Mru);
        assert!(t.update_state(LineAddr::new(0), |s| *s = 42));
        assert_eq!(t.probe(LineAddr::new(0)).unwrap().1, 42);
        assert!(!t.update_state(LineAddr::new(4), |s| *s = 9));
    }

    #[test]
    fn victim_way_by_prefers_lru_matching() {
        let mut t = small();
        t.insert(LineAddr::new(0), 10, InsertPosition::Mru);
        t.insert(LineAddr::new(4), 20, InsertPosition::Mru);
        // Only states >= 15 qualify.
        let w = t.victim_way_by(LineAddr::new(8), |&s| s >= 15).unwrap();
        assert_eq!(t.line_at(w).unwrap().0, LineAddr::new(4));
        assert!(t.victim_way_by(LineAddr::new(8), |&s| s > 99).is_none());
    }

    #[test]
    fn insert_into_specific_way() {
        let mut t = small();
        t.insert(LineAddr::new(0), 1, InsertPosition::Mru);
        let w = t.probe(LineAddr::new(0)).unwrap().0;
        let ev = t
            .insert_into(LineAddr::new(8), w, 5, InsertPosition::Mid)
            .unwrap();
        assert_eq!(ev.line, LineAddr::new(0));
        assert!(t.probe(LineAddr::new(8)).is_some());
        assert!(t.probe(LineAddr::new(0)).is_none());
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut t = small();
        for i in 0..4 {
            assert!(t
                .insert(LineAddr::new(i), i as u8, InsertPosition::Mru)
                .is_none());
        }
        assert_eq!(t.valid_lines(), 4);
        assert_eq!(t.iter_valid().count(), 4);
    }

    #[test]
    fn victim_candidates_ordered_by_recency() {
        let geom = CacheGeometry::new(2048, 4, 128).unwrap();
        let mut t: TagArray<u8> = TagArray::new(geom, ReplacementPolicy::Lru);
        for (i, l) in [0u64, 4, 8, 12].iter().enumerate() {
            t.insert(LineAddr::new(*l), i as u8, InsertPosition::Mru);
        }
        t.touch(LineAddr::new(0)); // 4 becomes the coldest
        let c = t.victim_candidates(LineAddr::new(16), 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].1, LineAddr::new(4));
        assert_eq!(c[1].1, LineAddr::new(8));
        // k larger than valid ways is clipped.
        assert_eq!(t.victim_candidates(LineAddr::new(16), 99).len(), 4);
    }

    #[test]
    fn stale_hint_never_lies() {
        // Hit a line (hint points at it), invalidate it, re-insert a
        // *different* line into the same way, then probe the old line:
        // the stale hint must be rejected by tag compare. Line 128 is in
        // line 0's set with tag 32, which shares tag 0's presence-filter
        // bit, so the probe of line 0 gets past the filter to the hint.
        let mut t = small();
        let (old, new) = (LineAddr::new(0), LineAddr::new(32 << 2));
        t.insert(old, 1, InsertPosition::Mru);
        let way = t.probe(old).unwrap().0;
        t.invalidate(old);
        assert!(t.probe(old).is_none());
        t.insert_into(new, way, 2, InsertPosition::Mru);
        assert!(t.probe(old).is_none());
        assert_eq!(t.probe(new), Some((way, 2)));
    }

    #[test]
    fn mid_insert_sits_between() {
        let geom = CacheGeometry::new(2048, 4, 128).unwrap();
        let mut t: TagArray<u8> = TagArray::new(geom, ReplacementPolicy::Lru);
        t.insert(LineAddr::new(0), 0, InsertPosition::Mru);
        t.insert(LineAddr::new(4), 1, InsertPosition::Mru);
        t.insert(LineAddr::new(8), 2, InsertPosition::Mru);
        // Mid insert: should be evicted before the MRU lines but after
        // the oldest line is gone.
        t.insert(LineAddr::new(12), 3, InsertPosition::Mid);
        let ev1 = t.insert(LineAddr::new(16), 4, InsertPosition::Mru).unwrap();
        assert_eq!(ev1.line, LineAddr::new(0)); // true LRU goes first
        let ev2 = t.insert(LineAddr::new(20), 5, InsertPosition::Mru).unwrap();
        assert_eq!(ev2.line, LineAddr::new(12)); // mid-inserted goes next
    }
}
