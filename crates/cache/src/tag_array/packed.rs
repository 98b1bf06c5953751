//! The bit-packed tag array: one `u64` word per line, hot state
//! struct-of-arrays.
//!
//! # Word layout
//!
//! ```text
//!  63  62 .. 63-S::BITS  62-S::BITS .. 0
//! +---+----------------+----------------------------------+
//! | V |     state      |   tag  (line.raw() >> set bits)  |
//! +---+----------------+----------------------------------+
//! ```
//!
//! The tag drops its set-index bits (they are implied by the word's
//! position in the array), so a geometry fits whenever
//! `S::BITS + (48 − set_bits) ≤ 63` — checked at construction against
//! [`PACKED_LINE_ADDR_BITS`] by [`packed_fits`]. A probe is a single
//! masked compare per way (`word & (VALID|TAG_MASK) == VALID|tag`) over
//! per-set contiguous words, which the compiler turns into a short
//! sequential-load compare loop.
//!
//! Recency stamps live in a **separate** `Box<[u64]>` epoch array, not
//! in the word: a stamp needs the full 64-bit monotone counter to keep
//! an exact tie-break ordering (stamps survive invalidation and are
//! compared across the whole set, including invalid ways), and
//! keeping them out of the word means the probe loop never loads them.
//!
//! A per-set **presence filter** (`u32` signature: the OR of
//! `1 << (tag & 31)` over valid ways) short-circuits definite misses
//! before the way scan. Snoop probes and invalidations fan out to every
//! remote slice and mostly miss, so this skips the bulk of scans while
//! staying exact: the signature is recomputed (not just OR-ed) on every
//! insert and invalidate, and a false positive only costs the scan that
//! would have run anyway. Hit results, stamps and victim choices are
//! unaffected.

use std::cell::Cell;
use std::marker::PhantomData;

use super::{Evicted, InsertPosition, PackedState, WayIdx, NO_HINT};
use crate::{CacheGeometry, GeometryError, LineAddr, ReplacementPolicy};

/// Line-address width the packed word must be able to tag (48-bit
/// physical addressing; line addresses are physical addresses already
/// shifted right by the line-offset bits, so this is generous).
pub const PACKED_LINE_ADDR_BITS: u32 = 48;

/// Can a packed word hold `state_bits` of state plus the tag bits a
/// `num_sets`-set geometry leaves over from a
/// [`PACKED_LINE_ADDR_BITS`]-bit line address?
///
/// `const` so statically known geometries can be checked at compile
/// time (`const _: () = assert!(packed_fits(3, 512));`); `num_sets`
/// must be a power of two (as [`CacheGeometry`] guarantees).
pub const fn packed_fits(state_bits: u32, num_sets: u64) -> bool {
    if state_bits > 63 {
        return false;
    }
    let set_bits = num_sets.trailing_zeros();
    PACKED_LINE_ADDR_BITS.saturating_sub(set_bits) <= 63 - state_bits
}

/// One packed line word: `valid | state | tag` (see the module docs for
/// the layout). The field boundaries depend on the state type's
/// [`PackedState::BITS`], so decoding lives on [`TagArray`]; this
/// wrapper exists to name the format and pin its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(transparent)]
pub struct PackedLine(u64);

// Layout regression guard: a line word is exactly one u64.
const _: () = assert!(std::mem::size_of::<PackedLine>() == 8);

impl PackedLine {
    /// The raw word.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Is the valid bit (bit 63) set?
    #[inline]
    pub const fn is_valid(self) -> bool {
        self.0 >> 63 != 0
    }
}

/// A set-associative tag array storing each line as one packed `u64`.
///
/// The per-way storage is a single word, laid out struct-of-arrays with
/// per-set contiguous ways, so the probe loop touches `assoc × 8`
/// contiguous bytes. Replacement is true LRU by per-way recency stamp.
/// Probe results, recency stamps and victim tie-breaks match a plain
/// one-struct-per-way reference model (the randomized mirror tests in
/// `tests/mirror.rs` enforce it).
///
/// Requires `S:`[`PackedState`] and a geometry accepted by
/// [`packed_fits`]; payloads too wide to pack sit beside a tag-only
/// array in a [`HistoryTable`](crate::HistoryTable).
#[derive(Debug, Clone)]
pub struct TagArray<S> {
    geom: CacheGeometry,
    /// One [`PackedLine`] word per line, `set * assoc + way` indexed.
    words: Box<[PackedLine]>,
    /// Per-set presence signature: the OR of `1 << (tag & 31)` over the
    /// set's valid ways. A probe whose tag bit is clear is *definitely*
    /// absent and skips the way scan entirely — the common case for
    /// snoop probes fanning out across remote slices. Rebuilt exactly
    /// (not just OR-ed) on every insert/invalidate, so it never decays
    /// into all-ones; a set bit merely falls through to the scan.
    filters: Box<[u32]>,
    /// Recency epochs, parallel to `words`. Kept out of the packed word
    /// (full-width monotone counter; survives invalidation) — see the
    /// module docs.
    stamps: Box<[u64]>,
    stamp: u64,
    valid_count: u64,
    /// Way memoization: per-set index of the last way that hit (or was
    /// filled), `NO_HINT` when unknown. Hints are *validated* on use
    /// (masked tag compare), so a stale hint after an eviction or
    /// invalidation degrades to the full way scan — it can never return
    /// a wrong answer, and therefore never needs clearing. `Cell` keeps
    /// [`probe`](Self::probe) shared (`&self`); the array stays `Send`,
    /// which is all the parallel sweep driver needs (each worker builds
    /// its own systems).
    way_hint: Box<[Cell<u32>]>,
    /// `num_sets - 1`, cached off the hot path's `geom` indirection.
    set_mask: u64,
    /// `log2(num_sets)`: how many low line-address bits the tag drops.
    set_shift: u32,
    /// `geom.assoc()` as usize, cached likewise.
    assoc: usize,
    _state: PhantomData<S>,
}

impl<S: PackedState> TagArray<S> {
    /// Tag field width: whatever the word has left after valid + state.
    const TAG_BITS: u32 = 63 - S::BITS;
    /// Valid flag (bit 63).
    const VALID: u64 = 1 << 63;
    /// Mask of the tag field (low bits).
    const TAG_MASK: u64 = (1 << Self::TAG_BITS) - 1;
    /// Mask of the state field (between tag and valid).
    const STATE_MASK: u64 = ((1 << S::BITS) - 1) << Self::TAG_BITS;
    /// What a probe compares: valid bit + tag field.
    const MATCH_MASK: u64 = Self::VALID | Self::TAG_MASK;

    /// Creates an empty LRU tag array (`ReplacementPolicy::Lru` is the
    /// only policy; see its docs).
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::PackedTagOverflow`] when the geometry
    /// needs more tag bits than the word has spare (see [`packed_fits`]).
    pub fn try_new(geom: CacheGeometry, _policy: ReplacementPolicy) -> Result<Self, GeometryError> {
        if !packed_fits(S::BITS, geom.num_sets()) {
            return Err(GeometryError::PackedTagOverflow {
                state_bits: S::BITS,
                num_sets: geom.num_sets(),
            });
        }
        let n = geom.num_lines() as usize;
        Ok(TagArray {
            geom,
            words: vec![PackedLine::default(); n].into_boxed_slice(),
            filters: vec![0; geom.num_sets() as usize].into_boxed_slice(),
            stamps: vec![0; n].into_boxed_slice(),
            stamp: 0,
            valid_count: 0,
            way_hint: vec![Cell::new(NO_HINT); geom.num_sets() as usize].into_boxed_slice(),
            set_mask: geom.num_sets() - 1,
            set_shift: geom.num_sets().trailing_zeros(),
            assoc: geom.assoc() as usize,
            _state: PhantomData,
        })
    }

    /// Creates an empty tag array.
    ///
    /// # Panics
    ///
    /// Panics when the geometry's tag bits do not fit the packed word
    /// (see [`Self::try_new`]).
    pub fn new(geom: CacheGeometry, policy: ReplacementPolicy) -> Self {
        Self::try_new(geom, policy).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The geometry this array was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Number of valid lines currently resident.
    pub fn valid_lines(&self) -> u64 {
        self.valid_count
    }

    /// The presence-filter bit for a tag (low five tag bits — the bits
    /// that distinguish same-set lines at the smallest strides).
    #[inline]
    fn filter_bit(tag: u64) -> u32 {
        1u32 << (tag & 31)
    }

    /// Recomputes one set's presence signature from its words. Called
    /// after any mutation that adds or removes a tag; the set's words
    /// are already in cache at that point, so this is a handful of
    /// register ops.
    #[inline]
    fn rebuild_filter(&mut self, set: usize) {
        let base = set * self.assoc;
        let mut f = 0u32;
        for w in &self.words[base..base + self.assoc] {
            if w.is_valid() {
                // The tag field is the word's low bits, so the word's
                // low five bits *are* the tag's.
                f |= Self::filter_bit(w.raw());
            }
        }
        self.filters[set] = f;
    }

    /// Encodes the state field of a word.
    #[inline]
    fn state_bits(state: S) -> u64 {
        let bits = state.to_bits();
        debug_assert_eq!(
            bits & !(Self::STATE_MASK >> Self::TAG_BITS),
            0,
            "PackedState::to_bits exceeded BITS"
        );
        bits << Self::TAG_BITS
    }

    /// Decodes a word's state field.
    #[inline]
    fn state_of(word: PackedLine) -> S {
        S::from_bits((word.raw() & Self::STATE_MASK) >> Self::TAG_BITS)
    }

    /// Reconstructs the line address stored at flat way index `way`
    /// (tag field ‖ the set index implied by the word's position).
    #[inline]
    fn line_of(&self, way: WayIdx) -> LineAddr {
        let set = (way / self.assoc) as u64;
        LineAddr::new(((self.words[way].raw() & Self::TAG_MASK) << self.set_shift) | set)
    }

    #[inline]
    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let set = (line.raw() & self.set_mask) as usize;
        set * self.assoc..(set + 1) * self.assoc
    }

    /// Looks up a line without updating recency. Returns the way and its
    /// state when present.
    ///
    /// A line address wider than the tag field can never have been
    /// inserted; its masked compare misses every word, so no explicit
    /// width check is needed here.
    #[inline]
    pub fn probe(&self, line: LineAddr) -> Option<(WayIdx, S)> {
        let set = (line.raw() & self.set_mask) as usize;
        let tag = line.raw() >> self.set_shift;
        if self.filters[set] & Self::filter_bit(tag) == 0 {
            return None;
        }
        let base = set * self.assoc;
        let want = Self::VALID | tag;
        let h = self.way_hint[set].get() as usize;
        if h < self.assoc {
            let w = self.words[base + h];
            if w.raw() & Self::MATCH_MASK == want {
                return Some((base + h, Self::state_of(w)));
            }
        }
        for (i, w) in self.words[base..base + self.assoc].iter().enumerate() {
            if w.raw() & Self::MATCH_MASK == want {
                self.way_hint[set].set(i as u32);
                return Some((base + i, Self::state_of(*w)));
            }
        }
        None
    }

    /// Rewrites a resident line's state in place (no recency update),
    /// e.g. for coherence state transitions on snoops. Returns `false`
    /// when the line is absent.
    #[inline]
    pub fn update_state(&mut self, line: LineAddr, f: impl FnOnce(&mut S)) -> bool {
        let Some((way, mut state)) = self.probe(line) else {
            return false;
        };
        f(&mut state);
        let w = &mut self.words[way];
        *w = PackedLine((w.raw() & !Self::STATE_MASK) | Self::state_bits(state));
        true
    }

    /// Overwrites a resident line's state. Returns `false` when absent.
    #[inline]
    pub fn set_state(&mut self, line: LineAddr, state: S) -> bool {
        self.update_state(line, |s| *s = state)
    }

    /// Marks a line as just-used (hit path). Returns `false` if absent.
    #[inline]
    pub fn touch(&mut self, line: LineAddr) -> bool {
        let Some((way, _)) = self.probe(line) else {
            return false;
        };
        self.stamp += 1;
        self.stamps[way] = self.stamp;
        true
    }

    /// Inserts a line, evicting a victim when the set is full.
    ///
    /// Returns the evicted line, if any. The victim is an invalid way when
    /// one exists, otherwise the least recently used way.
    ///
    /// # Panics
    ///
    /// Panics if the line address does not fit the tag field (only
    /// possible for addresses beyond [`PACKED_LINE_ADDR_BITS`], since
    /// construction already validated the geometry), and (debug) if the
    /// line is already present — callers must [`probe`](Self::probe)
    /// first and update state in place on a hit.
    pub fn insert(&mut self, line: LineAddr, state: S, pos: InsertPosition) -> Option<Evicted<S>> {
        debug_assert!(
            self.probe(line).is_none(),
            "insert of already-present line {line}"
        );
        let way = self.way_to_fill(line);
        self.fill_way(line, way, state, pos)
    }

    /// Inserts a line into a *specific* way (used by the snarf mechanism,
    /// which picks its own victim with state preferences).
    ///
    /// Returns the previous occupant, if any.
    ///
    /// # Panics
    ///
    /// As [`insert`](Self::insert).
    pub fn insert_into(
        &mut self,
        line: LineAddr,
        way: WayIdx,
        state: S,
        pos: InsertPosition,
    ) -> Option<Evicted<S>> {
        debug_assert!(self.set_range(line).contains(&way), "way not in line's set");
        self.fill_way(line, way, state, pos)
    }

    fn fill_way(
        &mut self,
        line: LineAddr,
        way: WayIdx,
        state: S,
        pos: InsertPosition,
    ) -> Option<Evicted<S>> {
        let tag = line.raw() >> self.set_shift;
        assert!(
            tag <= Self::TAG_MASK,
            "line {line} exceeds the packed tag width ({} bits)",
            Self::TAG_BITS
        );
        // `way` is in `line`'s set, so the set index comes off the line
        // address — no division by `assoc` to recover it from `way`.
        let set = (line.raw() & self.set_mask) as usize;
        let old = self.words[way];
        let evicted = if old.is_valid() {
            Some(Evicted {
                line: LineAddr::new(((old.raw() & Self::TAG_MASK) << self.set_shift) | set as u64),
                state: Self::state_of(old),
            })
        } else {
            self.valid_count += 1;
            None
        };
        let stamp = self.stamp_for(line, pos);
        self.words[way] = PackedLine(Self::VALID | Self::state_bits(state) | tag);
        self.stamps[way] = stamp;
        self.rebuild_filter(set);
        // A just-filled line is the likeliest next probe target.
        self.way_hint[set].set((way - set * self.assoc) as u32);
        evicted
    }

    fn stamp_for(&mut self, line: LineAddr, pos: InsertPosition) -> u64 {
        match pos {
            InsertPosition::Mru => {
                self.stamp += 1;
                self.stamp
            }
            InsertPosition::Lru => {
                let range = self.set_range(line);
                self.words[range.clone()]
                    .iter()
                    .zip(&self.stamps[range])
                    .filter(|(w, _)| w.is_valid())
                    .map(|(_, &s)| s)
                    .min()
                    .map_or(0, |m| m.saturating_sub(1))
            }
            InsertPosition::Mid => {
                let range = self.set_range(line);
                let (mut lo, mut hi) = (u64::MAX, 0u64);
                let mut any = false;
                for (w, &s) in self.words[range.clone()].iter().zip(&self.stamps[range]) {
                    if w.is_valid() {
                        lo = lo.min(s);
                        hi = hi.max(s);
                        any = true;
                    }
                }
                if any {
                    lo / 2 + hi / 2
                } else {
                    self.stamp += 1;
                    self.stamp
                }
            }
        }
    }

    /// The way [`insert`](Self::insert) fills for `line`: the first
    /// invalid way in its set, else the LRU victim.
    pub fn way_to_fill(&self, line: LineAddr) -> WayIdx {
        self.invalid_way(line)
            .unwrap_or_else(|| self.victim_way(line))
    }

    /// First invalid way in the line's set, if any.
    pub fn invalid_way(&self, line: LineAddr) -> Option<WayIdx> {
        let range = self.set_range(line);
        let base = range.start;
        self.words[range]
            .iter()
            .position(|w| !w.is_valid())
            .map(|i| base + i)
    }

    /// The least recently used way in this line's set (assumes the set
    /// has at least one valid way; invalid ways are preferred by
    /// [`way_to_fill`](Self::way_to_fill) before this is consulted).
    /// Scans *all* ways' stamps (invalid ways keep theirs); ties go to
    /// the lowest way.
    pub fn victim_way(&self, line: LineAddr) -> WayIdx {
        let range = self.set_range(line);
        let base = range.start;
        let mut best = base;
        let mut best_stamp = u64::MAX;
        for (i, &s) in self.stamps[range].iter().enumerate() {
            if s < best_stamp {
                best_stamp = s;
                best = base + i;
            }
        }
        best
    }

    /// Finds the best victim way among valid ways whose state satisfies
    /// `pred`, preferring the least recently used. Returns `None` when no
    /// way qualifies. Invalid ways are *not* returned — use
    /// [`invalid_way`](Self::invalid_way) first.
    ///
    /// This implements the snarf victim policy of §3: the caller first
    /// asks for an invalid way, then for the LRU way in `Shared` state.
    pub fn victim_way_by(&self, line: LineAddr, pred: impl Fn(&S) -> bool) -> Option<WayIdx> {
        let range = self.set_range(line);
        let base = range.start;
        self.words[range.clone()]
            .iter()
            .zip(&self.stamps[range])
            .enumerate()
            .filter(|(_, (w, _))| w.is_valid() && pred(&Self::state_of(**w)))
            .min_by_key(|&(i, (_, &s))| (s, i))
            .map(|(i, _)| base + i)
    }

    /// The `k` least-recently-used valid ways in the line's set, most
    /// evictable first. Used by cost-aware replacement policies that
    /// re-rank the LRU tail (e.g. preferring victims known to be cheap
    /// to re-fetch). Returns fewer than `k` entries when the set has
    /// fewer valid ways.
    pub fn victim_candidates(&self, line: LineAddr, k: usize) -> Vec<(WayIdx, LineAddr)> {
        let range = self.set_range(line);
        let base = range.start;
        let mut ways: Vec<(u64, WayIdx, LineAddr)> = self.words[range]
            .iter()
            .enumerate()
            .filter(|(_, w)| w.is_valid())
            .map(|(i, _)| (self.stamps[base + i], base + i, self.line_of(base + i)))
            .collect();
        ways.sort_unstable_by_key(|&(stamp, i, _)| (stamp, i));
        ways.truncate(k);
        ways.into_iter().map(|(_, i, l)| (i, l)).collect()
    }

    /// Removes a line, returning its state if it was present. The way's
    /// recency stamp is kept, so it still takes part in LRU tie-breaks.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<S> {
        let set = (line.raw() & self.set_mask) as usize;
        let tag = line.raw() >> self.set_shift;
        if self.filters[set] & Self::filter_bit(tag) == 0 {
            // Definitely absent (snoop invalidations fan out to slices
            // that mostly don't hold the line) — skip the scan.
            return None;
        }
        let range = self.set_range(line);
        let want = Self::VALID | tag;
        for w in &mut self.words[range] {
            if w.raw() & Self::MATCH_MASK == want {
                let state = Self::state_of(*w);
                *w = PackedLine(w.raw() & !Self::VALID);
                self.valid_count -= 1;
                self.rebuild_filter(set);
                return Some(state);
            }
        }
        None
    }

    /// The line currently occupying `way`, if valid.
    pub fn line_at(&self, way: WayIdx) -> Option<(LineAddr, S)> {
        let w = self.words[way];
        w.is_valid().then(|| (self.line_of(way), Self::state_of(w)))
    }

    /// Iterates over all valid lines (for verification and debug dumps).
    pub fn iter_valid(&self) -> impl Iterator<Item = (LineAddr, S)> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, w)| w.is_valid())
            .map(|(i, w)| (self.line_of(i), Self::state_of(*w)))
    }
}
