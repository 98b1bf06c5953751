//! Differential tests for the packed tag array.
//!
//! Drives [`TagArray`] and a test-only [`Reference`] model through
//! identical randomized probe/touch/insert/insert_into/update_state/
//! invalidate sequences and asserts identical probe results, LRU
//! victims, recency orderings, and evicted payloads — plus regressions
//! for stale way-hints and geometry extremes under the packed
//! word-layout rules.

use cmpsim_cache::{
    packed_fits, CacheGeometry, Evicted, GeometryError, InsertPosition, LineAddr, PackedLine,
    ReplacementPolicy, TagArray, PACKED_LINE_ADDR_BITS,
};
use cmpsim_engine::SplitMix64;

/// The semantics [`TagArray`] must keep, written the plain way: one
/// `Option<(line, state)>` and one full-width recency stamp per way. No
/// packing, no presence filter, no way hints — it shares no code with
/// the array under test.
struct Reference<S> {
    sets: u64,
    assoc: usize,
    ways: Vec<Option<(LineAddr, S)>>,
    /// Per-way recency stamp; kept across invalidation, and every way's
    /// stamp (valid or not) takes part in the LRU victim choice.
    stamps: Vec<u64>,
    clock: u64,
}

impl<S: Copy> Reference<S> {
    fn new(geom: CacheGeometry) -> Self {
        let n = geom.num_lines() as usize;
        Reference {
            sets: geom.num_sets(),
            assoc: geom.assoc() as usize,
            ways: vec![None; n],
            stamps: vec![0; n],
            clock: 0,
        }
    }

    fn set(&self, line: LineAddr) -> usize {
        (line.raw() % self.sets) as usize
    }

    fn ways_of(&self, line: LineAddr) -> std::ops::Range<usize> {
        let base = self.set(line) * self.assoc;
        base..base + self.assoc
    }

    fn probe(&self, line: LineAddr) -> Option<(usize, S)> {
        self.ways_of(line).find_map(|w| {
            self.ways[w]
                .filter(|&(l, _)| l == line)
                .map(|(_, s)| (w, s))
        })
    }

    fn valid_lines(&self) -> u64 {
        self.ways.iter().flatten().count() as u64
    }

    fn iter_valid(&self) -> impl Iterator<Item = (LineAddr, S)> + '_ {
        self.ways.iter().flatten().copied()
    }

    fn touch(&mut self, line: LineAddr) -> bool {
        let Some((way, _)) = self.probe(line) else {
            return false;
        };
        self.clock += 1;
        self.stamps[way] = self.clock;
        true
    }

    fn update_state(&mut self, line: LineAddr, f: impl FnOnce(&mut S)) -> bool {
        let Some((way, _)) = self.probe(line) else {
            return false;
        };
        if let Some((_, s)) = &mut self.ways[way] {
            f(s);
        }
        true
    }

    fn invalid_way(&self, line: LineAddr) -> Option<usize> {
        self.ways_of(line).find(|&w| self.ways[w].is_none())
    }

    /// Lowest stamp over every way; the first such way on a tie.
    fn victim_way(&self, line: LineAddr) -> usize {
        self.ways_of(line)
            .min_by_key(|&w| (self.stamps[w], w))
            .unwrap()
    }

    /// Mru takes a fresh stamp; Lru sits just under the set's oldest
    /// valid stamp; Mid takes the midpoint of the valid stamps (a fresh
    /// stamp in an empty set). Computed before the fill, so a valid
    /// occupant being replaced still counts.
    fn insert_stamp(&mut self, line: LineAddr, pos: InsertPosition) -> u64 {
        let valid = self.ways_of(line).filter(|&w| self.ways[w].is_some());
        let lo = valid.clone().map(|w| self.stamps[w]).min();
        let hi = valid.map(|w| self.stamps[w]).max();
        match (pos, lo, hi) {
            (InsertPosition::Lru, Some(lo), _) => lo.saturating_sub(1),
            (InsertPosition::Lru, None, _) => 0,
            (InsertPosition::Mid, Some(lo), Some(hi)) => lo / 2 + hi / 2,
            _ => {
                self.clock += 1;
                self.clock
            }
        }
    }

    fn insert_into(
        &mut self,
        line: LineAddr,
        way: usize,
        state: S,
        pos: InsertPosition,
    ) -> Option<Evicted<S>> {
        let stamp = self.insert_stamp(line, pos);
        let old = self.ways[way].replace((line, state));
        self.stamps[way] = stamp;
        old.map(|(line, state)| Evicted { line, state })
    }

    fn insert(&mut self, line: LineAddr, state: S, pos: InsertPosition) -> Option<Evicted<S>> {
        let way = match self.invalid_way(line) {
            Some(w) => w,
            None => self.victim_way(line),
        };
        self.insert_into(line, way, state, pos)
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<S> {
        let (way, _) = self.probe(line)?;
        self.ways[way].take().map(|(_, s)| s)
    }

    /// The `k` valid ways of `line`'s set in victim order (oldest stamp
    /// first, lower way on a tie).
    fn victim_candidates(&self, line: LineAddr, k: usize) -> Vec<(usize, LineAddr)> {
        let mut ways: Vec<_> = self
            .ways_of(line)
            .filter_map(|w| self.ways[w].map(|(l, _)| (self.stamps[w], w, l)))
            .collect();
        ways.sort_unstable();
        ways.into_iter().take(k).map(|(_, w, l)| (w, l)).collect()
    }
}

/// One randomized mirror run: every operation must produce the same
/// observable result on the array and the reference, and the final
/// resident state (lines, payloads, victim orderings) must match exactly.
fn mirror_run(geom: CacheGeometry, line_space: u64, seed: u64) {
    let mut p: TagArray<u8> = TagArray::new(geom, ReplacementPolicy::Lru);
    let mut g: Reference<u8> = Reference::new(geom);
    let mut rng = SplitMix64::new(seed);
    for step in 0..30_000u64 {
        let line = LineAddr::new(rng.gen_range(line_space));
        match rng.gen_range(6) {
            0 => {
                assert_eq!(p.probe(line), g.probe(line), "probe @ {step}");
            }
            1 => {
                assert_eq!(p.touch(line), g.touch(line), "touch @ {step}");
            }
            2 => {
                let st = (step & 0xFF) as u8;
                if p.probe(line).is_none() {
                    assert_eq!(
                        p.insert(line, st, InsertPosition::Mru),
                        g.insert(line, st, InsertPosition::Mru),
                        "insert eviction @ {step}"
                    );
                }
            }
            3 => {
                // insert_into the LRU-chosen way with a non-Mru position
                // (the snarf path). Skip when the line is resident
                // (insert_into does not handle duplicates).
                if p.probe(line).is_none() {
                    let pos = if step % 2 == 0 {
                        InsertPosition::Mid
                    } else {
                        InsertPosition::Lru
                    };
                    let wp = p.way_to_fill(line);
                    let wg = g.invalid_way(line).unwrap_or_else(|| g.victim_way(line));
                    assert_eq!(wp, wg, "victim way @ {step}");
                    // The chosen way may hold a different line; only
                    // proceed if that occupant is not `line` itself.
                    assert_eq!(
                        p.insert_into(line, wp, (step & 0x7F) as u8, pos),
                        g.insert_into(line, wg, (step & 0x7F) as u8, pos),
                        "insert_into @ {step}"
                    );
                }
            }
            4 => {
                let st = (step & 0x3F) as u8;
                assert_eq!(
                    p.update_state(line, |s| *s = st),
                    g.update_state(line, |s| *s = st),
                    "update_state @ {step}"
                );
                assert_eq!(p.probe(line), g.probe(line), "state after update @ {step}");
            }
            _ => {
                assert_eq!(
                    p.invalidate(line),
                    g.invalidate(line),
                    "invalidate @ {step}"
                );
            }
        }
        assert_eq!(p.valid_lines(), g.valid_lines(), "occupancy @ {step}");
    }
    // Terminal full-state comparison.
    let pv: Vec<_> = p.iter_valid().collect();
    let gv: Vec<_> = g.iter_valid().collect();
    assert_eq!(pv, gv, "final resident lines diverge");
    for set in 0..geom.num_sets() {
        let l = LineAddr::new(set);
        assert_eq!(
            p.victim_candidates(l, geom.assoc() as usize),
            g.victim_candidates(l, geom.assoc() as usize),
            "victim ordering diverges in set {set}"
        );
        assert_eq!(p.invalid_way(l), g.invalid_way(l));
    }
}

#[test]
fn mirror_lru() {
    let geom = CacheGeometry::new(4096, 8, 128).unwrap(); // 4 sets x 8 ways
    mirror_run(geom, 64, 0x51AB_1E5E);
}

#[test]
fn mirror_wider_geometry() {
    // More sets, lower pressure: exercises set indexing and tag
    // reconstruction across set boundaries.
    let geom = CacheGeometry::new(16384, 4, 128).unwrap(); // 32 sets x 4 ways
    mirror_run(geom, 4096, 0x0DDC_0FFE);
}

/// Regression: a way-hint that survives an `invalidate` + re-`insert`
/// of a *different* tag into the same way must never short-circuit to
/// a wrong hit; the hint-free reference says what a probe must return.
#[test]
fn stale_hint_after_reuse_never_lies() {
    let geom = CacheGeometry::new(2048, 2, 128).unwrap(); // 8 sets x 2 ways
    let mut t: TagArray<u8> = TagArray::new(geom, ReplacementPolicy::Lru);
    let mut r: Reference<u8> = Reference::new(geom);
    // `a` is set 0, tag 0. `b` is in the same set, and its tag 32 shares
    // tag 0's presence-filter bit, so the probe of `a` gets past the
    // filter to the hint.
    let a = LineAddr::new(0);
    let b = LineAddr::new(32 << 3);
    t.insert(a, 1, InsertPosition::Mru);
    r.insert(a, 1, InsertPosition::Mru);
    let way = t.probe(a).unwrap().0; // seeds the hint with a's way
    t.invalidate(a);
    r.invalidate(a);
    // A *different* tag now occupies the hinted way.
    t.insert_into(b, way, 9, InsertPosition::Mru);
    r.insert_into(b, way, 9, InsertPosition::Mru);
    assert_eq!(t.probe(a), None, "stale hint returned a wrong hit");
    for line in [a, b] {
        assert_eq!(t.probe(line), r.probe(line), "probe of {line}");
    }
}

// --- geometry extremes under the packed layout ---------------------------

#[test]
fn direct_mapped_1_way() {
    // 1-way: every set is a single word; insert always replaces.
    let geom = CacheGeometry::new(1024, 1, 128).unwrap(); // 8 sets x 1 way
    mirror_run(geom, 64, 0xD1CE_0001);
    let mut t: TagArray<u8> = TagArray::new(geom, ReplacementPolicy::Lru);
    t.insert(LineAddr::new(0), 1, InsertPosition::Mru);
    let ev = t.insert(LineAddr::new(8), 2, InsertPosition::Mru).unwrap();
    assert_eq!(ev.line, LineAddr::new(0));
    assert_eq!(ev.state, 1);
}

#[test]
fn max_associativity_single_set() {
    // Fully associative: one set holding every line; the probe loop
    // scans all 32 ways.
    let geom = CacheGeometry::new(4096, 32, 128).unwrap(); // 1 set x 32 ways
    assert_eq!(geom.num_sets(), 1);
    mirror_run(geom, 64, 0xF011_A550);
}

#[test]
fn non_power_of_two_sets_rejected_by_geometry() {
    // The packed array never sees a non-power-of-two set count: every
    // route to one is rejected by CacheGeometry before any array is
    // built (set indexing is a mask; tag packing drops exactly
    // log2(num_sets) bits).
    assert!(matches!(
        CacheGeometry::new(128 * 24, 8, 128), // 24 sets via non-pow2 size
        Err(GeometryError::NotPowerOfTwo("size_bytes", _))
    ));
    assert!(matches!(
        CacheGeometry::new(4096, 12, 128), // 32 lines / 12-way
        Err(GeometryError::Indivisible { .. })
    ));
    assert!(matches!(
        CacheGeometry::from_entries(24, 2, 1), // 12 sets via entry count
        Err(GeometryError::NotPowerOfTwo(_, _))
    ));
}

#[test]
fn packed_fits_boundary() {
    // u8 payload: 8 state bits leave 55 tag bits — plenty for 48-bit
    // line addresses at any set count.
    assert!(packed_fits(8, 1));
    // u16 payload: 16 state bits leave 47 tag bits. A single set needs
    // all 48 — one too many; two sets shave one bit and fit exactly.
    assert!(!packed_fits(16, 1));
    assert!(packed_fits(16, 2));
    // L2State-sized payloads always fit real geometries.
    assert!(packed_fits(3, 512));
    // Nothing wider than the word can ever fit.
    assert!(!packed_fits(64, 1 << 20));
}

#[test]
fn oversized_tag_geometry_rejected_at_construction() {
    // 16 state bits + 1 set = 48 needed tag bits > 47 available.
    let geom = CacheGeometry::new(4096, 32, 128).unwrap(); // 1 set
    match TagArray::<u16>::try_new(geom, ReplacementPolicy::Lru) {
        Err(GeometryError::PackedTagOverflow {
            state_bits: 16,
            num_sets: 1,
        }) => {}
        other => panic!("expected PackedTagOverflow, got {other:?}"),
    }
    // A tag-only array (a history table's tag half) fits any geometry.
    assert!(TagArray::<()>::try_new(geom, ReplacementPolicy::Lru).is_ok());
}

#[test]
#[should_panic(expected = "packed tag word overflow")]
fn oversized_tag_geometry_panics_in_new() {
    let geom = CacheGeometry::new(4096, 32, 128).unwrap();
    let _ = TagArray::<u16>::new(geom, ReplacementPolicy::Lru);
}

#[test]
fn line_addresses_up_to_packed_width_roundtrip() {
    // The largest supported line address must store and reconstruct
    // exactly (tag reconstruction = stored tag bits ‖ set index).
    let geom = CacheGeometry::new(4096, 8, 128).unwrap(); // 4 sets
    let mut t: TagArray<u8> = TagArray::new(geom, ReplacementPolicy::Lru);
    let top = LineAddr::new((1u64 << PACKED_LINE_ADDR_BITS) - 1);
    t.insert(top, 0xAB, InsertPosition::Mru);
    assert_eq!(t.probe(top).map(|(_, s)| s), Some(0xAB));
    assert_eq!(t.iter_valid().collect::<Vec<_>>(), vec![(top, 0xAB)]);
    assert_eq!(t.invalidate(top), Some(0xAB));
}

#[test]
fn layout_size_assertions() {
    // The packed word is exactly 8 bytes; per-line hot state is the
    // word plus one epoch stamp (16 bytes/line total).
    assert_eq!(std::mem::size_of::<PackedLine>(), 8);
    assert_eq!(std::mem::align_of::<PackedLine>(), 8);
}
