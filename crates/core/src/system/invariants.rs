//! Typed protocol-invariant checking: at most one dirty owner per line,
//! `E`/`M` exclusivity, and at most one `SL` holder. Violations are
//! reported as structured [`InvariantViolation`] values so callers can
//! act on them without parsing panic strings; tests use the panicking
//! [`System::assert_invariants`] wrapper.

use cmpsim_coherence::L2State;

use crate::system::System;

/// A violated coherence-protocol invariant, naming the line and every
/// L2 holding it (index, state) at the time of the check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// More than one L2 holds the line in a dirty (`M`/`T`) state.
    MultipleDirtyOwners {
        /// The line's raw address.
        line: u64,
        /// Every holder of the line as `(l2 index, state)`.
        holders: Vec<(usize, L2State)>,
    },
    /// An `E`/`M` holder coexists with other copies of the line.
    ExclusiveWithSharers {
        /// The line's raw address.
        line: u64,
        /// Every holder of the line as `(l2 index, state)`.
        holders: Vec<(usize, L2State)>,
    },
    /// More than one L2 claims the `SL` (shared-last, intervener) state.
    MultipleSharedLast {
        /// The line's raw address.
        line: u64,
        /// Every holder of the line as `(l2 index, state)`.
        holders: Vec<(usize, L2State)>,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::MultipleDirtyOwners { line, holders } => {
                let dirty = holders.iter().filter(|(_, s)| s.is_dirty()).count();
                write!(f, "line {line:#x}: {dirty} dirty owners: {holders:?}")
            }
            InvariantViolation::ExclusiveWithSharers { line, holders } => {
                write!(f, "line {line:#x}: E/M with sharers: {holders:?}")
            }
            InvariantViolation::MultipleSharedLast { line, holders } => {
                let sl = holders
                    .iter()
                    .filter(|(_, s)| *s == L2State::SharedLast)
                    .count();
                write!(f, "line {line:#x}: {sl} SL holders: {holders:?}")
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}

impl System {
    /// Verifies protocol invariants across all caches: at most one dirty
    /// owner per line, `E`/`M` exclusivity, at most one `SL` holder.
    ///
    /// Returns the first violation found, with the offending line and
    /// its holders in L2 index order, or `Ok(())` when the caches are
    /// consistent.
    ///
    /// The sweep walks each L2's tag arrays in place, in L2 index order,
    /// and tallies each resident line over that L2 and the L2s above it,
    /// probing only those, so a line is checked in full at its
    /// lowest-index holder. It allocates only to report a violation.
    /// The report order is fixed: when several lines violate, the one
    /// reported is the first by lowest holder index, then by position in
    /// that L2's arrays (slice by slice, way by way), so repeated calls
    /// and identical runs name the same line.
    ///
    /// # Errors
    ///
    /// Returns an [`InvariantViolation`] describing the violated rule.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        for (i, l2) in self.l2s.iter().enumerate() {
            let higher = &self.l2s[i + 1..];
            for (line, st) in l2.resident() {
                // At the line's lowest-index holder, which the walk
                // reaches first, the tally covers every holder. At a
                // later holder the full set has already passed, and a
                // rule that holds for a set of holders holds for any
                // subset of it, so the partial tally cannot fail.
                let others = || {
                    higher
                        .iter()
                        .enumerate()
                        .filter_map(move |(k, o)| o.state_of(line).map(|s| (i + 1 + k, s)))
                };
                let (mut n, mut dirty, mut excl, mut sl) = (0, 0, 0, 0);
                for (_, s) in std::iter::once((i, st)).chain(others()) {
                    n += 1;
                    dirty += usize::from(s.is_dirty());
                    excl += usize::from(s.is_exclusive());
                    sl += usize::from(s == L2State::SharedLast);
                }
                let holders = || std::iter::once((i, st)).chain(others()).collect();
                if dirty > 1 {
                    return Err(InvariantViolation::MultipleDirtyOwners {
                        line: line.raw(),
                        holders: holders(),
                    });
                }
                if excl > 0 && n != 1 {
                    return Err(InvariantViolation::ExclusiveWithSharers {
                        line: line.raw(),
                        holders: holders(),
                    });
                }
                if sl > 1 {
                    return Err(InvariantViolation::MultipleSharedLast {
                        line: line.raw(),
                        holders: holders(),
                    });
                }
            }
        }
        Ok(())
    }

    /// [`check_invariants`](Self::check_invariants), panicking on the
    /// first violation (the test-friendly form).
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn assert_invariants(&self) {
        if let Err(v) = self.check_invariants() {
            panic!("coherence invariant violated: {v}");
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use cmpsim_cache::{InsertPosition, LineAddr};
    use cmpsim_coherence::L2State;
    use cmpsim_engine::SplitMix64;

    use super::InvariantViolation;
    use crate::policy::PolicyConfig;
    use crate::system::testutil::system;
    use crate::system::System;

    /// Puts `line` into L2 `l2` in state `st`, overwriting the state of
    /// a resident copy.
    fn plant(sys: &mut System, l2: usize, line: LineAddr, st: L2State) {
        if !sys.l2s[l2].set_state(line, st) {
            sys.l2s[l2].fill(line, st, InsertPosition::Mru);
        }
    }

    /// The sweep as it was before it walked the tag arrays in place: the
    /// holders of every resident line gathered into a `HashMap`, then
    /// each line checked against the three rules in order. Returns every
    /// violating line's violation, because the map's iteration order
    /// (and so which violation the old sweep reported) is arbitrary.
    fn oracle(sys: &System) -> Vec<InvariantViolation> {
        let mut holders: HashMap<u64, Vec<(usize, L2State)>> = HashMap::new();
        for (i, l2) in sys.l2s.iter().enumerate() {
            for (line, st) in l2.resident() {
                holders.entry(line.raw()).or_default().push((i, st));
            }
        }
        let mut found = Vec::new();
        for (line, hs) in holders {
            let dirty = hs.iter().filter(|(_, s)| s.is_dirty()).count();
            let excl = hs.iter().filter(|(_, s)| s.is_exclusive()).count();
            let sl = hs.iter().filter(|(_, s)| *s == L2State::SharedLast).count();
            if dirty > 1 {
                found.push(InvariantViolation::MultipleDirtyOwners { line, holders: hs });
            } else if excl > 0 && hs.len() != 1 {
                found.push(InvariantViolation::ExclusiveWithSharers { line, holders: hs });
            } else if sl > 1 {
                found.push(InvariantViolation::MultipleSharedLast { line, holders: hs });
            }
        }
        found
    }

    #[test]
    fn violations_are_typed_and_described() {
        let mut sys = system(PolicyConfig::baseline());
        assert_eq!(sys.check_invariants(), Ok(()));

        // Two dirty owners of one line.
        let line = LineAddr::new(40);
        sys.l2s[0].fill(line, L2State::Modified, InsertPosition::Mru);
        sys.l2s[1].fill(line, L2State::Tagged, InsertPosition::Mru);
        let v = sys.check_invariants().unwrap_err();
        let InvariantViolation::MultipleDirtyOwners { line: at, holders } = &v else {
            panic!("expected two dirty owners, got {v}");
        };
        assert_eq!((*at, holders.len()), (line.raw(), 2));
        assert!(v.to_string().contains("dirty owners"));

        // Demote one copy: now it is an E/M-with-sharers violation.
        sys.l2s[1].set_state(line, L2State::Shared);
        let v = sys.check_invariants().unwrap_err();
        assert!(matches!(v, InvariantViolation::ExclusiveWithSharers { .. }));

        // Two SL claimants.
        sys.l2s[0].set_state(line, L2State::SharedLast);
        sys.l2s[1].set_state(line, L2State::SharedLast);
        let v = sys.check_invariants().unwrap_err();
        assert!(matches!(v, InvariantViolation::MultipleSharedLast { .. }));

        // Repair and re-verify.
        sys.l2s[1].set_state(line, L2State::Shared);
        sys.assert_invariants();
    }

    #[test]
    fn in_place_sweep_agrees_with_the_map_oracle() {
        use L2State::*;
        const STATES: [L2State; 5] = [Shared, SharedLast, Exclusive, Modified, Tagged];
        let mut rng = SplitMix64::new(0x1BAD_B002);
        let mut pick = |n: u64| (rng.next_u64() % n) as usize;
        // Trials with no, exactly one and several violating lines.
        let mut seen = [0; 3];
        for _ in 0..300 {
            let mut sys = system(PolicyConfig::baseline());
            let l2s = sys.l2s.len();
            // Per trial: lines planted, and one chance in `odds` that a
            // line's holders get random states instead of legal ones.
            let lines = 1 + pick(32);
            let odds = [1, 4, 64][pick(3)];
            let stride = 1 + 2 * pick(500) as u64;
            for k in 0..lines as u64 {
                let line = LineAddr::new(k * stride);
                let holders: Vec<usize> = (0..l2s).filter(|_| pick(2) == 0).collect();
                let random = pick(odds) == 0;
                let (tagged, last) = (pick(4), pick(4));
                for (h, &l2) in holders.iter().enumerate() {
                    let st = if random || holders.len() == 1 {
                        STATES[pick(5)]
                    } else if h == tagged {
                        Tagged
                    } else if h == last {
                        SharedLast
                    } else {
                        Shared
                    };
                    plant(&mut sys, l2, line, st);
                }
            }
            let want = oracle(&sys);
            match sys.check_invariants() {
                Ok(()) => assert!(want.is_empty(), "sweep passed, oracle found {want:?}"),
                Err(v) => {
                    assert!(
                        want.contains(&v),
                        "sweep reported {v}, oracle found {want:?}"
                    );
                    if want.len() == 1 {
                        assert_eq!(v, want[0]);
                    }
                }
            }
            seen[want.len().min(2)] += 1;
        }
        assert!(
            seen.iter().all(|&n| n >= 20),
            "trial mix too narrow: {seen:?}"
        );
    }

    #[test]
    fn several_violations_report_the_first_in_fixed_order() {
        use L2State::*;
        let mut sys = system(PolicyConfig::baseline());
        // Two dirty owners in L2s 1 and 2, two SL holders in L2s 0 and 3:
        // the lower holder index goes first.
        plant(&mut sys, 1, LineAddr::new(41), Modified);
        plant(&mut sys, 2, LineAddr::new(41), Tagged);
        plant(&mut sys, 0, LineAddr::new(45), SharedLast);
        plant(&mut sys, 3, LineAddr::new(45), SharedLast);
        let first = InvariantViolation::MultipleSharedLast {
            line: 45,
            holders: vec![(0, SharedLast), (3, SharedLast)],
        };
        for _ in 0..3 {
            assert_eq!(sys.check_invariants(), Err(first.clone()));
        }
        // Within L2 0, array order: line 44 sits in slice 0 and line 45
        // in slice 1, so an E/M clash on 44 goes first.
        plant(&mut sys, 0, LineAddr::new(44), Exclusive);
        plant(&mut sys, 2, LineAddr::new(44), Shared);
        let first = InvariantViolation::ExclusiveWithSharers {
            line: 44,
            holders: vec![(0, Exclusive), (2, Shared)],
        };
        for _ in 0..3 {
            assert_eq!(sys.check_invariants(), Err(first.clone()));
        }
    }
}
