//! Typed protocol-invariant checking: at most one dirty owner per line,
//! `E`/`M` exclusivity, and at most one `SL` holder. Violations are
//! reported as structured [`InvariantViolation`] values so callers can
//! act on them without parsing panic strings; tests use the panicking
//! [`System::assert_invariants`] wrapper.

use std::collections::HashMap;

use cmpsim_cache::LineAddr;
use cmpsim_coherence::L2State;

use crate::system::l2::L2Unit;
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
    /// its holders, or `Ok(())` when the caches are consistent.
    ///
    /// # Errors
    ///
    /// Returns an [`InvariantViolation`] describing the violated rule.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let mut holders: HashMap<u64, Vec<(usize, L2State)>> = HashMap::new();
        for (i, l2) in self.l2s.iter().enumerate() {
            for line in all_lines(l2) {
                let st = l2.state_of(line).expect("listed line resident");
                holders.entry(line.raw()).or_default().push((i, st));
            }
        }
        for (line, hs) in holders {
            let dirty = hs.iter().filter(|(_, s)| s.is_dirty()).count();
            if dirty > 1 {
                return Err(InvariantViolation::MultipleDirtyOwners { line, holders: hs });
            }
            let excl = hs.iter().filter(|(_, s)| s.is_exclusive()).count();
            if excl > 0 && hs.len() != 1 {
                return Err(InvariantViolation::ExclusiveWithSharers { line, holders: hs });
            }
            let sl = hs.iter().filter(|(_, s)| *s == L2State::SharedLast).count();
            if sl > 1 {
                return Err(InvariantViolation::MultipleSharedLast { line, holders: hs });
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

fn all_lines(l2: &L2Unit) -> Vec<LineAddr> {
    // Reconstructs resident global line addresses via the snarf-victim
    // helper path; exposed only for invariant checking, so a slow path
    // through the public surface is fine.
    l2.resident_lines()
}

#[cfg(test)]
mod tests {
    use cmpsim_cache::{InsertPosition, LineAddr};
    use cmpsim_coherence::L2State;

    use super::InvariantViolation;
    use crate::policy::PolicyConfig;
    use crate::system::testutil::system;

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
}
