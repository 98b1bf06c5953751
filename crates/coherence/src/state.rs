//! Per-line coherence states.

use std::fmt;

use cmpsim_cache::PackedState;

/// Coherence state of a line resident in an L2 cache.
///
/// Only *valid* lines carry a state — invalidity is represented by the
/// line's absence from the tag array. The protocol is MESI extended with
/// POWER4's `SL` (shared-last, clean intervention source) and `T`
/// (tagged: shared dirty owner) states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum L2State {
    /// Shared, read-only; cannot source interventions.
    #[default]
    Shared,
    /// Shared, read-only, designated intervention source ("shared last").
    /// At most one cache holds a line in `SL` at a time.
    SharedLast,
    /// Sole clean copy on chip; memory is up to date.
    Exclusive,
    /// Sole copy, dirty; memory is stale.
    Modified,
    /// Shared dirty owner (POWER4 "T"): other caches may hold `Shared`
    /// copies, this cache owns the dirty data and must cast it out.
    Tagged,
}

impl L2State {
    /// Does this copy hold dirt that must not be dropped?
    pub fn is_dirty(self) -> bool {
        matches!(self, L2State::Modified | L2State::Tagged)
    }

    /// May this copy source a cache-to-cache transfer? (All dirty lines
    /// and the `SL`/`E` subset of clean lines — paper §1.)
    pub fn can_intervene(self) -> bool {
        !matches!(self, L2State::Shared)
    }

    /// Is this the only copy allowed to exist on chip?
    pub fn is_exclusive(self) -> bool {
        matches!(self, L2State::Exclusive | L2State::Modified)
    }

    /// Is the line writable without a bus upgrade?
    pub fn is_writable(self) -> bool {
        self.is_exclusive()
    }

    /// State a *provider* transitions to after sourcing a read-shared
    /// intervention. Dirty owners keep ownership as `Tagged`; clean
    /// intervention sources hand `SL` status to the requester and keep a
    /// plain `Shared` copy (POWER4 behaviour).
    pub fn after_providing_shared(self) -> L2State {
        match self {
            L2State::Modified | L2State::Tagged => L2State::Tagged,
            L2State::Exclusive | L2State::SharedLast => L2State::Shared,
            L2State::Shared => L2State::Shared,
        }
    }
}

/// Packed encoding for the L2 tag word: 3 bits, discriminant order
/// (`S`=0, `SL`=1, `E`=2, `M`=3, `T`=4). Encodings 5–7 are unused and
/// never produced; `from_bits` only ever sees values from `to_bits`.
impl PackedState for L2State {
    const BITS: u32 = 3;

    #[inline]
    fn to_bits(self) -> u64 {
        self as u64
    }

    #[inline]
    fn from_bits(bits: u64) -> Self {
        match bits {
            0 => L2State::Shared,
            1 => L2State::SharedLast,
            2 => L2State::Exclusive,
            3 => L2State::Modified,
            _ => L2State::Tagged,
        }
    }
}

impl fmt::Display for L2State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            L2State::Shared => "S",
            L2State::SharedLast => "SL",
            L2State::Exclusive => "E",
            L2State::Modified => "M",
            L2State::Tagged => "T",
        };
        f.write_str(s)
    }
}

/// Coherence state of a line resident in the L3 victim cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum L3State {
    /// Clean copy; memory is up to date.
    #[default]
    Clean,
    /// Dirty copy; memory is stale, L3 must write back on eviction.
    Dirty,
}

impl L3State {
    /// Does eviction of this line require a memory write-back?
    pub fn is_dirty(self) -> bool {
        matches!(self, L3State::Dirty)
    }
}

/// Packed encoding for the L3 tag word: 1 bit (`Clean`=0, `Dirty`=1).
impl PackedState for L3State {
    const BITS: u32 = 1;

    #[inline]
    fn to_bits(self) -> u64 {
        self as u64
    }

    #[inline]
    fn from_bits(bits: u64) -> Self {
        if bits == 0 {
            L3State::Clean
        } else {
            L3State::Dirty
        }
    }
}

impl fmt::Display for L3State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            L3State::Clean => "C",
            L3State::Dirty => "D",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_states() {
        assert!(L2State::Modified.is_dirty());
        assert!(L2State::Tagged.is_dirty());
        assert!(!L2State::Shared.is_dirty());
        assert!(!L2State::SharedLast.is_dirty());
        assert!(!L2State::Exclusive.is_dirty());
    }

    #[test]
    fn intervention_subset() {
        // "cache-to-cache transfers for all dirty lines and a subset of
        // lines in the shared state"
        assert!(L2State::Modified.can_intervene());
        assert!(L2State::Tagged.can_intervene());
        assert!(L2State::SharedLast.can_intervene());
        assert!(L2State::Exclusive.can_intervene());
        assert!(!L2State::Shared.can_intervene());
    }

    #[test]
    fn exclusivity() {
        assert!(L2State::Exclusive.is_exclusive());
        assert!(L2State::Modified.is_exclusive());
        assert!(!L2State::Tagged.is_exclusive());
        assert!(!L2State::SharedLast.is_exclusive());
    }

    #[test]
    fn provider_transitions() {
        assert_eq!(L2State::Modified.after_providing_shared(), L2State::Tagged);
        assert_eq!(L2State::Tagged.after_providing_shared(), L2State::Tagged);
        assert_eq!(L2State::Exclusive.after_providing_shared(), L2State::Shared);
        assert_eq!(
            L2State::SharedLast.after_providing_shared(),
            L2State::Shared
        );
    }

    #[test]
    fn l3_dirty() {
        assert!(L3State::Dirty.is_dirty());
        assert!(!L3State::Clean.is_dirty());
    }

    #[test]
    fn packed_roundtrip() {
        // Every state must survive the packed tag word's bit encoding,
        // within its declared width.
        for s in [
            L2State::Shared,
            L2State::SharedLast,
            L2State::Exclusive,
            L2State::Modified,
            L2State::Tagged,
        ] {
            let bits = s.to_bits();
            assert!(bits < 1 << L2State::BITS, "{s} encoding too wide");
            assert_eq!(L2State::from_bits(bits), s);
        }
        for s in [L3State::Clean, L3State::Dirty] {
            let bits = s.to_bits();
            assert!(bits < 1 << L3State::BITS);
            assert_eq!(L3State::from_bits(bits), s);
        }
    }

    #[test]
    fn display() {
        assert_eq!(L2State::SharedLast.to_string(), "SL");
        assert_eq!(L2State::Tagged.to_string(), "T");
        assert_eq!(L3State::Dirty.to_string(), "D");
    }
}
