//! Replacement policy selection.

/// Replacement policy for a [`TagArray`](crate::TagArray): true
/// least-recently-used by per-way recency stamp, the policy of every
/// cache and history table the paper models (its WBHT is explicitly
/// LRU).
///
/// LRU is the only variant. The type and the policy argument of
/// [`TagArray::new`](crate::TagArray::new) and
/// [`TagArray::try_new`](crate::TagArray::try_new) remain only because
/// the benchmark crate (`perfbench/`) passes `ReplacementPolicy::Lru`
/// and changes in its own step; both can go then.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// True least-recently-used via per-way stamps.
    #[default]
    Lru,
}
