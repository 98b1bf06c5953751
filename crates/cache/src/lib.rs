//! Generic cache structures for the CMP cache-hierarchy simulator.
//!
//! This crate models the *storage* side of a cache hierarchy, independent
//! of any coherence protocol:
//!
//! * [`Addr`] / [`LineAddr`] — physical addresses and cache-line numbers,
//! * [`CacheGeometry`] / [`SlicedGeometry`] — size/associativity/slicing
//!   math with power-of-two validation,
//! * [`TagArray`] — a set-associative tag array generic over a per-line
//!   state payload, with LRU replacement and predicate-driven victim
//!   selection (used by the snarf mechanism to prefer Invalid, then
//!   Shared victims),
//! * [`MshrFile`] — miss-status holding registers with secondary-miss
//!   merging,
//! * [`WriteBackQueue`] — the bounded per-cache castout queue, and
//! * [`HistoryTable`] — the cache-organized tag table underlying both the
//!   Write-Back History Table and the snarf (reuse) table of the paper.
//!
//! # Example
//!
//! ```
//! use cmpsim_cache::{CacheGeometry, TagArray, ReplacementPolicy, LineAddr, InsertPosition};
//!
//! let geom = CacheGeometry::new(64 * 1024, 8, 128).unwrap();
//! let mut tags: TagArray<u8> = TagArray::new(geom, ReplacementPolicy::Lru);
//! let line = LineAddr::new(0x40);
//! assert!(tags.probe(line).is_none());
//! tags.insert(line, 1, InsertPosition::Mru);
//! assert_eq!(tags.probe(line).map(|(_, s)| s), Some(1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod config;
mod history;
mod mshr;
mod replacement;
mod tag_array;
mod wb_queue;

pub use addr::{Addr, LineAddr};
pub use config::{CacheGeometry, GeometryError, SlicedGeometry};
pub use history::{HistoryStats, HistoryTable};
pub use mshr::{MshrError, MshrFile};
pub use replacement::ReplacementPolicy;
pub use tag_array::{
    packed_fits, Evicted, InsertPosition, PackedLine, PackedState, TagArray, WayIdx,
    PACKED_LINE_ADDR_BITS,
};
pub use wb_queue::{WbEntry, WriteBackQueue};
