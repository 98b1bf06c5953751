//! Memory-reference traces and synthetic commercial workloads.
//!
//! The paper drives its simulator with "L2 cache traffic traces captured
//! on a real SMP machine running the full workloads" — four proprietary
//! IBM commercial workloads (TP, CPW2, NotesBench, Trade2). Those traces
//! are not available, so this crate provides **synthetic workload
//! generators** that reproduce the *statistical properties* the paper's
//! mechanisms respond to:
//!
//! * per-thread private working sets with strong temporal locality,
//! * a chip-wide cyclically-scanned "bounce" set sized relative to the
//!   L2/L3 capacities — this is what produces lines that are repeatedly
//!   evicted from the L2, written back, and missed on again (the
//!   redundant-clean-write-back population of Table 1 and the write-back
//!   reuse of Table 2),
//! * read-mostly shared data (intervention traffic, `Shared` lines that
//!   the snarf mechanism victimizes),
//! * migratory read-modify-write data (dirty interventions, upgrades),
//! * and streaming data (cold misses to memory).
//!
//! Each of the four [`Workload`] presets dials these populations to land in the
//! paper's qualitative band for that workload (see `EXPERIMENTS.md`).
//!
//! The crate also defines the [`TraceRecord`] currency and a compact
//! binary [`mod@file`] format for storing and replaying traces.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod file;
mod presets;
mod record;
mod source;
mod synth;

pub use presets::{CacheScale, Workload};
pub use record::{MemOp, ThreadId, TraceRecord};
pub use source::{ReferenceSource, ThreadOutOfRange, TracePlayback};
pub use synth::{SegmentMix, SyntheticWorkload, WorkloadError, WorkloadParams};
