//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment module corresponds to one table or figure of §5 of
//! *"Adaptive Mechanisms and Policies for Managing Cache Hierarchies in
//! Chip Multiprocessors"* and prints output in the same shape as the
//! paper reports it. The `exp` binary runs one experiment by id
//! (`exp fig2`) or everything (`exp all`, the source of
//! `EXPERIMENTS.md`); ids come from [`experiments::all`].
//!
//! Experiments run at a [`Profile`]-selected scale: `quick` (default)
//! uses a capacity-scaled hierarchy and short streams; `full` uses the
//! paper's full 8 MB L2 / 16 MB L3 geometry with longer streams. Select
//! with the `CMPSIM_PROFILE` environment variable.

pub mod cli;
pub mod experiments;
mod profile;
mod table;

pub use profile::{effective_jobs, parallel_runs, run_grid, set_jobs, Profile};
pub use table::Table;
