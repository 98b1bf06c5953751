//! Adaptive write-back mechanisms for CMP cache hierarchies.
//!
//! This crate is the primary contribution of the reproduced paper —
//! *"Adaptive Mechanisms and Policies for Managing Cache Hierarchies in
//! Chip Multiprocessors"* (Speight, Shafi, Zhang, Rajamony, ISCA 2005) —
//! together with the full CMP system model it is evaluated on:
//!
//! * [`policy`] — the **Write-Back History Table** (WBHT, §2) with its
//!   retry-rate on/off switch and local/global update scopes, and the
//!   **L2-to-L2 snarf mechanism** (§3) with its reuse table;
//! * [`system`] — the modelled CMP of Figure 1: 8 two-way-SMT cores,
//!   private L1s, four sliced L2 caches on a bidirectional intrachip
//!   ring, an off-chip L3 victim cache, and a memory controller;
//! * [`SystemConfig`] — Table 3's parameters (and scaled-down variants);
//! * [`run`] / [`RunSpec`] / [`RunReport`] — one-call simulation runs
//!   over a [`Source`]: a synthetic workload or a recorded trace.
//!
//! # Quickstart
//!
//! ```
//! use cmp_adaptive_wb::{run, RunSpec, SystemConfig, PolicyConfig, WbhtConfig};
//! use cmpsim_trace::Workload;
//!
//! // Baseline vs WBHT on a scaled-down Trade2-like workload.
//! let mut cfg = SystemConfig::scaled(16);
//! cfg.max_outstanding = 6;
//! let base = run(RunSpec::for_workload(cfg.clone(), Workload::Trade2, 2_000))?;
//!
//! cfg.policy = PolicyConfig::wbht(WbhtConfig { entries: 4096, ..Default::default() });
//! let wbht = run(RunSpec::for_workload(cfg, Workload::Trade2, 2_000))?;
//!
//! println!("improvement: {:.1}%", wbht.improvement_over(&base));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod config;
pub mod policy;
mod runner;
pub mod system;

pub use config::{CoreCountError, L1Config, L3Organization, SystemConfig};
pub use policy::{
    HybridConfig, PolicyConfig, RdcbConfig, RetrySwitchConfig, SnarfConfig, UpdateScope, WbhtConfig,
};
pub use runner::{run, RunReport, RunSpec, Source};
pub use system::{
    DecisionAudit, DecisionAuditSummary, InvariantViolation, L2DecisionStats, System, SystemError,
    SystemStats,
};
