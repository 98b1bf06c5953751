//! The CMP system model as a layered coherence pipeline.
//!
//! The [`System`] type in [`system`](self) is a thin orchestrator: it
//! owns all state (caches, ring, queues, policies) and the event loop,
//! and delegates every protocol phase to a focused sibling module. Each
//! phase communicates through the explicit per-transaction state type
//! [`cmpsim_coherence::TxnState`] rather than ad-hoc event payloads.
//!
//! Module map (one module per pipeline layer):
//!
//! | Module       | Layer                                                     |
//! |--------------|-----------------------------------------------------------|
//! | `system`     | Orchestrator: state, construction, event loop, dispatch   |
//! | `frontend`   | Thread issue: reference processing, L1/L2 lookup, MSHRs   |
//! | `bus_issue`  | Miss path: address-ring issue, combined-response handling |
//! | `snoop`      | Snoop window: peer/L3/memory response collection          |
//! | `castout`    | Write-back path: WBQ drain, WBHT filter, castout issue    |
//! | `fill`       | Completion: fills, snarf absorption, invalidations        |
//! | `observe`    | Telemetry wiring, statistics accessors, finalization      |
//! | `audit`      | Decision-quality lineage: verdict recording + resolution  |
//! | `audit_report` | Audit aggregation: summary rates and metrics            |
//! | `invariants` | Typed protocol-invariant checking                         |
//! | `l1`/`l2`    | The cache units themselves                                |
//! | `thread`     | Per-thread issue state                                    |
//! | `stats`      | Counter structs                                           |

mod audit;
mod audit_report;
mod bus_issue;
mod castout;
mod fill;
mod frontend;
mod invariants;
mod l1;
mod l2;
mod observe;
mod snoop;
mod stats;
#[allow(clippy::module_inception)]
mod system;
mod thread;

pub use audit::{DecisionAudit, L2DecisionStats};
pub use audit_report::DecisionAuditSummary;
pub use invariants::InvariantViolation;
pub use l1::L1Cache;
pub use l2::{L2Unit, SnarfFlags};
pub use stats::{L2Stats, SnarfUsage, SystemStats, WbReuse, WbTraffic};
pub use system::{System, SystemError};
pub use thread::{Park, ThreadCtx};

/// Shared fixtures for the phase modules' unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use cmpsim_trace::{SegmentMix, WorkloadParams};

    use crate::config::SystemConfig;
    use crate::policy::PolicyConfig;
    use crate::system::System;

    /// A small 16-thread workload exercising every segment kind.
    pub(crate) fn tiny_workload() -> WorkloadParams {
        WorkloadParams {
            name: "unit".into(),
            line_bytes: 128,
            threads: 16,
            issue_interval: 1,
            mix: SegmentMix {
                private: 0.5,
                bounce: 0.2,
                rotor: 0.1,
                shared: 0.1,
                migratory: 0.05,
                streaming: 0.05,
            },
            private_lines: 64,
            private_theta: 2.0,
            private_store_frac: 0.2,
            bounce_lines: 256,
            bounce_group_threads: 4,
            bounce_cross_frac: 0.2,
            bounce_theta: 1.5,
            bounce_store_frac: 0.1,
            rotor_lines: 128,
            rotor_store_frac: 0.2,
            shared_lines: 64,
            shared_theta: 1.5,
            shared_store_frac: 0.05,
            migratory_lines: 32,
            migratory_rmw_frac: 0.8,
        }
    }

    /// A 1/16-scale system over [`tiny_workload`] with the given policy.
    pub(crate) fn system(policy: PolicyConfig) -> System {
        let mut cfg = SystemConfig::scaled(16);
        cfg.policy = policy;
        cfg.max_outstanding = 4;
        System::new(cfg, tiny_workload()).unwrap()
    }
}
