//! Discrete-event simulation engine for the CMP cache-hierarchy simulator.
//!
//! This crate provides the domain-agnostic substrate on which the rest of
//! the simulator is built:
//!
//! * a virtual clock measured in [`Cycle`]s,
//! * a deterministic, stable [`EventQueue`] (same-time events pop in push
//!   order),
//! * contention-modelling resources ([`FifoServer`], [`Channel`],
//!   [`SlotPool`]) that turn "this unit is busy" into queueing delay,
//! * a small, fast, deterministic RNG ([`SplitMix64`]) and the LRU
//!   stack-distance sampler the synthetic workloads draw with
//!   ([`StackDistance`]),
//! * online statistics helpers ([`stats`]), and
//! * fast deterministic hashing for internal maps ([`hash`]).
//!
//! # Design
//!
//! The simulator is *event-driven*, not cycle-stepped: components reserve
//! resources with busy-until semantics, so the latency of an operation is
//! its contention-free latency plus whatever queueing the resources
//! impose. Events must be processed in non-decreasing time order for the
//! resource models to be meaningful; [`EventQueue`] guarantees that order.
//!
//! # Example
//!
//! ```
//! use cmpsim_engine::{EventQueue, FifoServer};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! let mut q = EventQueue::new();
//! let mut port = FifoServer::new(4); // 4-cycle service time
//! q.push(10, Ev::Ping(0));
//! q.push(10, Ev::Ping(1));
//! while let Some((now, Ev::Ping(id))) = q.pop() {
//!     let (wait, done) = port.reserve(now); // second ping queues behind the first
//!     println!("ping {id} waits {wait} and completes at {done}");
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
pub mod hash;
mod interval;
pub mod metrics;
pub mod profiler;
pub mod progress;
pub mod queue;
mod resource;
mod rng;
pub mod spans;
pub mod stats;
pub mod stream;
pub mod telemetry;

pub use queue::EventQueue;
pub use resource::{Channel, FifoServer, SlotPool};
pub use rng::{SplitMix64, StackDistance};

/// Virtual time, in processor core cycles.
///
/// All latencies in the simulator are expressed in core cycles; units that
/// run slower than the core (the intrachip ring and the memory controller
/// run at 1:2 core speed in the modelled system) simply use larger cycle
/// counts.
pub type Cycle = u64;
