//! The bidirectional intrachip ring interconnect.
//!
//! The modelled CMP connects its L2 caches, the L3 controller and the
//! memory controller "through a point-to-point, bi-directional intrachip
//! ring network" running at half core speed with 32-byte links (paper
//! Table 3). Two logical rings are modelled:
//!
//! * the **address ring** — broadcast medium for coherence transactions:
//!   a transaction arbitrates for an issue slot, propagates to every
//!   agent (shortest direction), each agent snoops, responses flow to
//!   the Snoop Collector, and the combined response is broadcast back;
//! * the **data ring** — point-to-point line transfers with finite
//!   aggregate bandwidth (modelled as `k` concurrent transfer lanes) and
//!   hop-proportional propagation.
//!
//! Contention on either ring is the feedback loop that the paper's
//! Write-Back History Table exploits: eliminating useless clean
//! write-backs frees address slots, data lanes, and L3 queue slots.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ring;
mod topology;

pub use ring::{Ring, RingConfig, RingStats};
pub use topology::RingTopology;
