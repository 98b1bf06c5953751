//! Property-based tests for ring topology and timing invariants.

use cmpsim_coherence::{AgentId, L2Id};
use cmpsim_ring::{Ring, RingConfig, RingTopology};
use proptest::prelude::*;

fn agents(n: u8) -> Vec<AgentId> {
    let t = RingTopology::standard_cmp(n, 2);
    t.agents().to_vec()
}

proptest! {
    /// Hop distances are symmetric, bounded by half the ring, and zero
    /// only on the diagonal.
    #[test]
    fn hops_metric(n in 1u8..8, ai in 0usize..16, bi in 0usize..16) {
        let ags = agents(n);
        let a = ags[ai % ags.len()];
        let b = ags[bi % ags.len()];
        let topo = RingTopology::standard_cmp(n, 2);
        prop_assert_eq!(topo.hops(a, b), topo.hops(b, a));
        prop_assert!(topo.hops(a, b) <= (ags.len() / 2) as u64);
        prop_assert_eq!(topo.hops(a, b) == 0, a == b);
    }

    /// Address-ring issue times are strictly increasing for back-to-back
    /// requests and never precede the request.
    #[test]
    fn address_issue_monotone(times in proptest::collection::vec(0u64..10_000, 1..50)) {
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let mut ring = Ring::new(RingTopology::standard_cmp(4, 2), RingConfig::default());
        let src = AgentId::L2(L2Id::new(0));
        let mut prev = 0;
        for &t in &sorted {
            let issued = ring.issue_address(t, src);
            prop_assert!(issued >= t);
            prop_assert!(issued > prev || prev == 0);
            prev = issued;
        }
        prop_assert_eq!(ring.stats().addr_issued, sorted.len() as u64);
    }

    /// Data transfers are never faster than occupancy + propagation and
    /// the channel never reorders a single source-destination pair's
    /// completions.
    #[test]
    fn data_transfer_floor(times in proptest::collection::vec(0u64..5_000, 1..40)) {
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let cfg = RingConfig::default();
        let topo = RingTopology::standard_cmp(4, 2);
        let src = AgentId::L3;
        let dst = AgentId::L2(L2Id::new(0));
        let prop_delay = topo.prop(src, dst);
        let mut ring = Ring::new(topo, cfg);
        let mut prev = 0;
        for &t in &sorted {
            let done = ring.transfer_data(t, src, dst);
            prop_assert!(done >= t + cfg.data_occupancy + prop_delay);
            prop_assert!(done >= prev);
            prev = done;
        }
    }
}
