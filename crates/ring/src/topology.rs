//! Ring topology: agent placement and hop distances.

use cmpsim_coherence::AgentId;
use cmpsim_engine::Cycle;

/// Placement of coherence agents around the bidirectional ring.
///
/// Messages travel the shortest direction, so the effective distance
/// between two agents is `min(clockwise, counterclockwise)` hops.
///
/// # Example
///
/// ```
/// use cmpsim_ring::RingTopology;
/// use cmpsim_coherence::{AgentId, L2Id};
///
/// let topo = RingTopology::standard_cmp(4, 2);
/// let a = AgentId::L2(L2Id::new(0));
/// let b = AgentId::L2(L2Id::new(3));
/// assert!(topo.hops(a, b) <= topo.num_agents() as u64 / 2);
/// assert_eq!(topo.hops(a, a), 0);
/// ```
#[derive(Debug, Clone)]
pub struct RingTopology {
    agents: Vec<AgentId>,
    hop_cycles: Cycle,
    collector: AgentId,
    /// Ring position by dense agent id (see [`Self::dense`]),
    /// `u32::MAX` for agents not on the ring. Precomputed so the
    /// per-message [`hops`](Self::hops) lookup is O(1) instead of a
    /// linear scan of `agents`.
    positions: Vec<u32>,
}

impl RingTopology {
    /// Creates a topology from an explicit agent ordering.
    ///
    /// `collector` is the agent co-located with the Snoop Collector.
    ///
    /// # Panics
    ///
    /// Panics if `agents` is empty, contains duplicates, or does not
    /// contain `collector`.
    pub fn new(agents: Vec<AgentId>, hop_cycles: Cycle, collector: AgentId) -> Self {
        assert!(!agents.is_empty(), "ring needs at least one agent");
        for (i, a) in agents.iter().enumerate() {
            assert!(!agents[..i].contains(a), "duplicate agent {a} on the ring");
        }
        assert!(
            agents.contains(&collector),
            "collector {collector} not on the ring"
        );
        let mut positions = vec![u32::MAX; Self::DENSE_IDS];
        for (i, &a) in agents.iter().enumerate() {
            positions[Self::dense(a)] = i as u32;
        }
        RingTopology {
            agents,
            hop_cycles,
            collector,
            positions,
        }
    }

    /// Dense index space for [`AgentId`]: the 256 possible L2s, then L3,
    /// then Memory.
    const DENSE_IDS: usize = 258;

    #[inline]
    fn dense(a: AgentId) -> usize {
        match a {
            AgentId::L2(id) => id.index(),
            AgentId::L3 => 256,
            AgentId::Memory => 257,
        }
    }

    /// The standard modelled CMP: `num_l2` L2 caches interleaved with the
    /// L3 controller and the memory controller, Snoop Collector at the
    /// L3 controller (the chip's centre in Figure 1 of the paper).
    pub fn standard_cmp(num_l2: u8, hop_cycles: Cycle) -> Self {
        use cmpsim_coherence::L2Id;
        let mut agents = Vec::new();
        let half = num_l2.div_ceil(2);
        for i in 0..half {
            agents.push(AgentId::L2(L2Id::new(i)));
        }
        agents.push(AgentId::L3);
        for i in half..num_l2 {
            agents.push(AgentId::L2(L2Id::new(i)));
        }
        agents.push(AgentId::Memory);
        RingTopology::new(agents, hop_cycles, AgentId::L3)
    }

    /// All agents, in ring order.
    pub fn agents(&self) -> &[AgentId] {
        &self.agents
    }

    /// Number of agents on the ring.
    pub fn num_agents(&self) -> usize {
        self.agents.len()
    }

    /// The agent hosting the Snoop Collector.
    pub fn collector(&self) -> AgentId {
        self.collector
    }

    /// Ring position of an agent.
    ///
    /// # Panics
    ///
    /// Panics if the agent is not on the ring.
    #[inline]
    pub fn position(&self, a: AgentId) -> usize {
        let p = self.positions[Self::dense(a)];
        if p == u32::MAX {
            panic!("agent {a} not on ring");
        }
        p as usize
    }

    /// Shortest-direction hop count between two agents.
    #[inline]
    pub fn hops(&self, a: AgentId, b: AgentId) -> u64 {
        let n = self.agents.len();
        let pa = self.position(a);
        let pb = self.position(b);
        let d = pa.abs_diff(pb);
        d.min(n - d) as u64
    }

    /// Propagation latency (in core cycles) between two agents.
    #[inline]
    pub fn prop(&self, a: AgentId, b: AgentId) -> Cycle {
        self.hops(a, b) * self.hop_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_coherence::L2Id;

    #[test]
    fn standard_cmp_layout() {
        let t = RingTopology::standard_cmp(4, 2);
        assert_eq!(t.num_agents(), 6);
        assert_eq!(t.collector(), AgentId::L3);
        // L3 sits between the two L2 pairs.
        assert_eq!(t.position(AgentId::L3), 2);
    }

    #[test]
    fn hops_symmetric_and_shortest() {
        let t = RingTopology::standard_cmp(4, 2);
        let a = AgentId::L2(L2Id::new(0));
        let m = AgentId::Memory;
        assert_eq!(t.hops(a, m), t.hops(m, a));
        // Position 0 to position 5 wraps: 1 hop, not 5.
        assert_eq!(t.hops(a, m), 1);
    }

    #[test]
    fn prop_scales_with_hop_cycles() {
        let t = RingTopology::standard_cmp(4, 3);
        let a = AgentId::L2(L2Id::new(0));
        let b = AgentId::L3;
        assert_eq!(t.prop(a, b), t.hops(a, b) * 3);
        assert_eq!(t.prop(a, a), 0);
    }

    #[test]
    fn odd_l2_count_supported() {
        let t = RingTopology::standard_cmp(3, 2);
        assert_eq!(t.num_agents(), 5);
        for i in 0..3 {
            t.position(AgentId::L2(L2Id::new(i))); // must not panic
        }
    }

    #[test]
    #[should_panic(expected = "duplicate agent")]
    fn duplicate_agents_panic() {
        let _ = RingTopology::new(vec![AgentId::L3, AgentId::L3], 2, AgentId::L3);
    }

    #[test]
    #[should_panic(expected = "not on the ring")]
    fn collector_must_be_on_ring() {
        let _ = RingTopology::new(vec![AgentId::L3], 2, AgentId::Memory);
    }

    #[test]
    #[should_panic(expected = "not on ring")]
    fn position_of_foreign_agent_panics() {
        let t = RingTopology::new(vec![AgentId::L3], 2, AgentId::L3);
        t.position(AgentId::Memory);
    }
}
