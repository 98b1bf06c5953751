//! Snoop layer: every agent's reply to an address-ring transaction —
//! peer L2 tag lookups (pipelined through the snoop port), the L3
//! probe, and the memory acknowledgement — collected with the cycle the
//! combined response forms at the Snoop Collector.

use cmpsim_cache::LineAddr;
use cmpsim_coherence::{AgentId, BusTxn, L2Id, L2State, SnoopResponse, TxnKind};
use cmpsim_engine::Cycle;

use crate::system::System;

impl System {
    /// Books an L2's snoop tag port (pipelined: the port is occupied for
    /// `l2_snoop_occupancy`, the full lookup takes `l2_snoop_cycles`).
    pub(super) fn snoop_port(&mut self, j: usize, t_sn: Cycle) -> Cycle {
        let (wait, _) = self.l2s[j].snoop_srv.reserve(t_sn);
        t_sn + wait + self.cfg.l2_snoop_cycles
    }

    /// Peer L2 `j`'s snoop response to a read-class transaction on
    /// `line`.
    pub(super) fn snoop_l2_read(&mut self, j: usize, line: LineAddr) -> SnoopResponse {
        let id = L2Id::new(j as u8);
        // Address collision with a granted, in-flight fill at this
        // peer: ownership is in transit, so the snooped transaction must
        // retry (standard snoop behaviour for MSHR address matches).
        // Ungranted misses do NOT retry — their own bus phase is still
        // pending and will observe whatever this transaction decides.
        if self.inbound_any(j as u8, line.raw()) {
            return SnoopResponse::L2Retry(id);
        }
        match self.l2s[j].state_of(line) {
            Some(L2State::Modified) | Some(L2State::Tagged) => SnoopResponse::DirtyIntervene(id),
            Some(L2State::Exclusive) | Some(L2State::SharedLast) => {
                SnoopResponse::CleanIntervene(id)
            }
            Some(L2State::Shared) => SnoopResponse::SharedNoIntervene(id),
            None => {
                // The write-back queue is snoopable: a line parked there
                // is still this cache's to provide.
                match self.l2s[j].wbq.get(line) {
                    Some(e) if e.dirty => SnoopResponse::DirtyIntervene(id),
                    Some(_) => SnoopResponse::CleanIntervene(id),
                    None => SnoopResponse::Null,
                }
            }
        }
    }

    /// The snoop window of a miss-path transaction: every peer L2, the
    /// L3 (the requester's own in the private organization), and the
    /// memory controller reply; returns the responses and the cycle the
    /// last reply reaches the Snoop Collector.
    pub(super) fn collect_miss_snoops(
        &mut self,
        txn: &BusTxn,
        t_ring: Cycle,
    ) -> (Vec<SnoopResponse>, Cycle) {
        let i = txn.src.index();
        let line = txn.line;
        let src_agent = AgentId::L2(txn.src);
        let mut responses = std::mem::take(&mut self.snoop_scratch);
        responses.clear();
        let mut t_collect: Cycle = self.ring.response_at_collector(t_ring, src_agent);
        for j in 0..self.l2s.len() {
            if j == i {
                continue;
            }
            let agent = AgentId::L2(L2Id::new(j as u8));
            let t_sn = self.ring.snoop_arrival(t_ring, src_agent, agent);
            let t_resp = self.snoop_port(j, t_sn);
            let resp = self.snoop_l2_read(j, line);
            t_collect = t_collect.max(self.ring.response_at_collector(t_resp, agent));
            responses.push(resp);
        }
        // L3 snoop: the shared victim cache, or (private organization)
        // the requester's own L3 — probed at the same point of the
        // address phase over its dedicated bus.
        {
            let t_sn = self.ring.snoop_arrival(t_ring, src_agent, AgentId::L3);
            let snoop_lat = self.cfg.l2_snoop_cycles;
            let resp = if txn.kind == TxnKind::Upgrade {
                SnoopResponse::Null
            } else {
                let k = self.l3_for(i);
                self.l3s[k].snoop_read(t_sn, line)
            };
            let t_resp = t_sn + snoop_lat;
            t_collect = t_collect.max(self.ring.response_at_collector(t_resp, AgentId::L3));
            responses.push(resp);
        }
        // Memory ack.
        {
            let t_sn = self.ring.snoop_arrival(t_ring, src_agent, AgentId::Memory);
            t_collect = t_collect.max(self.ring.response_at_collector(t_sn, AgentId::Memory));
            responses.push(if txn.kind == TxnKind::Upgrade {
                SnoopResponse::Null
            } else {
                SnoopResponse::MemoryAck
            });
        }
        (responses, t_collect)
    }

    /// The snoop window of a castout on the shared ring.
    ///
    /// Every L2 snoops every address transaction (castouts included)
    /// in both the baseline and the snarf protocol — that is how a
    /// snoop-based system works, so the snoop-port cost is identical
    /// and the comparison fair. What the snarf protocol *adds* is the
    /// response: any peer holding the line squashes the write-back
    /// ("if a peer L2 cache snoops a write back request, and the line
    /// is already valid in the peer L2, the actual write back
    /// operation is squashed", §5.2), and for snarf-eligible castouts
    /// (reuse-table hit with the use bit — the gate that limits the
    /// *victim-allocation* work, §3) a peer with a free or
    /// Shared-state way and a free line-fill buffer offers to absorb
    /// the line.
    pub(super) fn collect_castout_snoops(
        &mut self,
        txn: &BusTxn,
        dirty: bool,
        t_ring: Cycle,
    ) -> (Vec<SnoopResponse>, Cycle) {
        let i = txn.src.index();
        let line = txn.line;
        let src_agent = AgentId::L2(txn.src);
        let mut responses = std::mem::take(&mut self.snoop_scratch);
        responses.clear();
        let mut t_collect: Cycle = self.ring.response_at_collector(t_ring, src_agent);
        for j in 0..self.l2s.len() {
            if j == i {
                continue;
            }
            let agent = AgentId::L2(L2Id::new(j as u8));
            let t_sn = self.ring.snoop_arrival(t_ring, src_agent, agent);
            let t_resp = self.snoop_port(j, t_sn);
            let id = L2Id::new(j as u8);
            let resp = if !self.cfg.policy.has_snarf() {
                // Baseline: peers observe castouts but stay silent.
                SnoopResponse::Null
            } else if self.l2s[j].state_of(line).is_some() || self.l2s[j].wbq.contains(line) {
                SnoopResponse::PeerHasCopy(id)
            } else if txn.snarf_eligible
                && self.l2s[j].snarf_victim(line).is_some()
                && self.l2s[j].try_reserve_snarf_buffer(t_sn, line, self.cfg.snarf_buffer_hold)
            {
                SnoopResponse::SnarfAccept(id)
            } else {
                SnoopResponse::Null
            };
            t_collect = t_collect.max(self.ring.response_at_collector(t_resp, agent));
            responses.push(resp);
        }
        // L3 snoop.
        {
            let t_sn = self.ring.snoop_arrival(t_ring, src_agent, AgentId::L3);
            let k = self.l3_for(i);
            let resp = self.l3s[k].snoop_castout(t_sn, line, dirty);
            let t_resp = t_sn + self.cfg.l2_snoop_cycles;
            t_collect = t_collect.max(self.ring.response_at_collector(t_resp, AgentId::L3));
            responses.push(resp);
        }
        (responses, t_collect)
    }
}

#[cfg(test)]
mod tests {
    use crate::policy::PolicyConfig;
    use crate::system::testutil::system;

    #[test]
    fn snoop_port_is_pipelined() {
        let mut sys = system(PolicyConfig::baseline());
        let a = sys.snoop_port(1, 100);
        let b = sys.snoop_port(1, 100);
        // Latency is full for both, but the port only serializes by the
        // initiation interval, not the full lookup.
        assert_eq!(a, 100 + sys.cfg.l2_snoop_cycles);
        assert_eq!(b, a + sys.cfg.l2_snoop_occupancy);
    }
}
