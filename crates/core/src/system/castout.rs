//! Write-back layer: L2 eviction into the snoopable write-back queue,
//! policy filtering at drain time (WBHT, reuse-distance copy-back),
//! castout bus issue (ring or private L3 bus) with one squash/snarf/
//! accept outcome path for both, and redundant-clean-WB accounting.

use cmpsim_cache::LineAddr;
use cmpsim_coherence::{
    AgentId, BusTxn, CombinedResponse, L2Id, L2State, TxnKind, TxnState, WbOutcome,
};
use cmpsim_engine::spans::{SpanOutcome, SpanPhase};
use cmpsim_engine::telemetry::{SimEvent, SquashReason};
use cmpsim_engine::Cycle;

use crate::config::L3Organization;
use crate::policy::{CastoutCtx, CastoutDecision};
use crate::system::system::{Ev, WbLine};
use crate::system::System;

impl System {
    /// One castout bus attempt: accounting, then the address phase (the
    /// snooped ring, or in the private organization the owner's
    /// dedicated bus to its own L3), then the outcome both phases share
    /// (retry, squash, snarf or L3 accept, then retire).
    pub(super) fn bus_issue_castout(&mut self, now: Cycle, state: TxnState, dirty: bool) {
        let TxnState { txn, attempt, .. } = state;
        let i = txn.src.index();
        let line = txn.line;
        let sid = txn.span_id();
        // The entry may have been claimed (RFO) or recovered since the
        // drain picked it.
        if !self.l2s[i].castouts_inflight.contains(&line) || !self.l2s[i].wbq.contains(line) {
            self.spans.finish(sid, SpanOutcome::ResolvedLocal, now);
            self.l2s[i].castouts_inflight.remove(&line);
            self.queue.push(now, Ev::WbDrain(txn.src));
            return;
        }
        // First attempt: the segment since span start is the drain-to-bus
        // issue gap. Retries: back-off queueing.
        if attempt == 0 {
            self.spans.mark(sid, SpanPhase::Issue, now);
            if dirty {
                self.stats.wb.dirty_requests += 1;
            } else {
                self.stats.wb.clean_requests += 1;
            }
            self.stats.wb_reuse.total += 1;
            // New write-back generation: replacing clears any stale
            // accepted mark from an earlier castout of the same line.
            self.wb_lines.replace(WbLine::pending(line));
            let snarf_eligible = txn.snarf_eligible;
            self.telemetry.emit(now, || SimEvent::CastoutIssued {
                l2: i as u32,
                line: line.raw(),
                dirty,
                snarf_eligible,
            });
        } else {
            self.spans.mark(sid, SpanPhase::RetryBackoff, now);
            self.stats.wb.retried_attempts += 1;
        }

        // Address phase: the combined response, the cycle the owner sees
        // it, and the cycle the data reaches the L3 should it accept.
        let k = self.l3_for(i);
        let (combined, t_seen, t_data) = match self.cfg.l3_organization {
            L3Organization::SharedVictim => {
                // Only ring castouts train the snarf table, so a private
                // castout is never snarf-eligible.
                if attempt == 0 {
                    self.policy.on_castout_issued(line);
                }
                let src_agent = AgentId::L2(txn.src);
                let (arb_wait, t_ring) = self.ring.issue_address_timed(now, src_agent);
                self.spans.mark(sid, SpanPhase::RingArb, now + arb_wait);
                self.spans.mark(sid, SpanPhase::RingTransit, t_ring);

                // Snoop phase (squash/snarf responses: see the snoop
                // layer). Wall time here is carved out for
                // `HostStage::Snoop` when the host profiler sampled this
                // dispatch.
                let t_snoop = if self.host_sampling {
                    cmpsim_engine::profiler::now_ticks()
                } else {
                    0
                };
                let (responses, t_collect) = self.collect_castout_snoops(&txn, dirty, t_ring);
                if self.host_sampling {
                    self.host_nested +=
                        cmpsim_engine::profiler::now_ticks().saturating_sub(t_snoop);
                }

                let combined = self.collector.combine(&txn, &responses);
                self.snoop_scratch = responses;
                let t_seen = self.ring.combined_arrival(t_collect, src_agent);
                self.spans.mark(sid, SpanPhase::SnoopWindow, t_seen);
                let mut t_data = t_seen;
                if let CombinedResponse::Wb(outcome) = combined {
                    if txn.snarf_eligible {
                        let winner = match outcome {
                            WbOutcome::SnarfedBy(p) => Some(p.index() as u32),
                            _ => None,
                        };
                        self.policy
                            .on_snarf_arbitration(t_seen, i as u32, line, winner);
                    }
                    if let WbOutcome::AcceptedByL3 { .. } = outcome {
                        // The data follows over the L3 link.
                        t_data = self.l3_links[k].reserve(t_seen).1 + self.cfg.l3_link_delay;
                        self.spans.mark(sid, SpanPhase::DataReturn, t_data);
                    }
                }
                (combined, t_seen, t_data)
            }
            L3Organization::PrivatePerL2 => {
                // §7: no ring address phase and no peer snoops. The
                // dedicated bus carries the data with the address, and
                // the owner's L3 answers alone.
                let arrive = self.l3_links[k].reserve(now).1 + self.cfg.l3_link_delay;
                self.spans.mark(sid, SpanPhase::DataReturn, arrive);
                let resp = self.l3s[k].snoop_castout(arrive, line, dirty);
                (self.collector.combine(&txn, &[resp]), arrive, arrive)
            }
        };

        let outcome = match combined {
            CombinedResponse::Retry { l3_issued } => {
                self.retry_castout(t_seen, l3_issued, state);
                return;
            }
            CombinedResponse::Wb(o) => o,
            other => unreachable!("read response {other:?} to a castout"),
        };

        self.trace(line, &|| {
            format!("castout {} from {} outcome {outcome:?}", txn.kind, txn.src)
        });
        if let Some(a) = &mut self.audit {
            // Terminal outcome for an audited allow verdict: an
            // already-in-L3 squash marks it a missed abort.
            a.resolve_allow(
                i,
                line.raw(),
                matches!(outcome, WbOutcome::SquashedAlreadyInL3),
            );
        }
        match outcome {
            WbOutcome::SquashedAlreadyInL3 => {
                self.spans.finish(sid, SpanOutcome::Squashed, t_seen);
                self.stats.wb.clean_squashed_l3 += 1;
                self.telemetry.emit(t_seen, || SimEvent::CastoutSquashed {
                    l2: i as u32,
                    line: line.raw(),
                    reason: SquashReason::AlreadyInL3,
                });
                self.policy.note_redundant_copy_back(t_seen, txn.src, line);
            }
            WbOutcome::SquashedPeerHasCopy(p) => {
                self.spans.finish(sid, SpanOutcome::Squashed, t_seen);
                self.stats.wb.squashed_peer += 1;
                self.telemetry.emit(t_seen, || SimEvent::CastoutSquashed {
                    l2: i as u32,
                    line: line.raw(),
                    reason: SquashReason::PeerHasCopy,
                });
                if dirty {
                    // Ownership transfer: the peer's clean copy becomes
                    // the dirty owner without a data transfer.
                    let pj = p.index();
                    if let Some(cur) = self.l2s[pj].state_of(line) {
                        if !cur.is_dirty() {
                            self.l2s[pj].set_state(line, L2State::Tagged);
                        }
                    }
                }
            }
            WbOutcome::SnarfedBy(p) => {
                self.stats.wb.snarfed += 1;
                self.telemetry.emit(t_seen, || SimEvent::CastoutSnarfed {
                    l2: i as u32,
                    by: p.index() as u32,
                    line: line.raw(),
                });
                self.inbound_insert(p.index() as u8, line.raw(), Self::INBOUND_SNARF);
                let arrival = self
                    .ring
                    .transfer_data(t_seen, AgentId::L2(txn.src), AgentId::L2(p));
                self.spans.mark(sid, SpanPhase::DataReturn, arrival);
                self.spans.finish(sid, SpanOutcome::Snarfed, arrival);
                self.queue
                    .push(arrival, Ev::SnarfFill { l2: p, line, dirty });
            }
            WbOutcome::AcceptedByL3 { .. } => {
                match self.l3s[k].accept_castout(t_data, line, dirty) {
                    Some((l3_wait, done, victim)) => {
                        self.spans.mark(sid, SpanPhase::L3Queue, t_data + l3_wait);
                        self.spans.mark(sid, SpanPhase::L3Service, done);
                        self.spans.finish(sid, SpanOutcome::AcceptedL3, done);
                        self.stats.wb.accepted_l3 += 1;
                        self.telemetry.emit(t_data, || SimEvent::CastoutAccepted {
                            l2: i as u32,
                            line: line.raw(),
                        });
                        // A demand miss may have taken the entry during
                        // this castout's retries: flag only a pending one.
                        if self.wb_lines.contains(&WbLine::pending(line)) {
                            self.wb_lines.replace(WbLine::accepted(line));
                        }
                        self.stats.wb_reuse.accepted += 1;
                        if let Some(v) = victim {
                            self.mem.write(done, v);
                        }
                    }
                    None => {
                        // Queue filled between snoop and data arrival.
                        self.retry_castout(t_data, true, state);
                        return;
                    }
                }
            }
        }

        // Resolution: retire the entry and continue draining.
        self.l2s[i].wbq.remove(line);
        self.l2s[i].castouts_inflight.remove(&line);
        self.queue.push(t_seen + 1, Ev::WbDrain(txn.src));
    }

    /// Counts a retry of castout attempt `state` at `at` and re-issues
    /// the castout after its back-off.
    fn retry_castout(&mut self, at: Cycle, l3_issued: bool, state: TxnState) {
        self.record_retry(at, l3_issued);
        let retry_at = at + self.retry_delay(&state.txn, state.attempt);
        let next = TxnState {
            attempt: state.attempt + 1,
            ..state
        };
        self.queue.push(retry_at, Ev::BusIssue(next));
    }

    pub(super) fn handle_wb_drain(&mut self, now: Cycle, l2id: L2Id) {
        let i = l2id.index();
        loop {
            if self.l2s[i].castouts_inflight.len() >= self.cfg.castout_inflight_max {
                return;
            }
            // Oldest entry not already on the bus.
            let next = {
                let inflight = &self.l2s[i].castouts_inflight;
                let mut found = None;
                for k in 0.. {
                    // Scan queue order via front-relative probing.
                    let Some(e) = self.l2s[i].wbq.nth(k) else {
                        break;
                    };
                    if !inflight.contains(&e.line) {
                        found = Some(*e);
                        break;
                    }
                }
                found
            };
            let Some(entry) = next else {
                return;
            };
            // Policy filtering: consulted off the miss path, after the
            // victim entered the queue (§2).
            if !entry.dirty && self.policy.filters_clean_castouts() {
                let engaged = self.policy.castout_gate_engaged(now);
                // The oracle peek feeds only an engaged WBHT's
                // correctness count; a disengaged switch or a stack
                // without a WBHT (rdcb alone) skips it.
                let in_l3 = engaged
                    && self.policy.reads_l3_presence()
                    && self.l3s[self.l3_for(i)].peek(entry.line);
                let ctx = CastoutCtx {
                    now,
                    l2: i,
                    line: entry.line,
                    engaged,
                    in_l3,
                };
                let abort = self.policy.on_castout_candidate(&ctx) == CastoutDecision::Abort;
                if let Some(a) = &mut self.audit {
                    a.record_wbht_decision(i, entry.line.raw(), engaged, abort);
                }
                if abort {
                    self.l2s[i].wbq.remove(entry.line);
                    self.stats.wb.clean_aborted += 1;
                    self.telemetry.emit(now, || SimEvent::CastoutAborted {
                        l2: i as u32,
                        line: entry.line.raw(),
                    });
                    continue;
                }
            }
            let eligible = self.policy.snarf_eligible(entry.line);
            let mut txn = BusTxn::new(
                self.txn_seq.bump(),
                if entry.dirty {
                    TxnKind::CastoutDirty
                } else {
                    TxnKind::CastoutClean
                },
                entry.line,
                l2id,
            );
            if eligible {
                txn = txn.with_snarf();
            }
            self.spans.start(
                txn.span_id(),
                txn.span_kind(),
                i as u32,
                entry.line.raw(),
                now,
            );
            self.l2s[i].castouts_inflight.insert(entry.line);
            self.queue
                .push(now + 1, Ev::BusIssue(TxnState::castout(txn, entry.dirty)));
            // Loop: issue more if the concurrency limit allows.
        }
    }

    pub(super) fn on_l2_eviction(&mut self, now: Cycle, i: usize, vline: LineAddr, vst: L2State) {
        self.trace(vline, &|| format!("evict L2#{i} state={vst} -> wbq"));
        self.invalidate_l1s_of(i, vline);
        self.finalize_snarf_flags(i, vline);
        let pushed = self.l2s[i].wbq.push(cmpsim_cache::WbEntry {
            line: vline,
            dirty: vst.is_dirty(),
        });
        debug_assert!(pushed, "wbq overflow despite fill gating");
        if self.l2s[i].castouts_inflight.len() < self.cfg.castout_inflight_max {
            self.queue.push(
                now.max(self.queue.now()) + 1,
                Ev::WbDrain(L2Id::new(i as u8)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use cmpsim_cache::LineAddr;
    use cmpsim_coherence::L2Id;

    use crate::policy::{PolicyConfig, UpdateScope, WbhtConfig};
    use crate::system::testutil::system;

    #[test]
    fn global_scope_notes_redundant_in_every_table() {
        let mut sys = system(PolicyConfig::wbht(WbhtConfig {
            entries: 256,
            assoc: 16,
            scope: UpdateScope::Global,
            granularity: 1,
        }));
        let line = LineAddr::new(16);
        sys.policy.note_redundant_copy_back(0, L2Id::new(0), line);
        for i in 0..sys.l2s.len() {
            assert!(sys.policy.knows_line(i, line));
        }
        // Local scope: only the writer's table.
        let mut sys = system(PolicyConfig::wbht(WbhtConfig {
            entries: 256,
            assoc: 16,
            scope: UpdateScope::Local,
            granularity: 1,
        }));
        sys.policy.note_redundant_copy_back(0, L2Id::new(2), line);
        for i in 0..sys.l2s.len() {
            assert_eq!(sys.policy.knows_line(i, line), i == 2);
        }
    }
}
