//! Bus-issue layer of the miss path: revalidation against state changes
//! since miss detection, address-ring arbitration, combined-response
//! handling, and data-source timing for fills. Castout transactions are
//! routed to the write-back layer ([`castout`](super::castout)).

use cmpsim_coherence::{
    AgentId, BusTxn, CombinedResponse, DataSource, L2State, TxnKind, TxnPath, TxnState,
};
use cmpsim_engine::spans::{SpanOutcome, SpanPhase};
use cmpsim_engine::telemetry::SimEvent;
use cmpsim_engine::Cycle;

use crate::policy::ResponseCtx;
use crate::system::system::{Ev, WbLine};
use crate::system::System;

impl System {
    /// Routes a bus transaction to its protocol path.
    pub(super) fn handle_bus_issue(&mut self, now: Cycle, state: TxnState) {
        match state.path {
            TxnPath::Miss => self.bus_issue_miss(now, state),
            TxnPath::Castout { dirty } => self.bus_issue_castout(now, state, dirty),
        }
    }

    fn bus_issue_miss(&mut self, now: Cycle, state: TxnState) {
        let TxnState {
            mut txn, attempt, ..
        } = state;
        let i = txn.src.index();
        let line = txn.line;
        let sid = txn.span_id();
        // First attempt: the segment since span start is the miss-detect
        // / MSHR window. Retries: the segment since the combined response
        // is back-off queueing.
        if attempt == 0 {
            self.spans.mark(sid, SpanPhase::MshrAlloc, now);
        } else {
            self.spans.mark(sid, SpanPhase::RetryBackoff, now);
        }
        // Revalidate against state changes since the miss was detected
        // (snarfs, peer castout squashes, races during retries).
        let st = self.l2s[i].state_of(line);
        match (txn.kind, st) {
            (TxnKind::Upgrade, None) => txn.kind = TxnKind::ReadExclusive,
            (TxnKind::Upgrade, Some(s)) if s.is_writable() => {
                // Already exclusive (e.g. peers vanished): done.
                self.spans.finish(sid, SpanOutcome::ResolvedLocal, now);
                self.queue.push(
                    now,
                    Ev::Fill {
                        l2: txn.src,
                        line,
                        state: L2State::Modified,
                        epoch: None,
                    },
                );
                return;
            }
            (TxnKind::ReadShared, Some(_)) => {
                // The line arrived by other means (snarf): hit.
                self.spans.finish(sid, SpanOutcome::ResolvedLocal, now);
                self.queue.push(
                    now,
                    Ev::Fill {
                        l2: txn.src,
                        line,
                        state: st.expect("present"),
                        epoch: None,
                    },
                );
                return;
            }
            (TxnKind::ReadExclusive, Some(s)) => {
                if s.is_writable() {
                    self.spans.finish(sid, SpanOutcome::ResolvedLocal, now);
                    self.queue.push(
                        now,
                        Ev::Fill {
                            l2: txn.src,
                            line,
                            state: L2State::Modified,
                            epoch: None,
                        },
                    );
                    return;
                }
                txn.kind = TxnKind::Upgrade;
            }
            _ => {}
        }

        let src_agent = AgentId::L2(txn.src);
        let (arb_wait, t_ring) = self.ring.issue_address_timed(now, src_agent);
        self.spans.mark(sid, SpanPhase::RingArb, now + arb_wait);
        self.spans.mark(sid, SpanPhase::RingTransit, t_ring);

        // Snoop phase. When the host profiler sampled this dispatch, the
        // snoop window's wall time is carved out of the enclosing stage
        // and billed to `HostStage::Snoop` by the event loop.
        let t_snoop = if self.host_sampling {
            cmpsim_engine::profiler::now_ticks()
        } else {
            0
        };
        let (responses, t_collect) = self.collect_miss_snoops(&txn, t_ring);
        if self.host_sampling {
            self.host_nested += cmpsim_engine::profiler::now_ticks().saturating_sub(t_snoop);
        }

        let combined = self.collector.combine(&txn, &responses);
        self.snoop_scratch = responses;
        let t_seen = self.ring.combined_arrival(t_collect, src_agent);

        match combined {
            CombinedResponse::Retry { l3_issued } => {
                self.spans.mark(sid, SpanPhase::SnoopWindow, t_seen);
                self.record_retry(t_seen, l3_issued);
                self.queue.push(
                    t_seen + self.retry_delay(&txn, attempt),
                    Ev::BusIssue(TxnState {
                        txn,
                        path: TxnPath::Miss,
                        attempt: attempt + 1,
                    }),
                );
            }
            CombinedResponse::UpgradeOk => {
                self.trace(line, &|| format!("upgrade-ok {}", txn.src));
                self.spans.mark(sid, SpanPhase::SnoopWindow, t_seen);
                self.spans.finish(sid, SpanOutcome::Upgraded, t_seen);
                self.stats.upgrades += 1;
                self.apply_invalidations(txn.src, line, None);
                self.inbound_insert(txn.src.index() as u8, line.raw(), Self::INBOUND_FILL);
                self.queue.push(
                    t_seen,
                    Ev::Fill {
                        l2: txn.src,
                        line,
                        state: L2State::Modified,
                        epoch: None,
                    },
                );
            }
            CombinedResponse::Read { source, sharers } => {
                self.apply_read(t_collect, t_seen, &txn, source, sharers);
            }
            CombinedResponse::Wb(_) => unreachable!("castout response to a read"),
        }
    }

    fn apply_read(
        &mut self,
        t_collect: Cycle,
        t_seen: Cycle,
        txn: &BusTxn,
        source: DataSource,
        sharers: bool,
    ) {
        let line = txn.line;
        let src_agent = AgentId::L2(txn.src);

        // Reuse bookkeeping: this is a demand miss on the line; one set
        // removal answers both "was a write-back pending" and "had the
        // L3 accepted it".
        if let Some(entry) = self.wb_lines.take(&WbLine::pending(line)) {
            self.stats.wb_reuse.reused_total += 1;
            if entry.is_accepted() {
                self.stats.wb_reuse.reused_accepted += 1;
            }
        }
        self.policy.observe_combined_response(&ResponseCtx {
            now: t_seen,
            l2: txn.src.index(),
            line,
        });

        self.trace(line, &|| {
            format!(
                "grant {} src={:?} sharers={sharers} for {}",
                txn.kind, source, txn.src
            )
        });
        let install = match (txn.kind, source) {
            (TxnKind::ReadExclusive, _) => L2State::Modified,
            (_, DataSource::L2 { dirty: true, .. }) => L2State::Shared,
            (_, DataSource::L2 { dirty: false, .. }) => L2State::SharedLast,
            (_, DataSource::L3 { .. }) => {
                if sharers {
                    L2State::Shared
                } else {
                    L2State::SharedLast
                }
            }
            (_, DataSource::Memory) => {
                if sharers {
                    L2State::Shared
                } else {
                    L2State::Exclusive
                }
            }
        };

        let sid = txn.span_id();
        let arrival = match source {
            DataSource::L2 { provider, dirty: _ } => {
                let p = provider.index();
                self.stats.fills_from_l2 += 1;
                self.stats.l2[p].interventions_provided += 1;
                if let Some(f) = self.l2s[p].snarfed_lines.get_mut(&line.raw()) {
                    if !f.used_for_intervention {
                        f.used_for_intervention = true;
                        self.stats.snarf.used_for_intervention += 1;
                    }
                }
                // Provider-side state transition.
                if txn.kind == TxnKind::ReadShared {
                    if let Some(cur) = self.l2s[p].state_of(line) {
                        self.l2s[p].set_state(line, cur.after_providing_shared());
                    }
                }
                let p_agent = AgentId::L2(provider);
                let t_seen_p = self.ring.combined_arrival(t_collect, p_agent);
                self.spans.mark(sid, SpanPhase::SnoopWindow, t_seen_p);
                let (p_wait, t_data) = self.l2s[p].array_srv.reserve(t_seen_p);
                self.spans
                    .mark(sid, SpanPhase::PeerQueue, t_seen_p + p_wait);
                self.spans.mark(sid, SpanPhase::PeerService, t_data);
                self.ring.transfer_data(t_data, p_agent, src_agent)
            }
            DataSource::L3 { .. } => {
                self.stats.fills_from_l3 += 1;
                let t_seen_l3 = self.ring.combined_arrival(t_collect, AgentId::L3);
                self.spans.mark(sid, SpanPhase::SnoopWindow, t_seen_l3);
                let invalidate = txn.kind == TxnKind::ReadExclusive;
                let k = self.l3_for(txn.src.index());
                let (l3_wait, ready, _st) = self.l3s[k].provide_read(t_seen_l3, line, invalidate);
                self.spans
                    .mark(sid, SpanPhase::L3Queue, t_seen_l3 + l3_wait);
                self.spans.mark(sid, SpanPhase::L3Service, ready);
                self.l3_links[k].reserve(ready).1 + self.cfg.l3_link_delay
            }
            DataSource::Memory => {
                self.stats.fills_from_memory += 1;
                let t_seen_m = self.ring.combined_arrival(t_collect, AgentId::Memory);
                self.spans.mark(sid, SpanPhase::SnoopWindow, t_seen_m);
                let (bank_wait, ready) = self.mem.read(t_seen_m, line);
                self.spans
                    .mark(sid, SpanPhase::MemQueue, t_seen_m + bank_wait);
                self.spans.mark(sid, SpanPhase::MemService, ready);
                self.mem_link.reserve(ready).1 + self.cfg.mem_link_delay
            }
        };

        if txn.kind == TxnKind::ReadExclusive {
            let skip_l3 = matches!(source, DataSource::L3 { .. });
            self.apply_invalidations(txn.src, line, skip_l3.then_some(()));
        }

        self.inbound_insert(txn.src.index() as u8, line.raw(), Self::INBOUND_FILL);
        let t_fill = arrival.max(t_seen);
        self.spans.mark(sid, SpanPhase::DataReturn, t_fill);
        self.spans
            .finish(sid, SpanOutcome::Filled(source.fill_source()), t_fill);
        if let Some(a) = &mut self.audit {
            // A demand re-miss on a WBHT-aborted line resolves the
            // pending verdict: memory escalation is a mispredict, charged
            // the measured fill latency; an L3/peer fill proves the
            // dropped write-back redundant.
            let latency = self
                .miss_issue
                .get(&(txn.src.index() as u8, line.raw()))
                .map_or(0, |&t0| t_fill.saturating_sub(t0));
            a.resolve_abort(line.raw(), matches!(source, DataSource::Memory), latency);
        }
        if self.telemetry.is_enabled() {
            let l2 = txn.src.index() as u32;
            let latency = self
                .miss_issue
                .get(&(txn.src.index() as u8, line.raw()))
                .map_or(0, |&t0| t_fill.saturating_sub(t0));
            self.telemetry.emit(t_fill, || SimEvent::L2Fill {
                l2,
                line: line.raw(),
                source: source.fill_source(),
                latency,
            });
        }
        self.queue.push(
            t_fill,
            Ev::Fill {
                l2: txn.src,
                line,
                state: install,
                epoch: None,
            },
        );
    }

    /// Retry back-off with deterministic per-transaction jitter so
    /// rejected transactions do not return in lockstep storms. The
    /// jitter is a pure hash of `(transaction id, attempt)`, so identical
    /// specs replay identical back-off sequences (the determinism the
    /// golden traces and the parallel grid rely on).
    pub(super) fn retry_delay(&self, txn: &BusTxn, attempt: u32) -> Cycle {
        let base = self.cfg.retry_backoff;
        let jitter = txn
            .id
            .raw()
            .wrapping_mul(7)
            .wrapping_add(attempt as u64 * 13)
            % base.max(1);
        base + jitter
    }

    pub(super) fn record_retry(&mut self, now: Cycle, l3_issued: bool) {
        self.stats.retries_total += 1;
        if l3_issued {
            self.stats.retries_l3 += 1;
        }
        self.policy.record_retry(now);
    }
}

#[cfg(test)]
mod tests {
    use cmpsim_cache::LineAddr;
    use cmpsim_coherence::{BusTxn, L2Id, TxnId, TxnKind};

    use crate::policy::PolicyConfig;
    use crate::system::testutil::system;

    #[test]
    fn retry_delay_is_jittered_and_bounded() {
        let sys = system(PolicyConfig::baseline());
        let mut txn_seq = TxnId::ZERO;
        let base = sys.cfg.retry_backoff;
        let mut delays = std::collections::HashSet::new();
        for attempt in 0..8 {
            let txn = BusTxn::new(
                txn_seq.bump(),
                TxnKind::ReadShared,
                LineAddr::new(4),
                L2Id::new(0),
            );
            let d = sys.retry_delay(&txn, attempt);
            assert!(
                d >= base && d < 2 * base,
                "delay {d} out of [{base}, {})",
                2 * base
            );
            delays.insert(d);
        }
        assert!(delays.len() > 1, "no jitter across transactions");
    }
}
