//! Frontend layer: thread scheduling and reference processing — L1
//! filtering, L2 lookup, write-back-queue recovery, and MSHR
//! registration. Misses leave this layer as [`TxnState`] bus
//! transactions on the miss path.

use cmpsim_cache::{InsertPosition, LineAddr};
use cmpsim_coherence::{BusTxn, L2Id, L2State, TxnKind, TxnState};
use cmpsim_engine::telemetry::SimEvent;
use cmpsim_engine::Cycle;
use cmpsim_trace::ThreadId;

use crate::policy::CoherenceAction;
use crate::system::system::Ev;
use crate::system::thread::Park;
use crate::system::System;

impl System {
    pub(super) fn handle_thread_step(&mut self, now: Cycle, t: ThreadId) {
        let ti = t.index();
        if self.threads[ti].park == Park::Done {
            return;
        }
        self.threads[ti].park = Park::Running;
        self.threads[ti].next_time = self.threads[ti].next_time.max(now);
        let l2id = self.cfg.l2_of_thread(t);
        let mut processed = 0usize;
        loop {
            if self.threads[ti].stream_done() {
                self.threads[ti].park = Park::Done;
                self.note_possible_completion(now, t);
                return;
            }
            if self.threads[ti].outstanding >= self.cfg.max_outstanding {
                self.threads[ti].park = Park::Outstanding;
                return;
            }
            if processed >= self.cfg.thread_batch {
                let at = self.threads[ti].next_time;
                self.queue.push(at.max(now), Ev::ThreadStep(t));
                return;
            }
            let rec = match self.threads[ti].pending.take() {
                Some(r) => r,
                None => self.workload.next_record(t),
            };
            if !self.process_reference(t, l2id, rec) {
                // Parked on MSHR exhaustion; the record is preserved.
                return;
            }
            processed += 1;
        }
    }

    /// Processes one reference; returns `false` when the thread parked
    /// (record preserved in `pending`).
    fn process_reference(
        &mut self,
        t: ThreadId,
        l2id: L2Id,
        rec: cmpsim_trace::TraceRecord,
    ) -> bool {
        let ti = t.index();
        let i = l2id.index();
        let core = self.cfg.core_of_thread(t);
        let line = rec.addr.line(self.cfg.line_bytes);
        let is_store = rec.op.is_store();
        let t_now = self.threads[ti].next_time;

        // L1 filter (loads only; stores write through).
        if !is_store && !self.l1s.is_empty() && self.l1s[core].load(line) {
            self.stats.l1_hits += 1;
            self.count_ref(ti, is_store);
            return true;
        }

        // L2 lookup.
        let mut resident = self.l2s[i].state_of(line);

        // Write-back queue recovery: the line was evicted recently and is
        // still waiting in our own castout queue — pull it back.
        if resident.is_none()
            && !self.l2s[i].castouts_inflight.contains(&line)
            && self.l2s[i].wbq.contains(line)
        {
            let e = self.l2s[i].wbq.remove(line).expect("entry just seen");
            // While parked in the queue the entry may have served
            // interventions (the queue is snoopable), so peers can hold
            // Shared copies now: a recovered dirty line is then the
            // shared dirty owner (T), and a recovered clean line must
            // not claim a second SL.
            // In-flight fills count as copies: an intervention this
            // queue entry served may still be travelling to its
            // requester, which will install Shared after we recover.
            let peer_copies = (0..self.l2s.len()).any(|j| {
                j != i
                    && (self.l2s[j].state_of(line).is_some()
                        || self.inbound_any(j as u8, line.raw()))
            });
            let st = match (e.dirty, peer_copies) {
                (true, false) => L2State::Modified,
                (true, true) => L2State::Tagged,
                (false, _) => self.sanitize_install(i, line, L2State::SharedLast),
            };
            if let Some((vline, vst)) = self.l2s[i].fill(line, st, InsertPosition::Mru) {
                self.on_l2_eviction(t_now, i, vline, vst);
            }
            self.trace(line, &|| format!("wbq-recovery L2#{i} -> {st}"));
            self.stats.l2[i].wbq_recoveries += 1;
            resident = Some(st);
        }

        match resident {
            Some(st) if !is_store || st.is_writable() => {
                // Plain hit.
                self.l2s[i].touch(line);
                if is_store && st == L2State::Exclusive {
                    self.l2s[i].set_state(line, L2State::Modified);
                }
                self.note_l2_hit(i, core, line, is_store);
                self.count_ref(ti, is_store);
                true
            }
            Some(_) => {
                // Store on a shared copy: the coherence policy decides
                // between the base-protocol Upgrade (invalidate peers)
                // and a write-through-style update.
                if self.policy.adapts_coherence() {
                    let action = self.policy.on_store_to_shared(t_now, line);
                    if let Some(a) = &mut self.audit {
                        a.record_coherence_decision(matches!(
                            action,
                            CoherenceAction::Update { .. }
                        ));
                    }
                    if let CoherenceAction::Update { penalty } = action {
                        // Update-mode store: push the new data to the
                        // sharers instead of invalidating them. Every
                        // copy stays Shared (ownership is untouched);
                        // the store pays the push latency.
                        self.l2s[i].touch(line);
                        self.note_l2_hit(i, core, line, is_store);
                        self.stats.coherence_updates += 1;
                        self.telemetry.emit(t_now, || SimEvent::CoherenceUpdate {
                            l2: i as u32,
                            line: line.raw(),
                        });
                        self.threads[ti].next_time += penalty;
                        self.count_ref(ti, is_store);
                        return true;
                    }
                }
                self.note_l2_hit(i, core, line, is_store);
                self.start_miss(t, l2id, line, TxnKind::Upgrade, rec)
            }
            None => {
                let kind = if is_store {
                    TxnKind::ReadExclusive
                } else {
                    TxnKind::ReadShared
                };
                self.stats.l2[i].misses += 1;
                self.telemetry.emit(t_now, || SimEvent::L2Miss {
                    l2: i as u32,
                    line: line.raw(),
                    store: is_store,
                });
                self.start_miss(t, l2id, line, kind, rec)
            }
        }
    }

    #[inline]
    fn note_l2_hit(&mut self, i: usize, core: usize, line: LineAddr, is_store: bool) {
        self.stats.l2[i].hits += 1;
        if let Some(f) = self.l2s[i].snarfed_lines.get_mut(&line.raw()) {
            if !f.used_locally {
                f.used_locally = true;
                self.stats.snarf.used_locally += 1;
            }
        }
        if !is_store && !self.l1s.is_empty() {
            self.l1s[core].fill(line);
        }
    }

    #[inline]
    fn count_ref(&mut self, ti: usize, is_store: bool) {
        self.threads[ti].issued += 1;
        self.threads[ti].next_time += self.workload.issue_interval();
        self.stats.refs += 1;
        if is_store {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
    }

    /// Registers a miss/upgrade with the MSHRs and issues the bus
    /// transaction for primaries. Returns `false` when parked.
    fn start_miss(
        &mut self,
        t: ThreadId,
        l2id: L2Id,
        line: LineAddr,
        kind: TxnKind,
        rec: cmpsim_trace::TraceRecord,
    ) -> bool {
        let ti = t.index();
        let i = l2id.index();
        let t_now = self.threads[ti].next_time;
        match self.l2s[i].mshrs.allocate(line, t) {
            Err(_) => {
                self.threads[ti].pending = Some(rec);
                self.threads[ti].park = Park::MshrFull;
                self.l2s[i].waiting_threads.push(t);
                false
            }
            Ok(primary) => {
                self.threads[ti].outstanding += 1;
                if primary {
                    let txn = BusTxn::new(self.txn_seq.bump(), kind, line, l2id);
                    self.spans
                        .start(txn.span_id(), txn.span_kind(), i as u32, line.raw(), t_now);
                    self.miss_issue.insert((i as u8, line.raw()), t_now);
                    self.queue.push(
                        (t_now + self.cfg.miss_detect_cycles).max(self.queue.now()),
                        Ev::BusIssue(TxnState::miss(txn)),
                    );
                }
                self.count_ref(ti, rec.op.is_store());
                true
            }
        }
    }

    /// Records a thread's completion time once its stream is consumed
    /// and its outstanding misses drained.
    pub(super) fn note_possible_completion(&mut self, now: Cycle, t: ThreadId) {
        let ti = t.index();
        if self.threads[ti].finished() && self.threads[ti].completed_at.is_none() {
            self.threads[ti].completed_at = Some(now.max(self.threads[ti].next_time));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::policy::PolicyConfig;
    use crate::system::testutil::system;

    #[test]
    fn upgrades_happen_under_rmw_traffic() {
        let mut sys = system(PolicyConfig::baseline());
        let stats = sys.run(2_000);
        assert!(stats.upgrades > 0, "migratory RMW must trigger upgrades");
        assert!(
            stats.fills_from_l2 > 0,
            "RMW lines must migrate via interventions"
        );
        sys.assert_invariants();
    }

    #[test]
    fn run_twice_continues_with_warm_caches() {
        let mut sys = system(PolicyConfig::baseline());
        let cold = sys.run(800);
        let warm = sys.run(800);
        // The second run re-processes the same per-thread budget on the
        // same (monotonic) clock...
        assert_eq!(warm.refs, cold.refs + 800 * 16);
        assert!(warm.cycles > cold.cycles);
        // ...and the warm increment is no slower than the cold run.
        assert!(warm.cycles - cold.cycles <= cold.cycles);
        sys.assert_invariants();
    }
}
