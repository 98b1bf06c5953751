//! Completion layer: demand fills into the requesting L2 (with install
//! sanitizing and eviction into the write-back queue), snarf-fill
//! absorption at peer L2s, system-wide invalidations, and MSHR / thread
//! wake-up on miss completion.

use std::num::NonZeroU32;

use cmpsim_cache::{InsertPosition, LineAddr};
use cmpsim_coherence::{L2Id, L2State};
use cmpsim_engine::Cycle;

use crate::system::l2::SnarfFlags;
use crate::system::system::Ev;
use crate::system::thread::Park;
use crate::system::System;

impl System {
    pub(super) fn handle_fill(
        &mut self,
        now: Cycle,
        l2id: L2Id,
        line: LineAddr,
        state: L2State,
        blocked_epoch: Option<NonZeroU32>,
    ) {
        let i = l2id.index();
        // A re-poll whose L2 has gained and lost no line since it was
        // last blocked still has its line absent and its set full, so a
        // still-full queue keeps it blocked: skip both tag probes.
        if blocked_epoch == Some(self.l2s[i].epoch()) && self.l2s[i].wbq.is_full() {
            debug_assert!(
                self.l2s[i].state_of(line).is_none() && !self.l2s[i].has_invalid_way(line),
                "re-poll of {line} at {l2id} skipped its probes but is not blocked"
            );
            self.repoll_blocked_fill(now, l2id, line, state);
            return;
        }
        if self.l2s[i].state_of(line).is_some() {
            self.inbound_remove(i as u8, line.raw(), Self::INBOUND_FILL);
            // Upgrade completion, or the line arrived by other means.
            if state == L2State::Modified {
                self.l2s[i].set_state(line, L2State::Modified);
                // Claim any copy that slipped in since the upgrade's
                // combined response.
                self.apply_invalidations(l2id, line, Some(()));
            }
            self.l2s[i].touch(line);
            self.complete_miss(now, l2id, line);
            return;
        }
        // A fill that must evict needs write-back queue space (§2.1:
        // a full queue blocks L2 misses). The inbound-fill marker stays
        // set while the fill is blocked — the line is still in transit
        // and snoops must keep retrying against it.
        if self.l2s[i].wbq.is_full() && !self.l2s[i].has_invalid_way(line) {
            self.repoll_blocked_fill(now, l2id, line, state);
            return;
        }
        self.inbound_remove(i as u8, line.raw(), Self::INBOUND_FILL);
        let state = self.sanitize_install(i, line, state);
        self.trace(line, &|| format!("fill {l2id} install={state}"));
        if state == L2State::Modified {
            // Late-claim any stale copies that slipped in between the
            // combined response and this fill (e.g. a snarf landing).
            self.apply_invalidations(l2id, line, Some(()));
        }
        let evicted = if self.cfg.history_aware_replacement && self.policy.knows_lines() {
            let policy = &self.policy;
            self.l2s[i].fill_history_aware(line, state, InsertPosition::Mru, 4, |l| {
                policy.knows_line(i, l)
            })
        } else {
            self.l2s[i].fill(line, state, InsertPosition::Mru)
        };
        if let Some((vline, vst)) = evicted {
            self.on_l2_eviction(now, i, vline, vst);
        }
        self.complete_miss(now, l2id, line);
    }

    /// Delivers a blocked fill again 8 cycles on, stamped with its L2's
    /// current residency epoch. The re-poll stays an ordinary queued
    /// event so it keeps its FIFO slot within the cycle it lands on.
    fn repoll_blocked_fill(&mut self, now: Cycle, l2: L2Id, line: LineAddr, state: L2State) {
        let epoch = Some(self.l2s[l2.index()].epoch());
        self.queue.push(
            now + 8,
            Ev::Fill {
                l2,
                line,
                state,
                epoch,
            },
        );
    }

    /// Downgrades an install state that a concurrent snarf or fill has
    /// made stale (the combined response was computed before the other
    /// line movement landed). Keeps the E/SL-uniqueness invariants.
    pub(super) fn sanitize_install(&self, i: usize, line: LineAddr, state: L2State) -> L2State {
        if !matches!(state, L2State::Exclusive | L2State::SharedLast) {
            return state;
        }
        let mut peer_any = false;
        let mut peer_intervener = false;
        for (j, l2) in self.l2s.iter().enumerate() {
            if j == i {
                continue;
            }
            if let Some(st) = l2.state_of(line) {
                peer_any = true;
                if st.can_intervene() {
                    peer_intervener = true;
                }
            }
        }
        match state {
            L2State::Exclusive if peer_any => {
                if peer_intervener {
                    L2State::Shared
                } else {
                    L2State::SharedLast
                }
            }
            L2State::SharedLast if peer_intervener => L2State::Shared,
            other => other,
        }
    }

    /// Invalidates `line` in every L2 except `keeper`, in their L1s, in
    /// peer write-back queues (the dirt, if any, has been claimed by the
    /// requester), and in the L3 (unless the L3 already invalidated as
    /// the data source, signalled by `l3_done`).
    pub(super) fn apply_invalidations(
        &mut self,
        keeper: L2Id,
        line: LineAddr,
        l3_done: Option<()>,
    ) {
        for j in 0..self.l2s.len() {
            if j == keeper.index() {
                continue;
            }
            if self.l2s[j].invalidate(line).is_some() {
                self.trace(line, &|| format!("invalidate L2#{j} (keeper {keeper})"));
                self.invalidate_l1s_of(j, line);
                self.finalize_snarf_flags(j, line);
            }
            if self.l2s[j].wbq.remove(line).is_some() {
                // The entry was claimed; if its castout was in flight the
                // pending bus event will notice the mismatch and move on.
                self.l2s[j].castouts_inflight.remove(&line);
            }
        }
        if l3_done.is_none() {
            // Every L3 in the list: a stale copy may sit in any private
            // partition (a previous owner may have cast the line out).
            for l3 in &mut self.l3s {
                l3.invalidate(line);
            }
        }
    }

    pub(super) fn invalidate_l1s_of(&mut self, l2_idx: usize, line: LineAddr) {
        if self.l1s.is_empty() {
            return;
        }
        let cores_per_l2 = self.cfg.cores as usize / self.cfg.num_l2 as usize;
        for c in l2_idx * cores_per_l2..(l2_idx + 1) * cores_per_l2 {
            self.l1s[c].invalidate(line);
        }
    }

    pub(super) fn finalize_snarf_flags(&mut self, l2_idx: usize, line: LineAddr) {
        if let Some(f) = self.l2s[l2_idx].retire_snarf_flags(line) {
            let used = f.used_locally || f.used_for_intervention;
            if let Some(a) = &mut self.audit {
                a.resolve_snarf(l2_idx, line.raw(), used);
            }
        }
    }

    pub(super) fn complete_miss(&mut self, now: Cycle, l2id: L2Id, line: LineAddr) {
        let i = l2id.index();
        if let Some(t0) = self.miss_issue.remove(&(i as u8, line.raw())) {
            self.stats.miss_latency.add(now.saturating_sub(t0));
        }
        let mut waiters = std::mem::take(&mut self.waiter_scratch);
        waiters.clear();
        if !self.l2s[i].mshrs.complete_into(line, &mut waiters) {
            self.waiter_scratch = waiters;
            return;
        }
        for &t in &waiters {
            let ti = t.index();
            self.threads[ti].outstanding = self.threads[ti].outstanding.saturating_sub(1);
            if !self.l1s.is_empty() {
                let core = self.cfg.core_of_thread(t);
                self.l1s[core].fill(line);
            }
            match self.threads[ti].park {
                Park::Outstanding => {
                    self.threads[ti].park = Park::Running;
                    let at = self.threads[ti].next_time.max(now);
                    self.queue.push(at, Ev::ThreadStep(t));
                }
                Park::Done => self.note_possible_completion(now, t),
                _ => {}
            }
        }
        self.waiter_scratch = waiters;
        // An MSHR freed: wake threads blocked on exhaustion.
        let waiting = std::mem::take(&mut self.l2s[i].waiting_threads);
        for t in waiting {
            let ti = t.index();
            if self.threads[ti].park == Park::MshrFull {
                self.threads[ti].park = Park::Running;
                let at = self.threads[ti].next_time.max(now);
                self.queue.push(at, Ev::ThreadStep(t));
            }
        }
    }

    pub(super) fn handle_snarf_fill(
        &mut self,
        now: Cycle,
        l2id: L2Id,
        line: LineAddr,
        dirty: bool,
    ) {
        let i = l2id.index();
        self.inbound_remove(i as u8, line.raw(), Self::INBOUND_SNARF);
        if self.l2s[i].state_of(line).is_some() {
            return;
        }
        // A peer may have re-fetched the line since the castout snooped
        // (combined responses are not atomic with data movement): if so,
        // the snarf is stale — drop clean data, forward dirty to the L3.
        let peer_has_copy = (0..self.l2s.len()).any(|j| {
            j != i
                && (self.l2s[j].state_of(line).is_some()
                    || self.l2s[j].wbq.contains(line)
                    || self.inbound_has(j as u8, line.raw(), Self::INBOUND_FILL))
        });
        match (!peer_has_copy)
            .then(|| self.l2s[i].snarf_victim(line))
            .flatten()
        {
            Some(way) => {
                let st = if dirty {
                    L2State::Modified
                } else {
                    L2State::SharedLast
                };
                let displaced = if let Some((vline, vst)) =
                    self.l2s[i].snarf_insert(line, way, st, self.policy.snarf_insert_pos())
                {
                    // Victims are Invalid or plain Shared: droppable.
                    debug_assert!(!vst.is_dirty(), "snarf displaced dirty line");
                    self.invalidate_l1s_of(i, vline);
                    self.finalize_snarf_flags(i, vline);
                    true
                } else {
                    false
                };
                if let Some(a) = &mut self.audit {
                    a.record_snarf(i, line.raw(), displaced);
                }
                self.trace(line, &|| format!("snarf-fill L2#{i}"));
                self.l2s[i]
                    .snarfed_lines
                    .insert(line.raw(), SnarfFlags::default());
                self.stats.snarf.snarfed += 1;
                self.stats.l2[i].snarfs_accepted += 1;
            }
            None => {
                // Resources changed since the snoop; fall back to the L3
                // (dirty data must not be dropped).
                if dirty {
                    let k = self.l3_for(i);
                    match self.l3s[k].accept_castout(now, line, true) {
                        Some((_, done, victim)) => {
                            if let Some(v) = victim {
                                self.mem.write(done, v);
                            }
                        }
                        None => {
                            self.mem.write(now, line);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use cmpsim_cache::{InsertPosition, LineAddr, WbEntry};
    use cmpsim_coherence::{L2Id, L2State};

    use crate::policy::PolicyConfig;
    use crate::system::system::Ev;
    use crate::system::testutil::system;
    use crate::system::System;

    /// A system whose L2#0 holds a full set and a full write-back queue,
    /// with a fill into that set blocked behind both. Returns the system,
    /// the set's resident lines and the blocked line.
    fn blocked_fill() -> (System, Vec<LineAddr>, LineAddr) {
        let mut sys = system(PolicyConfig::baseline());
        let cfg = sys.cfg.clone();
        let sets = cfg.l2_slice_bytes / cfg.line_bytes / cfg.l2_assoc;
        let stride = cfg.l2_slices * sets; // same slice, same set
        let set: Vec<_> = (0..cfg.l2_assoc)
            .map(|k| LineAddr::new(8 + k * stride))
            .collect();
        for &l in &set {
            sys.l2s[0].fill(l, L2State::Shared, InsertPosition::Mru);
        }
        for k in 0..cfg.wbq_len as u64 {
            let line = LineAddr::new(1 + k * stride);
            assert!(sys.l2s[0].wbq.push(WbEntry { line, dirty: false }));
        }
        let line = LineAddr::new(8 + cfg.l2_assoc * stride);
        sys.handle_fill(0, L2Id::new(0), line, L2State::Exclusive, None);
        assert_eq!(sys.l2s[0].state_of(line), None, "the fill must block");
        (sys, set, line)
    }

    /// Pops the next event, which must be a re-poll of `line`, checks
    /// that its stamp differs from L2#0's epoch exactly when
    /// `epoch_moved`, and delivers it.
    fn deliver_repoll(sys: &mut System, line: LineAddr, epoch_moved: bool) {
        let (now, ev) = sys.queue.pop().expect("a re-poll is queued");
        let Ev::Fill {
            l2,
            line: l,
            state,
            epoch,
        } = ev
        else {
            panic!("expected a fill re-poll, got {ev:?}");
        };
        assert_eq!(l, line);
        assert_eq!(epoch == Some(sys.l2s[0].epoch()), !epoch_moved);
        sys.handle_fill(now, l2, l, state, epoch);
    }

    #[test]
    fn blocked_fill_installs_on_the_first_repoll_after_the_queue_drains() {
        let (mut sys, set, line) = blocked_fill();
        // Nothing changed: the re-poll blocks again on the epoch alone.
        deliver_repoll(&mut sys, line, false);
        assert_eq!(sys.l2s[0].state_of(line), None);
        sys.l2s[0].wbq.pop();
        deliver_repoll(&mut sys, line, false);
        assert!(sys.l2s[0].state_of(line).is_some());
        // The LRU line went to the freed queue slot.
        assert_eq!(sys.l2s[0].state_of(set[0]), None);
        assert!(sys.l2s[0].wbq.contains(set[0]));
    }

    #[test]
    fn blocked_fill_installs_on_the_first_repoll_after_its_set_loses_a_line() {
        let (mut sys, set, line) = blocked_fill();
        deliver_repoll(&mut sys, line, false);
        // The queue stays full; only the epoch tells the re-poll to look.
        assert!(sys.l2s[0].invalidate(set[1]).is_some());
        assert!(sys.l2s[0].wbq.is_full());
        deliver_repoll(&mut sys, line, true);
        assert!(sys.l2s[0].state_of(line).is_some());
        assert!(set
            .iter()
            .enumerate()
            .all(|(k, &l)| sys.l2s[0].state_of(l).is_some() == (k != 1)));
    }

    #[test]
    fn sanitize_demotes_exclusive_against_peers() {
        let mut sys = system(PolicyConfig::baseline());
        let line = LineAddr::new(100);
        sys.l2s[0].fill(line, L2State::SharedLast, InsertPosition::Mru);
        // Installing E at L2#1 while L2#0 holds an intervener: demote to S.
        assert_eq!(
            sys.sanitize_install(1, line, L2State::Exclusive),
            L2State::Shared
        );
        // SL against an SL holder also demotes.
        assert_eq!(
            sys.sanitize_install(1, line, L2State::SharedLast),
            L2State::Shared
        );
        // Against a plain-S holder, E demotes to SL (keeps intervention).
        sys.l2s[0].set_state(line, L2State::Shared);
        assert_eq!(
            sys.sanitize_install(1, line, L2State::Exclusive),
            L2State::SharedLast
        );
        // With no peers at all, E survives.
        sys.l2s[0].invalidate(line);
        assert_eq!(
            sys.sanitize_install(1, line, L2State::Exclusive),
            L2State::Exclusive
        );
    }

    #[test]
    fn apply_invalidations_clears_tags_queues_and_l1s() {
        let mut sys = system(PolicyConfig::baseline());
        let line = LineAddr::new(64);
        sys.l2s[1].fill(line, L2State::Shared, InsertPosition::Mru);
        sys.l2s[2]
            .wbq
            .push(cmpsim_cache::WbEntry { line, dirty: false });
        sys.l1s[2].fill(line); // core 2 belongs to L2#1
        sys.apply_invalidations(L2Id::new(0), line, None);
        assert_eq!(sys.l2s[1].state_of(line), None);
        assert!(!sys.l2s[2].wbq.contains(line));
        assert!(!sys.l1s[2].load(line));
        assert!(!sys.l3().peek(line));
    }
}
