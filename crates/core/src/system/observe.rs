//! Observation layer: telemetry and span-tracer wiring, interval
//! sampling, statistics accessors for tests/tools, and end-of-run
//! statistics finalization.

use cmpsim_cache::LineAddr;
use cmpsim_coherence::L2State;
use cmpsim_engine::profiler::{HostGauges, HostProfiler};
use cmpsim_engine::progress::ProgressMeter;
use cmpsim_engine::spans::SpanTracer;
use cmpsim_engine::stream::TelemetryStream;
use cmpsim_engine::telemetry::{IntervalRecord, IntervalSampler, SimEvent, Telemetry};
use cmpsim_engine::Cycle;
use cmpsim_mem::{L3Cache, MemoryController};

use crate::system::audit::DecisionAudit;
use crate::system::audit_report::DecisionAuditSummary;
use crate::system::stats::SystemStats;
use crate::system::System;

impl System {
    /// Attaches an event-trace handle and propagates clones of it to
    /// every instrumented component (L2s, the policy stack and its
    /// retry switch, and the L3s).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for l2 in &mut self.l2s {
            l2.attach_telemetry(telemetry.clone());
        }
        self.policy.attach_telemetry(&telemetry);
        for l3 in &mut self.l3s {
            l3.attach_telemetry(telemetry.clone());
        }
        self.telemetry = telemetry;
    }

    /// Attaches a transaction span tracer. Every subsequent L2
    /// miss/upgrade/castout transaction gets a cycle-stamped phase
    /// timeline (subject to the tracer's sampling rate). Pass a clone and
    /// keep the original: clones share one record book, so the caller can
    /// read the finished spans after [`run`](Self::run).
    pub fn set_span_tracer(&mut self, spans: SpanTracer) {
        self.spans = spans;
    }

    /// Enables interval sampling: key counters are snapshotted every
    /// `period` cycles into [`interval_records`](Self::interval_records)
    /// (and, when tracing is on, emitted as [`SimEvent::Interval`]).
    ///
    /// # Panics
    ///
    /// Panics if `period` is 0.
    pub fn enable_interval_sampling(&mut self, period: Cycle) {
        self.sampler = Some(IntervalSampler::new(period));
    }

    /// The interval time series recorded so far (empty when sampling is
    /// disabled).
    pub fn interval_records(&self) -> &[IntervalRecord] {
        self.sampler.as_ref().map_or(&[], |s| s.records())
    }

    /// Attaches a host-side wall-clock profiler. The event loop switches
    /// to its instrumented path and the gauges are sampled on the
    /// interval-sampler cadence (pass a clone and keep the original to
    /// read the [`HostProfiler::report`] after the run, mirroring
    /// [`set_span_tracer`](Self::set_span_tracer)).
    pub fn set_host_profiler(&mut self, host: HostProfiler) {
        self.host = host;
    }

    /// Attaches a live telemetry stream; every frame this system sends
    /// is tagged with `cell` so one stream can multiplex a whole grid.
    pub fn set_stream(&mut self, stream: TelemetryStream, cell: u64) {
        self.stream = stream;
        self.stream_cell = cell;
    }

    /// Enables the `--progress` stderr heartbeat.
    pub fn set_progress(&mut self, meter: ProgressMeter) {
        self.progress = Some(meter);
    }

    /// Enables the decision-quality audit: every WBHT verdict and snarf
    /// placement registers a pending outcome record that the later
    /// pipeline stages resolve (see the `system::audit` module). Off by
    /// default — disabled runs stay byte-identical.
    pub fn enable_decision_audit(&mut self) {
        self.audit = Some(Box::new(DecisionAudit::new(&self.cfg)));
    }

    /// The audit's resolved aggregates (valid after [`run`](Self::run)),
    /// or `None` when auditing is off.
    pub fn decision_audit_summary(&self) -> Option<DecisionAuditSummary> {
        self.audit.as_ref().map(|a| a.summary())
    }

    /// Closes passed sampler window(s) at `now` (`finish` also closes
    /// the trailing partial window), mirrors each new record into the
    /// event trace and the live stream, and takes a host-profiler
    /// sample on the same cadence.
    pub(super) fn close_intervals(&mut self, now: Cycle, finish: bool) {
        let snapshot = self.counter_snapshot();
        let Some(sampler) = &mut self.sampler else {
            return;
        };
        let already = sampler.records().len();
        if finish {
            sampler.finish(now, &snapshot);
        } else {
            sampler.sample(now, &snapshot);
        }
        let mut closed_any = false;
        for rec in &sampler.records()[already..] {
            closed_any = true;
            self.telemetry.emit(rec.end, || SimEvent::Interval {
                start: rec.start,
                end: rec.end,
                counters: rec.counters.clone(),
            });
            self.stream.send_interval(self.stream_cell, rec);
        }
        if closed_any {
            let frame = self.audit.as_mut().map(|a| a.note_interval(now));
            if let Some(f) = frame {
                self.stream.send_decision(self.stream_cell, &f);
            }
            self.host_tick(now);
        }
    }

    /// Takes one host-profiler sample (gauges + cumulative attribution)
    /// and pushes it onto the live stream. No-op when profiling is off.
    pub(super) fn host_tick(&mut self, now: Cycle) {
        if !self.host.is_enabled() {
            return;
        }
        let gauges = self.host_gauges(now);
        if let Some(sample) = self.host.sample(gauges) {
            self.stream.send_host_sample(self.stream_cell, &sample);
        }
    }

    /// Snapshot of the simulator-side occupancy gauges the host
    /// profiler records alongside its wall-time attribution.
    fn host_gauges(&self, now: Cycle) -> HostGauges {
        let mut mshr_used = 0u64;
        let mut mshr_cap = 0u64;
        let mut wbq_depth = 0u64;
        for l2 in &self.l2s {
            mshr_used += l2.mshrs.len() as u64;
            mshr_cap += l2.mshrs.capacity() as u64;
            wbq_depth += l2.wbq.len() as u64;
        }
        HostGauges {
            cycles: now,
            events: self.queue.popped(),
            eq_len: self.queue.len() as u64,
            eq_ring_len: self.queue.ring_len() as u64,
            eq_overflow_len: self.queue.overflow_len() as u64,
            mshr_used,
            mshr_cap,
            wbq_depth,
        }
    }

    /// Streams the run-start frame (no-op when streaming is off).
    pub(super) fn stream_run_start(&mut self, refs_per_thread: u64) {
        if self.stream.is_enabled() {
            self.stream.send_run_start(
                self.stream_cell,
                self.workload.name(),
                self.cfg.policy.label(),
                refs_per_thread,
            );
        }
    }

    /// End-of-run host observation: guarantees at least one host sample
    /// per profiled run (short runs may never cross an interval
    /// boundary) and streams the run-end frame.
    pub(super) fn finish_host_observation(&mut self) {
        if self.host.is_enabled() && self.host.samples().is_empty() {
            self.host_tick(self.stats.cycles);
        }
        if self.stream.is_enabled() {
            self.stream
                .send_run_end(self.stream_cell, self.stats.cycles, self.queue.popped());
        }
    }

    /// Emits the `--progress` heartbeat when its period has elapsed
    /// (polled from the event loop on an event-count stride).
    pub(super) fn progress_beat(&mut self) {
        let (mut done, mut total) = (0u64, 0u64);
        for t in &self.threads {
            done += t.issued;
            total += t.limit;
        }
        let cycles = self.queue.now();
        if let Some(meter) = &mut self.progress {
            meter.maybe_beat(cycles, done, total);
        }
    }

    /// The cumulative counters the interval sampler tracks.
    fn counter_snapshot(&self) -> Vec<(&'static str, u64)> {
        let s = &self.stats;
        vec![
            ("refs", s.refs),
            ("l2_misses", s.l2.iter().map(|l| l.misses).sum()),
            ("fills_from_l2", s.fills_from_l2),
            ("fills_from_l3", s.fills_from_l3),
            ("fills_from_memory", s.fills_from_memory),
            ("wb_dirty", s.wb.dirty_requests),
            ("wb_clean", s.wb.clean_requests),
            ("wb_clean_aborted", s.wb.clean_aborted),
            ("wb_squashed_l3", s.wb.clean_squashed_l3),
            ("wb_snarfed", s.wb.snarfed),
            ("retries_total", s.retries_total),
            ("retries_l3", s.retries_l3),
            ("upgrades", s.upgrades),
        ]
    }

    /// Statistics accumulated so far (valid after [`run`](Self::run)).
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// Total events dispatched so far (the event queue's lifetime pop
    /// count). Benchmarks divide this by wall time for events/sec; it is
    /// deliberately not part of [`SystemStats`] so the serialized
    /// statistics stay byte-identical across engine changes.
    pub fn events_processed(&self) -> u64 {
        self.queue.popped()
    }

    /// The first L3 in the list (for oracle peeks and statistics): the
    /// shared victim cache, or L2 0's partition in the private
    /// organization. [`l3_stats`](Self::l3_stats) aggregates them all.
    pub fn l3(&self) -> &L3Cache {
        &self.l3s[0]
    }

    /// L3 statistics summed over every L3 in the list (queue high-water
    /// marks take the maximum).
    pub fn l3_stats(&self) -> cmpsim_mem::L3Stats {
        self.l3s
            .iter()
            .map(L3Cache::stats)
            .fold(cmpsim_mem::L3Stats::default(), |acc, s| {
                cmpsim_mem::L3Stats {
                    read_hits: acc.read_hits + s.read_hits,
                    read_misses: acc.read_misses + s.read_misses,
                    reads_served: acc.reads_served + s.reads_served,
                    castouts_accepted: acc.castouts_accepted + s.castouts_accepted,
                    castouts_squashed: acc.castouts_squashed + s.castouts_squashed,
                    retries_issued: acc.retries_issued + s.retries_issued,
                    invalidations: acc.invalidations + s.invalidations,
                    dirty_victims_to_memory: acc.dirty_victims_to_memory
                        + s.dirty_victims_to_memory,
                    read_queue_high_water: acc.read_queue_high_water.max(s.read_queue_high_water),
                    data_queue_high_water: acc.data_queue_high_water.max(s.data_queue_high_water),
                }
            })
    }

    /// Coherence state of `line` in L2 `l2`, if resident (inspection
    /// API for tests and tools).
    pub fn l2_state(&self, l2: usize, line: LineAddr) -> Option<L2State> {
        self.l2s.get(l2).and_then(|u| u.state_of(line))
    }

    /// The memory controller statistics.
    pub fn memory(&self) -> &MemoryController {
        &self.mem
    }

    /// Ring utilization statistics.
    pub fn ring_stats(&self) -> cmpsim_ring::RingStats {
        self.ring.stats()
    }

    /// Merged WBHT statistics across all L2s (empty stats when the
    /// policy has no WBHT).
    pub fn wbht_stats(&self) -> crate::policy::WbhtStats {
        self.policy.wbht_stats()
    }

    /// Snarf-table statistics (when the policy snarfs).
    pub fn snarf_table_stats(&self) -> Option<crate::policy::SnarfStats> {
        self.policy.snarf_stats()
    }

    /// Merged reuse-distance copy-back statistics (when stacked).
    pub fn rdcb_stats(&self) -> Option<crate::policy::RdcbStats> {
        self.policy.rdcb_stats()
    }

    /// Hybrid update/invalidate statistics (when stacked).
    pub fn hybrid_stats(&self) -> Option<crate::policy::HybridStats> {
        self.policy.hybrid_stats()
    }

    pub(super) fn finalize_stats(&mut self) {
        self.stats.cycles = self
            .threads
            .iter()
            .map(|t| t.completed_at.unwrap_or(t.next_time))
            .max()
            .unwrap_or(0);
        self.stats.mshr_high_water = self
            .l2s
            .iter()
            .map(|l2| l2.mshrs.high_water() as u64)
            .max()
            .unwrap_or(0)
            .max(self.stats.mshr_high_water);
        self.stats.wbq_high_water = self
            .l2s
            .iter()
            .map(|l2| l2.wbq.high_water() as u64)
            .max()
            .unwrap_or(0)
            .max(self.stats.wbq_high_water);
        self.stats.event_queue_high_water = self
            .stats
            .event_queue_high_water
            .max(self.queue.high_water() as u64);
        // Snarfed lines still resident and unused count as unused. The
        // audit resolves every still-resident placement from the same
        // flags (useful if ever touched, wasted otherwise).
        let mut still_unused = 0;
        for (idx, l2) in self.l2s.iter().enumerate() {
            for (&raw, f) in &l2.snarfed_lines {
                let used = f.used_locally || f.used_for_intervention;
                if !used {
                    still_unused += 1;
                }
                if let Some(a) = &mut self.audit {
                    a.resolve_snarf(idx, raw, used);
                }
            }
        }
        self.stats.snarf.evicted_unused += still_unused;
        if self.audit.is_some() {
            let (engaged, windows) = self.policy.retry_window_counts();
            let now = self.stats.cycles;
            if let Some(a) = &mut self.audit {
                a.finalize(engaged, windows);
                // One terminal frame with every outcome resolved, so the
                // stream and the Chrome counter track carry the final
                // verdict even when no interval window ever closed.
                let frame = a.note_interval(now);
                self.stream.send_decision(self.stream_cell, &frame);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use cmpsim_cache::LineAddr;

    use crate::config::{L3Organization, SystemConfig};
    use crate::policy::{PolicyConfig, SnarfConfig};
    use crate::system::testutil::system;
    use crate::system::System;

    #[test]
    fn private_l3_partitions_are_separate() {
        let mut cfg = SystemConfig::scaled(16);
        cfg.l3_organization = L3Organization::PrivatePerL2;
        let mut sys = System::with_source(
            cfg,
            Box::new(cmpsim_trace::TracePlayback::new("idle", vec![], 16, 1).unwrap()),
        )
        .unwrap();
        assert_eq!(sys.l3s.len(), 4);
        let line = LineAddr::new(8);
        let k = sys.l3_for(0);
        sys.l3s[k].accept_castout(0, line, false);
        assert!(sys.l3s[0].peek(line));
        assert!(!sys.l3s[1].peek(line));
        let agg = sys.l3_stats();
        assert_eq!(agg.castouts_accepted, 1);
    }

    #[test]
    fn snarf_policy_builds_table_and_buffers() {
        let sys = system(PolicyConfig::snarf(SnarfConfig {
            entries: 256,
            ..Default::default()
        }));
        assert!(sys.snarf_table_stats().is_some());
    }
}
