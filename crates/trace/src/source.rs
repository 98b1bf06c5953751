//! Reference sources: where the simulator's memory references come from.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use crate::{SyntheticWorkload, ThreadId, TraceRecord};

/// A per-thread supplier of memory references.
///
/// The simulator pulls references on demand, one thread at a time; a
/// source must always produce a record (sources backed by finite traces
/// wrap around). Implemented by [`SyntheticWorkload`] (the calibrated
/// commercial-workload models) and [`TracePlayback`] (recorded traces,
/// as in the paper's methodology: "we feed the traces into the Mambo
/// cache hierarchy simulator").
pub trait ReferenceSource: std::fmt::Debug {
    /// Produces the next reference for `thread`.
    fn next_record(&mut self, thread: ThreadId) -> TraceRecord;

    /// Cycles between successive references of one thread (models CPU
    /// utilization; 1 = fully issue-bound).
    fn issue_interval(&self) -> u64;

    /// Workload name for reports.
    fn name(&self) -> &str;
}

impl ReferenceSource for SyntheticWorkload {
    fn next_record(&mut self, thread: ThreadId) -> TraceRecord {
        SyntheticWorkload::next_record(self, thread)
    }

    fn issue_interval(&self) -> u64 {
        self.params().issue_interval
    }

    fn name(&self) -> &str {
        &self.params().name
    }
}

/// Replays a recorded trace, partitioned per thread, wrapping around
/// when a thread's stream is exhausted.
///
/// # Example
///
/// ```
/// use cmpsim_trace::{TracePlayback, TraceRecord, ThreadId, MemOp, ReferenceSource};
/// use cmpsim_cache::Addr;
///
/// let recs = vec![
///     TraceRecord::new(ThreadId::new(0), MemOp::Load, Addr::new(0)),
///     TraceRecord::new(ThreadId::new(0), MemOp::Store, Addr::new(128)),
/// ];
/// let mut p = TracePlayback::new("demo", recs, 1, 1)?;
/// assert_eq!(p.next_record(ThreadId::new(0)).addr.raw(), 0);
/// assert_eq!(p.next_record(ThreadId::new(0)).addr.raw(), 128);
/// assert_eq!(p.next_record(ThreadId::new(0)).addr.raw(), 0); // wrapped
/// # Ok::<(), cmpsim_trace::ThreadOutOfRange>(())
/// ```
#[derive(Debug, Clone)]
pub struct TracePlayback {
    name: String,
    per_thread: Vec<VecDeque<TraceRecord>>,
    cursors: Vec<usize>,
    issue_interval: u64,
    wraps: u64,
}

/// A trace record names a thread the configured machine does not have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadOutOfRange {
    /// Position of the offending record in the trace (0-based).
    pub index: usize,
    /// The thread the record names.
    pub thread: ThreadId,
    /// Threads in the configuration (valid ids are `0..threads`).
    pub threads: u16,
}

impl fmt::Display for ThreadOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace record {} names thread {}, but the configuration has {} threads (ids 0-{})",
            self.index,
            self.thread.index(),
            self.threads,
            self.threads.saturating_sub(1)
        )
    }
}

impl Error for ThreadOutOfRange {}

impl TracePlayback {
    /// Builds a playback source from raw records.
    ///
    /// Records are partitioned by their thread id; threads with no
    /// records in the trace replay an idle load of address 0 (so the
    /// simulator's thread model stays uniform).
    ///
    /// # Errors
    ///
    /// Returns [`ThreadOutOfRange`] for the first record whose thread is
    /// not below `threads`: such a record could never be replayed.
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `issue_interval` is zero.
    pub fn new(
        name: impl Into<String>,
        records: Vec<TraceRecord>,
        threads: u16,
        issue_interval: u64,
    ) -> Result<Self, ThreadOutOfRange> {
        assert!(threads > 0, "playback needs at least one thread");
        assert!(issue_interval > 0, "issue interval must be nonzero");
        let mut per_thread: Vec<VecDeque<TraceRecord>> =
            (0..threads).map(|_| VecDeque::new()).collect();
        for (index, r) in records.into_iter().enumerate() {
            let Some(q) = per_thread.get_mut(r.thread.index()) else {
                return Err(ThreadOutOfRange {
                    index,
                    thread: r.thread,
                    threads,
                });
            };
            q.push_back(r);
        }
        Ok(TracePlayback {
            name: name.into(),
            cursors: vec![0; per_thread.len()],
            per_thread,
            issue_interval,
            wraps: 0,
        })
    }

    /// How many times any thread's stream wrapped around.
    pub fn wraps(&self) -> u64 {
        self.wraps
    }
}

impl ReferenceSource for TracePlayback {
    fn next_record(&mut self, thread: ThreadId) -> TraceRecord {
        let t = thread.index();
        let q = &self.per_thread[t];
        if q.is_empty() {
            // Idle thread: spin on a private line.
            return TraceRecord::new(thread, crate::MemOp::Load, cmpsim_cache::Addr::new(0));
        }
        let idx = self.cursors[t];
        let rec = q[idx];
        self.cursors[t] = (idx + 1) % q.len();
        if self.cursors[t] == 0 {
            self.wraps += 1;
        }
        rec
    }

    fn issue_interval(&self) -> u64 {
        self.issue_interval
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemOp;
    use cmpsim_cache::Addr;

    fn rec(t: u16, addr: u64) -> TraceRecord {
        TraceRecord::new(ThreadId::new(t), MemOp::Load, Addr::new(addr))
    }

    #[test]
    fn partitions_by_thread() {
        let mut p =
            TracePlayback::new("t", vec![rec(0, 0), rec(1, 128), rec(0, 256)], 2, 1).unwrap();
        assert_eq!(p.next_record(ThreadId::new(1)).addr.raw(), 128);
        assert_eq!(p.next_record(ThreadId::new(0)).addr.raw(), 0);
        assert_eq!(p.next_record(ThreadId::new(0)).addr.raw(), 256);
    }

    #[test]
    fn wraps_and_counts() {
        let mut p = TracePlayback::new("t", vec![rec(0, 0), rec(0, 128)], 1, 1).unwrap();
        for _ in 0..5 {
            p.next_record(ThreadId::new(0));
        }
        assert_eq!(p.wraps(), 2);
    }

    #[test]
    fn idle_threads_spin() {
        let mut p = TracePlayback::new("t", vec![rec(0, 0)], 4, 2).unwrap();
        let r = p.next_record(ThreadId::new(3));
        assert_eq!(r.addr.raw(), 0);
        assert!(!r.op.is_store());
        assert_eq!(p.issue_interval(), 2);
        assert_eq!(p.name(), "t");
    }

    #[test]
    fn thread_outside_the_configuration_is_rejected() {
        let recs = vec![rec(0, 0), rec(1, 128), rec(2, 256), rec(1, 384)];
        let err = TracePlayback::new("t", recs, 2, 1).unwrap_err();
        assert_eq!(
            err,
            ThreadOutOfRange {
                index: 2,
                thread: ThreadId::new(2),
                threads: 2
            }
        );
        assert_eq!(
            err.to_string(),
            "trace record 2 names thread 2, but the configuration has 2 threads (ids 0-1)"
        );
    }

    #[test]
    fn synthetic_implements_source() {
        use crate::{CacheScale, Workload};
        let params = Workload::Cpw2.params(16, CacheScale::scaled(16));
        let interval = params.issue_interval;
        let mut w = SyntheticWorkload::new(params, 1).unwrap();
        let src: &mut dyn ReferenceSource = &mut w;
        assert_eq!(src.issue_interval(), interval);
        assert_eq!(src.name(), "CPW2");
        let _ = src.next_record(ThreadId::new(0));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = TracePlayback::new("t", vec![], 0, 1);
    }
}
