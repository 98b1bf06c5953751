//! Synthetic workload generation.

use std::error::Error;
use std::fmt;

use cmpsim_cache::Addr;
use cmpsim_engine::{SplitMix64, StackDistance};

use crate::{MemOp, ThreadId, TraceRecord};

/// Probability mix over the five access populations.
///
/// Probabilities must be non-negative and sum to 1 (±1e-6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentMix {
    /// Per-thread private data with strong temporal locality (L2 hits).
    pub private: f64,
    /// Chip-wide "bounce" set sized relative to the L3: the population of
    /// lines that live in the L2↔L3 eviction/re-reference loop.
    pub bounce: f64,
    /// Chip-wide cyclically-scanned "rotor" set sized between the L2 and
    /// L3 capacities: every pass evicts and re-references each line on a
    /// regular period — the population the snarf (reuse) table learns.
    pub rotor: f64,
    /// Chip-wide read-mostly shared data (clean interventions, `Shared`
    /// lines for the snarf victim policy).
    pub shared: f64,
    /// Migratory read-modify-write data (dirty interventions, upgrades).
    pub migratory: f64,
    /// Streaming data, never reused (cold misses to memory).
    pub streaming: f64,
}

impl SegmentMix {
    /// Checks that the mix is a probability distribution.
    pub fn is_valid(&self) -> bool {
        let parts = [
            self.private,
            self.bounce,
            self.rotor,
            self.shared,
            self.migratory,
            self.streaming,
        ];
        parts.iter().all(|&p| (0.0..=1.0).contains(&p))
            && (parts.iter().sum::<f64>() - 1.0).abs() < 1e-6
    }
}

/// Errors from invalid workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// The segment mix is not a probability distribution.
    BadMix(SegmentMix),
    /// A region that has nonzero access probability is empty.
    EmptyRegion(&'static str),
    /// No threads.
    NoThreads,
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::BadMix(m) => write!(f, "segment mix does not sum to 1: {m:?}"),
            WorkloadError::EmptyRegion(r) => write!(f, "region {r} is empty but has probability"),
            WorkloadError::NoThreads => f.write_str("workload needs at least one thread"),
        }
    }
}

impl Error for WorkloadError {}

/// Full parameterization of a synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadParams {
    /// Human-readable workload name.
    pub name: String,
    /// Cache line size in bytes (addresses are line-aligned multiples).
    pub line_bytes: u64,
    /// Hardware threads issuing references.
    pub threads: u16,
    /// Cycles between successive references of one thread (1 = a fully
    /// busy core; larger values model lower CPU utilization — the paper
    /// notes TP runs at >92 % utilization, CPW2 at ~70 %, and NotesBench
    /// places "very low demands" on the memory subsystem).
    pub issue_interval: u64,
    /// Access population mix.
    pub mix: SegmentMix,
    /// Private region size per thread, in lines.
    pub private_lines: u64,
    /// Locality exponent for private accesses (larger = hotter head).
    pub private_theta: f64,
    /// Fraction of private accesses that are stores.
    pub private_store_frac: f64,
    /// Bounce region size per *group* (see
    /// [`bounce_group_threads`](Self::bounce_group_threads)), in lines.
    /// Sized relative to the L3: aggregate `< L3` gives high L3 hit
    /// rates and highly redundant clean write-backs (Trade2-like);
    /// `> L3` thrashes the L3 (TP-like).
    pub bounce_lines: u64,
    /// Threads per bounce group: threads in a group share one bounce
    /// sub-region. `4` partitions the set per core pair (per L2) — the
    /// common commercial pattern of software threads working a database
    /// partition; equal to the thread count it becomes chip-wide shared.
    pub bounce_group_threads: u16,
    /// Fraction of bounce accesses that go to a *random other* group's
    /// sub-region (cross-partition traffic: lock tables, hot indexes).
    /// This is what lets one L2's write-back history help another
    /// (Figure 3's global WBHT updates) and puts copies of bounce lines
    /// in peer L2s.
    pub bounce_cross_frac: f64,
    /// Locality exponent for bounce accesses (1.0 = uniform).
    pub bounce_theta: f64,
    /// Fraction of bounce accesses that are stores.
    pub bounce_store_frac: f64,
    /// Rotor region size (chip-wide), in lines. Sized a few times the
    /// per-L2 capacity so every pass evicts: the regular
    /// evict→write-back→re-reference period is what makes these lines
    /// snarf-eligible and keeps copies alive in peer L2s.
    pub rotor_lines: u64,
    /// Fraction of rotor accesses that are stores.
    pub rotor_store_frac: f64,
    /// Read-mostly shared region size, in lines.
    pub shared_lines: u64,
    /// Locality exponent for shared accesses.
    pub shared_theta: f64,
    /// Fraction of shared accesses that are stores.
    pub shared_store_frac: f64,
    /// Migratory region size, in lines.
    pub migratory_lines: u64,
    /// Probability a migratory load is followed by a store to the same
    /// line by the same thread (read-modify-write behaviour).
    pub migratory_rmw_frac: f64,
}

impl WorkloadParams {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] for invalid mixes, empty-but-used
    /// regions, or zero threads.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.threads == 0 {
            return Err(WorkloadError::NoThreads);
        }
        if self.issue_interval == 0 {
            return Err(WorkloadError::EmptyRegion("issue_interval"));
        }
        if self.mix.bounce > 0.0 && self.bounce_group_threads == 0 {
            return Err(WorkloadError::EmptyRegion("bounce_group_threads"));
        }
        if !self.mix.is_valid() {
            return Err(WorkloadError::BadMix(self.mix));
        }
        let checks: [(&'static str, f64, u64); 5] = [
            ("private", self.mix.private, self.private_lines),
            ("bounce", self.mix.bounce, self.bounce_lines),
            ("rotor", self.mix.rotor, self.rotor_lines),
            ("shared", self.mix.shared, self.shared_lines),
            ("migratory", self.mix.migratory, self.migratory_lines),
        ];
        for (name, p, lines) in checks {
            if p > 0.0 && lines == 0 {
                return Err(WorkloadError::EmptyRegion(name));
            }
        }
        Ok(())
    }
}

// Address-space layout: disjoint regions tagged in high line-address
// bits. Threads get disjoint private/streaming sub-regions.
const REGION_SHIFT: u32 = 36;
const THREAD_SHIFT: u32 = 26;
const REGION_PRIVATE: u64 = 1;
const REGION_BOUNCE: u64 = 2;
const REGION_SHARED: u64 = 3;
const REGION_MIGRATORY: u64 = 4;
const REGION_STREAM: u64 = 5;
const REGION_ROTOR: u64 = 6;

#[derive(Debug, Clone)]
struct ThreadState {
    rng: SplitMix64,
    stream_pos: u64,
    rotor_pos: u64,
    migratory_pending: Option<u64>,
}

/// A deterministic, on-demand synthetic reference stream.
///
/// Each thread's stream is independent and reproducible: the same
/// (parameters, seed) pair always yields the same references, which makes
/// whole-simulation runs bit-identical.
///
/// # Example
///
/// ```
/// use cmpsim_trace::{SyntheticWorkload, Workload, CacheScale, ThreadId};
///
/// let params = Workload::Trade2.params(16, CacheScale::scaled(8));
/// let mut w = SyntheticWorkload::new(params, 42)?;
/// let r = w.next_record(ThreadId::new(0));
/// assert_eq!(r.thread.index(), 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    params: WorkloadParams,
    threads: Vec<ThreadState>,
    /// Stack-distance samplers of the private, bounce, shared and
    /// migratory regions, shared by all threads (each draw takes its
    /// bits from the drawing thread's generator).
    private: StackDistance,
    bounce: StackDistance,
    shared: StackDistance,
    migratory: StackDistance,
}

impl SyntheticWorkload {
    /// Creates a workload stream.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] when the parameters are invalid.
    pub fn new(params: WorkloadParams, seed: u64) -> Result<Self, WorkloadError> {
        params.validate()?;
        let mut root = SplitMix64::new(seed ^ 0x5EED_CAFE_0000);
        let rotor_lines = params.rotor_lines;
        let threads = (0..params.threads)
            .map(|_| {
                let mut rng = root.fork();
                // Spread rotor scan phases so copies of each rotor line
                // live in several L2s at once.
                let rotor_pos = if rotor_lines > 0 {
                    rng.gen_range(rotor_lines)
                } else {
                    0
                };
                ThreadState {
                    rng,
                    stream_pos: 0,
                    rotor_pos,
                    migratory_pending: None,
                }
            })
            .collect();
        Ok(SyntheticWorkload {
            private: StackDistance::new(params.private_lines, params.private_theta),
            bounce: StackDistance::new(params.bounce_lines, params.bounce_theta),
            shared: StackDistance::new(params.shared_lines, params.shared_theta),
            migratory: StackDistance::new(params.migratory_lines, 2.0),
            params,
            threads,
        })
    }

    /// The parameters.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    /// Produces the next reference for `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn next_record(&mut self, thread: ThreadId) -> TraceRecord {
        let p = &self.params;
        let ts = &mut self.threads[thread.index()];
        let tid = thread.raw() as u64;

        // Pending migratory store takes priority: RMW pairs stay adjacent.
        if let Some(line) = ts.migratory_pending.take() {
            return TraceRecord::new(thread, MemOp::Store, line_to_addr(line, p.line_bytes));
        }

        let u = ts.rng.gen_f64();
        let mix = p.mix;
        let (line, op) = if u < mix.private {
            let d = self.private.sample(&mut ts.rng);
            let line = (REGION_PRIVATE << REGION_SHIFT) | (tid << THREAD_SHIFT) | d;
            let op = store_if(&mut ts.rng, p.private_store_frac);
            (line, op)
        } else if u < mix.private + mix.bounce {
            let d = self.bounce.sample(&mut ts.rng);
            let groups = (p.threads / p.bounce_group_threads).max(1) as u64;
            let own = tid / p.bounce_group_threads as u64;
            let group = if groups > 1 && ts.rng.gen_bool(p.bounce_cross_frac) {
                // Cross-partition access: any group but our own.
                let g = ts.rng.gen_range(groups - 1);
                if g >= own {
                    g + 1
                } else {
                    g
                }
            } else {
                own
            };
            let line = (REGION_BOUNCE << REGION_SHIFT) | (group << THREAD_SHIFT) | d;
            let op = store_if(&mut ts.rng, p.bounce_store_frac);
            (line, op)
        } else if u < mix.private + mix.bounce + mix.rotor {
            let d = ts.rotor_pos;
            ts.rotor_pos = (ts.rotor_pos + 1) % p.rotor_lines;
            let line = (REGION_ROTOR << REGION_SHIFT) | d;
            let op = store_if(&mut ts.rng, p.rotor_store_frac);
            (line, op)
        } else if u < mix.private + mix.bounce + mix.rotor + mix.shared {
            let d = self.shared.sample(&mut ts.rng);
            let line = (REGION_SHARED << REGION_SHIFT) | d;
            let op = store_if(&mut ts.rng, p.shared_store_frac);
            (line, op)
        } else if u < mix.private + mix.bounce + mix.rotor + mix.shared + mix.migratory {
            let d = self.migratory.sample(&mut ts.rng);
            let line = (REGION_MIGRATORY << REGION_SHIFT) | d;
            if ts.rng.gen_bool(p.migratory_rmw_frac) {
                ts.migratory_pending = Some(line);
            }
            (line, MemOp::Load)
        } else {
            // Streaming: monotone, never reused.
            let line = (REGION_STREAM << REGION_SHIFT) | (tid << THREAD_SHIFT) | ts.stream_pos;
            ts.stream_pos = (ts.stream_pos + 1) & ((1 << THREAD_SHIFT) - 1);
            (line, MemOp::Load)
        };
        TraceRecord::new(thread, op, line_to_addr(line, p.line_bytes))
    }

    /// Materializes `n` records, round-robin across threads (useful for
    /// writing trace files; the simulator itself pulls per-thread).
    pub fn generate(&mut self, n: usize) -> Vec<TraceRecord> {
        let threads = self.params.threads;
        (0..n)
            .map(|i| self.next_record(ThreadId::new((i % threads as usize) as u16)))
            .collect()
    }
}

fn store_if(rng: &mut SplitMix64, frac: f64) -> MemOp {
    if rng.gen_bool(frac) {
        MemOp::Store
    } else {
        MemOp::Load
    }
}

fn line_to_addr(line: u64, line_bytes: u64) -> Addr {
    Addr::new(line * line_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> WorkloadParams {
        WorkloadParams {
            name: "tiny".into(),
            line_bytes: 128,
            threads: 4,
            issue_interval: 1,
            mix: SegmentMix {
                private: 0.4,
                bounce: 0.2,
                rotor: 0.1,
                shared: 0.15,
                migratory: 0.1,
                streaming: 0.05,
            },
            private_lines: 64,
            private_theta: 3.0,
            private_store_frac: 0.25,
            bounce_lines: 256,
            bounce_group_threads: 4,
            bounce_cross_frac: 0.1,
            bounce_theta: 1.0,
            bounce_store_frac: 0.05,
            rotor_lines: 128,
            rotor_store_frac: 0.1,
            shared_lines: 64,
            shared_theta: 2.0,
            shared_store_frac: 0.02,
            migratory_lines: 32,
            migratory_rmw_frac: 0.5,
        }
    }

    #[test]
    fn deterministic_streams() {
        let mut a = SyntheticWorkload::new(tiny_params(), 7).unwrap();
        let mut b = SyntheticWorkload::new(tiny_params(), 7).unwrap();
        for i in 0..1000 {
            let t = ThreadId::new((i % 4) as u16);
            assert_eq!(a.next_record(t), b.next_record(t));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SyntheticWorkload::new(tiny_params(), 1).unwrap();
        let mut b = SyntheticWorkload::new(tiny_params(), 2).unwrap();
        let va: Vec<_> = (0..50).map(|_| a.next_record(ThreadId::new(0))).collect();
        let vb: Vec<_> = (0..50).map(|_| b.next_record(ThreadId::new(0))).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn addresses_line_aligned() {
        let mut w = SyntheticWorkload::new(tiny_params(), 3).unwrap();
        for _ in 0..500 {
            let r = w.next_record(ThreadId::new(1));
            assert_eq!(r.addr.raw() % 128, 0);
        }
    }

    #[test]
    fn private_regions_disjoint_across_threads() {
        let mut p = tiny_params();
        p.mix = SegmentMix {
            private: 1.0,
            bounce: 0.0,
            rotor: 0.0,
            shared: 0.0,
            migratory: 0.0,
            streaming: 0.0,
        };
        let mut w = SyntheticWorkload::new(p, 5).unwrap();
        let a: std::collections::HashSet<u64> = (0..200)
            .map(|_| w.next_record(ThreadId::new(0)).addr.raw())
            .collect();
        let b: std::collections::HashSet<u64> = (0..200)
            .map(|_| w.next_record(ThreadId::new(1)).addr.raw())
            .collect();
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn migratory_rmw_pairs_adjacent() {
        let mut p = tiny_params();
        p.mix = SegmentMix {
            private: 0.0,
            bounce: 0.0,
            rotor: 0.0,
            shared: 0.0,
            migratory: 1.0,
            streaming: 0.0,
        };
        p.migratory_rmw_frac = 1.0;
        let mut w = SyntheticWorkload::new(p, 9).unwrap();
        for _ in 0..100 {
            let load = w.next_record(ThreadId::new(0));
            let store = w.next_record(ThreadId::new(0));
            assert_eq!(load.op, MemOp::Load);
            assert_eq!(store.op, MemOp::Store);
            assert_eq!(load.addr, store.addr);
        }
    }

    #[test]
    fn streaming_never_repeats_within_window() {
        let mut p = tiny_params();
        p.mix = SegmentMix {
            private: 0.0,
            bounce: 0.0,
            rotor: 0.0,
            shared: 0.0,
            migratory: 0.0,
            streaming: 1.0,
        };
        let mut w = SyntheticWorkload::new(p, 11).unwrap();
        let addrs: Vec<u64> = (0..1000)
            .map(|_| w.next_record(ThreadId::new(0)).addr.raw())
            .collect();
        let set: std::collections::HashSet<_> = addrs.iter().collect();
        assert_eq!(set.len(), addrs.len());
    }

    #[test]
    fn store_fraction_respected() {
        let mut p = tiny_params();
        p.mix = SegmentMix {
            private: 1.0,
            bounce: 0.0,
            rotor: 0.0,
            shared: 0.0,
            migratory: 0.0,
            streaming: 0.0,
        };
        p.private_store_frac = 0.3;
        let mut w = SyntheticWorkload::new(p, 13).unwrap();
        let stores = (0..20_000)
            .filter(|_| w.next_record(ThreadId::new(0)).op.is_store())
            .count();
        assert!((5_000..7_000).contains(&stores), "stores = {stores}");
    }

    #[test]
    fn validation_catches_bad_mix() {
        let mut p = tiny_params();
        p.mix.private = 0.9;
        assert!(matches!(
            SyntheticWorkload::new(p, 0),
            Err(WorkloadError::BadMix(_))
        ));
    }

    #[test]
    fn validation_catches_empty_region() {
        let mut p = tiny_params();
        p.bounce_lines = 0;
        assert!(matches!(
            SyntheticWorkload::new(p, 0),
            Err(WorkloadError::EmptyRegion("bounce"))
        ));
    }

    #[test]
    fn validation_catches_zero_threads() {
        let mut p = tiny_params();
        p.threads = 0;
        assert!(matches!(
            SyntheticWorkload::new(p, 0),
            Err(WorkloadError::NoThreads)
        ));
    }

    #[test]
    fn generate_round_robins() {
        let mut w = SyntheticWorkload::new(tiny_params(), 21).unwrap();
        let recs = w.generate(8);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.thread.index(), i % 4);
        }
    }
}
