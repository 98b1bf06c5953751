//! Experiment profiles: how large a simulation each experiment runs.

use cmp_adaptive_wb::{RunReport, RunSpec, SystemConfig};

/// Scale profile for experiment runs.
///
/// * `quick` — hierarchy capacities divided by 8 (L2 256 KB/cache, L3
///   2 MB), 30 k references per thread. Minutes for the full suite.
/// * `full` — the paper's geometry (Table 3), 200 k references per
///   thread. Use for final numbers.
///
/// Selected via the `CMPSIM_PROFILE` environment variable (`quick` /
/// `full`), defaulting to `quick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// Capacity divisor relative to the paper system.
    pub scale_factor: u64,
    /// References per thread per run.
    pub refs_per_thread: u64,
    /// Independent workload seeds per data point (figure sweeps report
    /// the mean across seeds). Default 1; set `CMPSIM_SEEDS` to raise.
    pub seeds: u64,
}

impl Profile {
    /// The quick profile.
    pub fn quick() -> Self {
        Profile {
            scale_factor: 8,
            refs_per_thread: 30_000,
            seeds: 1,
        }
    }

    /// The paper-scale profile.
    pub fn full() -> Self {
        Profile {
            scale_factor: 1,
            refs_per_thread: 200_000,
            seeds: 1,
        }
    }

    /// A seconds-long smoke profile for CI: tiny hierarchy, short
    /// streams. The numbers are not meaningful — only their
    /// reproducibility is (the serial-vs-parallel CI gate diffs two
    /// smoke runs).
    pub fn smoke() -> Self {
        Profile {
            scale_factor: 16,
            refs_per_thread: 500,
            seeds: 1,
        }
    }

    /// Reads `CMPSIM_PROFILE` (default: quick) and `CMPSIM_SEEDS`.
    pub fn from_env() -> Self {
        let mut p = match std::env::var("CMPSIM_PROFILE").as_deref() {
            Ok("full") => Self::full(),
            Ok("smoke") => Self::smoke(),
            _ => Self::quick(),
        };
        if let Ok(s) = std::env::var("CMPSIM_SEEDS") {
            if let Ok(n) = s.parse::<u64>() {
                p.seeds = n.clamp(1, 32);
            }
        }
        p
    }

    /// Base system configuration at this profile's scale.
    pub fn config(&self) -> SystemConfig {
        if self.scale_factor == 1 {
            SystemConfig::paper()
        } else {
            SystemConfig::scaled(self.scale_factor)
        }
    }

    /// A run spec for this profile with the given configuration and
    /// workload.
    pub fn spec(&self, config: SystemConfig, workload: cmpsim_trace::Workload) -> RunSpec {
        RunSpec::for_workload(config, workload, self.refs_per_thread)
    }

    /// Scales an absolute table-entry count to this profile (32 K
    /// entries in the paper becomes 4 K at scale 8), with a floor that
    /// keeps tables non-degenerate.
    pub fn table_entries(&self, paper_entries: u64) -> u64 {
        (paper_entries / self.scale_factor).max(256)
    }
}

/// Runs a grid of simulations through at most `jobs` worker threads,
/// returning reports in input order.
///
/// Simulations are deterministic and independent, so the schedule only
/// affects wall-clock time: `run_grid(specs, 1)` and
/// `run_grid(specs, 32)` produce identical reports. Workers pull the
/// next unstarted spec from a shared cursor (no chunk barriers), so a
/// slow run never serializes the runs behind it.
///
/// # Panics
///
/// Panics if any simulation fails to build (invalid config/workload) —
/// experiment specs are constructed from validated profiles.
pub fn run_grid(specs: Vec<RunSpec>, jobs: usize) -> Vec<RunReport> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = specs.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs == 1 {
        return specs
            .into_iter()
            .map(|s| cmp_adaptive_wb::run(s).expect("valid spec"))
            .collect();
    }
    let slots: Vec<Mutex<Option<RunSpec>>> =
        specs.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let out: Vec<Mutex<Option<RunReport>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let spec = slots[i]
                    .lock()
                    .expect("spec slot poisoned")
                    .take()
                    .expect("each slot claimed once");
                let report = cmp_adaptive_wb::run(spec).expect("valid spec");
                *out[i].lock().expect("report slot poisoned") = Some(report);
            });
        }
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("report slot poisoned")
                .expect("all runs joined")
        })
        .collect()
}

/// Process-wide worker-count override set by `--jobs`; 0 means auto.
static JOBS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Overrides the worker count used by [`parallel_runs`] (0 restores
/// auto-detection).
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs, std::sync::atomic::Ordering::Relaxed);
}

/// The worker count [`parallel_runs`] will use: the `--jobs` override
/// if set, else the `CMPSIM_JOBS` environment variable, else the
/// machine's available parallelism.
pub fn effective_jobs() -> usize {
    let j = JOBS.load(std::sync::atomic::Ordering::Relaxed);
    if j > 0 {
        return j;
    }
    if let Ok(v) = std::env::var("CMPSIM_JOBS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

/// Runs several simulations in parallel, preserving input order in the
/// results. The worker count comes from [`effective_jobs`] (`--jobs` /
/// `CMPSIM_JOBS` / auto); results are identical at any setting.
///
/// # Panics
///
/// Panics if any simulation fails to build (invalid config/workload) —
/// experiment specs are constructed from validated profiles.
pub fn parallel_runs(specs: Vec<RunSpec>) -> Vec<RunReport> {
    run_grid(specs, effective_jobs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_trace::Workload;

    #[test]
    fn profiles_scale() {
        let q = Profile::quick();
        let f = Profile::full();
        assert_eq!(q.seeds, 1);
        assert!(q.scale_factor > f.scale_factor);
        assert_eq!(q.table_entries(32 * 1024), 4096);
        assert_eq!(f.table_entries(32 * 1024), 32 * 1024);
        assert_eq!(q.table_entries(512), 256); // floor
    }

    #[test]
    fn parallel_matches_serial() {
        let p = Profile {
            scale_factor: 16,
            refs_per_thread: 400,
            seeds: 1,
        };
        let spec = p.spec(p.config(), Workload::Cpw2);
        let serial = cmp_adaptive_wb::run(spec.clone()).unwrap();
        let par = parallel_runs(vec![spec.clone(), spec]);
        assert_eq!(par[0].stats.cycles, serial.stats.cycles);
        assert_eq!(par[1].stats.cycles, serial.stats.cycles);
    }
}
