//! Host facts and clocks: process CPU time, a reference workload that
//! tracks the host's speed, peak RSS, and the identity of the machine
//! and source tree a result was measured on.

use std::collections::HashMap;

/// Name of the clock behind [`cpu_s`], recorded with every result.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub const CPU_CLOCK: &str = "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)";
/// Name of the clock behind [`cpu_s`], recorded with every result.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub const CPU_CLOCK: &str = "wall (no process CPU clock on this platform)";

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        pub fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
}

/// CPU seconds consumed so far by every thread of this process. Host
/// noise from other tenants shows up as wall time, not as CPU time, so
/// throughput is measured against this clock.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_s() -> f64 {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C
    // layout; clock_gettime writes only into it and the clock id is a
    // constant every Linux kernel supports.
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall seconds since the first call (fallback where no process CPU
/// clock is available).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_s() -> f64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_secs_f64()
}

/// A fixed unit of host work the benchmark owns: pseudo-random
/// read-modify-writes over a 16 MB table and hash-map probes and
/// inserts, the access patterns that dominate the simulator. It never
/// changes with the simulator, so its speed, measured between the
/// simulator's timing samples, follows the host alone: other tenants
/// slow both together for tens of seconds at a time.
pub struct Reference {
    table: Vec<u64>,
    map: HashMap<u64, u64>,
    rng: u64,
}

/// Operations in one unit of reference work (about 20 ms).
const REFERENCE_OPS: usize = 300_000;

/// Reference units per CPU-second (fast quartile) on the 2-vCPU Intel
/// Xeon VM the benchmark was tuned on; rescales host-normalized rates
/// back to that host's cycles per CPU-second.
pub const REFERENCE_NOMINAL_RATE: f64 = 55.0;

impl Reference {
    pub fn new() -> Self {
        Reference {
            table: vec![1; 1 << 21],
            map: (0..1u64 << 17).map(|k| (k, k)).collect(),
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Runs one unit of reference work; returns units per CPU-second.
    pub fn rate(&mut self) -> f64 {
        let start = cpu_s();
        let mask = self.table.len() - 1;
        let mut acc = 0u64;
        for _ in 0..REFERENCE_OPS {
            let x = &mut self.rng;
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            let i = *x as usize & mask;
            acc = acc.wrapping_add(self.table[i]);
            self.table[i] = acc ^ *x;
            let key = *x >> 47;
            if *x & 3 == 0 {
                self.map.insert(key, acc);
            } else {
                acc ^= self.map.get(&key).copied().unwrap_or(key);
            }
        }
        std::hint::black_box(acc);
        1.0 / (cpu_s() - start)
    }
}

/// Peak resident-set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let (_, peak_kb) = cmpsim_engine::profiler::rss_kb();
    peak_kb as f64 / 1024.0
}

/// The CPU model string from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The source revision from `.git` in the working directory, or
/// `unknown` (a plain source checkout has no `.git`).
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The `q`-quantile (0..=1) of a non-empty sample, interpolating
/// linearly between order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
