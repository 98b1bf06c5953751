//! Synthetic stream golden: the reference streams every simulated
//! statistic is computed from, pinned at the generator.
//!
//! For each preset workload at scales 1 (the paper geometry), 8 and 16,
//! on three seeds (the `cmpsim` default, a held-out seed and 42), the
//! golden holds one FNV-1a digest of the first 100,000 records the
//! generator yields round-robin over 16 threads: the stream a run of
//! `cmpsim -w W --scale S --seed N` draws from. A change to how a draw
//! is computed (the stack-distance sampler, the segment choice, the
//! address layout) that moves a single record moves a digest here,
//! before any simulator output could hide or amplify it.
//!
//! Regenerate intentionally with
//! `UPDATE_GOLDEN=1 cargo test --test synthetic_streams` and inspect
//! the diff.
//!
//! A second test holds the stack-distance sampler to the formula it
//! caches, draw by draw, over region sizes on both sides of its cache
//! cutoff and the locality exponents the presets use.

use cmp_hierarchies::adaptive::SystemConfig;
use cmp_hierarchies::engine::{SplitMix64, StackDistance};
use cmp_hierarchies::trace::{MemOp, SyntheticWorkload, Workload};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/synthetic_streams.txt"
);

/// Records digested per stream.
const RECORDS: usize = 100_000;

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest of the first [`RECORDS`] records of one stream: each
/// record's thread, operation and address, little-endian.
fn stream_digest(workload: Workload, scale: u64, seed: u64) -> u64 {
    let cfg = SystemConfig::scaled(scale);
    assert_eq!(cfg.num_threads(), 16);
    let params = workload.params(cfg.num_threads(), cfg.cache_scale());
    let mut stream = SyntheticWorkload::new(params, seed).unwrap();
    stream
        .generate(RECORDS)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, r| {
            let h = fnv1a(h, &r.thread.raw().to_le_bytes());
            let h = fnv1a(h, &[u8::from(r.op == MemOp::Store)]);
            fnv1a(h, &r.addr.raw().to_le_bytes())
        })
}

fn digests() -> String {
    let mut out = String::new();
    for workload in Workload::all() {
        for scale in [1, 8, 16] {
            for seed in [0x1BAD_B002, 0x0DD5_EED5, 42] {
                out.push_str(&format!(
                    "{workload} scale {scale} seed {seed:#x} fnv1a64 {:016x}\n",
                    stream_digest(workload, scale, seed)
                ));
            }
        }
    }
    out
}

#[test]
fn golden_synthetic_stream_digests() {
    let produced = digests();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &produced).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("tests/golden/synthetic_streams.txt (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        produced, golden,
        "synthetic streams drifted from the golden; if intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

/// The stack-distance formula as the generator evaluated it on every
/// draw before the sampler cached it: `floor(n·u^theta)` clamped to
/// `n - 1`, for `u = k·2^-53`.
fn formula(n: u64, theta: f64, k: u64) -> u64 {
    let u = k as f64 * (1.0 / (1u64 << 53) as f64);
    ((n as f64 * u.powf(theta)) as u64).min(n - 1)
}

#[test]
fn stack_distance_draws_equal_the_formula() {
    const TOP: u64 = (1 << 53) - 1;
    /// `k`s per sampler bucket (4096 buckets of the 53-bit range).
    const BUCKET: u64 = 1 << 41;
    let mut rng = SplitMix64::new(0x0DD5_EED5);
    for n in [1, 2, 3, 7, 128, 256, 511, 512, 513, 2048] {
        for theta in [0.5, 1.0, 1.5, 1.9, 2.0, 2.2, 2.8, 3.0, 3.2, 3.5] {
            // Each bucket's first and last k, every k within 3 of a
            // distance threshold 2^53·(j/n)^(1/theta), and random ks.
            let mut ks: Vec<u64> = (0..4096)
                .flat_map(|b| [b * BUCKET, b * BUCKET + BUCKET - 1])
                .collect();
            for j in 1..n {
                let t = ((1u64 << 53) as f64 * (j as f64 / n as f64).powf(1.0 / theta)) as u64;
                ks.extend(t.saturating_sub(3)..=(t + 3).min(TOP));
            }
            ks.extend((0..10_000).map(|_| rng.next_u64() >> 11));
            let mut sampler = StackDistance::new(n, theta);
            for &k in &ks {
                let want = formula(n, theta, k);
                // The first query may resolve the bucket, the second is
                // served from whatever it resolved to.
                for _ in 0..2 {
                    let got = sampler.sample_bits(k << 11);
                    assert_eq!(got, want, "n {n} theta {theta} k {k}");
                }
            }
        }
    }
}
