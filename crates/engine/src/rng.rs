//! Deterministic pseudo-random number generation.

/// SplitMix64 pseudo-random generator.
///
/// Small, fast, and fully deterministic across platforms — every run of
/// the simulator with the same seed produces bit-identical results. Not
/// cryptographically secure (and does not need to be).
///
/// # Example
///
/// ```
/// use cmpsim_engine::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.gen_range(10);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire's multiply-shift rejection-free mapping is fine here:
        // a tiny modulo bias is irrelevant for workload synthesis, but we
        // use 128-bit multiply to avoid it anyway.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Derives an independent generator (useful for per-thread streams).
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ 0xA5A5_A5A5_5A5A_5A5A)
    }
}

/// Buckets of a sampler's cache: the top 12 of a draw's 53 uniform bits
/// pick one.
const BUCKET_BITS: u32 = 12;
const BUCKETS: usize = 1 << BUCKET_BITS;
/// Largest region whose draws are cached. At most `n - 1` of the 4096
/// buckets can straddle a distance boundary, so at least 87.5% of draws
/// are table loads; larger regions straddle in most buckets.
const MAX_CACHED_LINES: u64 = 512;
/// Cache entry of a bucket not yet resolved; any other entry is
/// [`STRADDLES`] or the bucket's distance + 1.
const UNRESOLVED: u16 = 0;
/// Cache entry of a bucket whose draws fall on both sides of a distance
/// boundary.
const STRADDLES: u16 = u16::MAX;
/// Relative widening of a bucket's endpoint values. libm `pow` is
/// accurate to about 2^-52 relative, so the guard is ~2^22 times wider
/// than the error of any draw inside the bucket.
const GUARD: f64 = 1.0 / (1u64 << 30) as f64;

/// LRU "stack distance" sampler for one region of `n` lines: a draw is
/// `floor(n·u^theta)`, clamped to `n - 1`, for `u` uniform in `[0, 1)`,
/// so it lies in `[0, n)` heavily biased toward 0 (larger `theta` =
/// stronger locality). The synthetic trace generators use it to model
/// LRU temporal locality.
///
/// Each draw consumes exactly one `next_u64` and computes `u` as
/// [`SplitMix64::gen_f64`] does. For `n <= 512` the sampler caches a
/// distance per bucket of 4096 equal ranges of `u`, once it has proven
/// that no draw in the bucket can compute another: the formula's values
/// at the bucket's first and last `u`, widened by 2^-30 relative, clamp
/// to one distance. The exact value is monotone in `u` and truncation
/// is monotone, so every draw in the bucket clamps to it too. A bucket
/// that straddles a boundary evaluates the formula on every draw. No
/// draw depends on which buckets are resolved, so the cache cannot
/// change a stream; debug builds check every cached draw against the
/// formula.
///
/// # Example
///
/// ```
/// use cmpsim_engine::{SplitMix64, StackDistance};
///
/// let mut rng = SplitMix64::new(7);
/// let mut private = StackDistance::new(128, 3.0);
/// assert!(private.sample(&mut rng) < 128);
/// ```
#[derive(Debug, Clone)]
pub struct StackDistance {
    n: u64,
    theta: f64,
    /// Per-bucket entries, allocated by the first draw of a cached
    /// region.
    table: Option<Box<[u16; BUCKETS]>>,
}

impl StackDistance {
    /// A sampler over `[0, n)` with locality exponent `theta`. Allocates
    /// nothing; `n` may be zero for a region that is never drawn from.
    pub fn new(n: u64, theta: f64) -> Self {
        StackDistance {
            n,
            theta,
            table: None,
        }
    }

    /// Draws one distance, consuming exactly one `next_u64` of `rng`.
    #[inline]
    pub fn sample(&mut self, rng: &mut SplitMix64) -> u64 {
        self.sample_bits(rng.next_u64())
    }

    /// The distance a draw returns when the generator yields `bits`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the region is empty (`n == 0`).
    pub fn sample_bits(&mut self, bits: u64) -> u64 {
        debug_assert!(self.n > 0, "stack distance over an empty region");
        let k = bits >> 11;
        if self.n > MAX_CACHED_LINES {
            return self.exact(k);
        }
        let bucket = (bits >> (64 - BUCKET_BITS)) as usize;
        let entry = match self.table.as_ref().map_or(UNRESOLVED, |t| t[bucket]) {
            UNRESOLVED => {
                let entry = self.resolve(bucket as u64);
                self.table
                    .get_or_insert_with(|| Box::new([UNRESOLVED; BUCKETS]))[bucket] = entry;
                entry
            }
            entry => entry,
        };
        if entry == STRADDLES {
            return self.exact(k);
        }
        let d = u64::from(entry - 1);
        debug_assert_eq!(d, self.exact(k), "cached stack distance of k = {k}");
        d
    }

    /// `n·u^theta` for `u = k·2^-53`.
    fn value(&self, k: u64) -> f64 {
        let u = k as f64 * (1.0 / (1u64 << 53) as f64);
        self.n as f64 * u.powf(self.theta)
    }

    /// A value truncated and clamped to a distance.
    fn clamp(&self, value: f64) -> u64 {
        (value as u64).min(self.n - 1)
    }

    /// The formula, evaluated: the distance of draw `k`.
    fn exact(&self, k: u64) -> u64 {
        self.clamp(self.value(k))
    }

    /// The cache entry of `bucket`: its one distance + 1, or
    /// [`STRADDLES`]. Takes the min and max of the endpoint values, so
    /// it holds for a decreasing formula (`theta < 0`) too.
    fn resolve(&self, bucket: u64) -> u16 {
        let first = bucket << (53 - BUCKET_BITS);
        let last = first + (1 << (53 - BUCKET_BITS)) - 1;
        let (a, b) = (self.value(first), self.value(last));
        let lo = self.clamp(a.min(b) * (1.0 - GUARD));
        let hi = self.clamp(a.max(b) * (1.0 + GUARD));
        if lo == hi {
            lo as u16 + 1
        } else {
            STRADDLES
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut r = SplitMix64::new(99);
        for _ in 0..10_000 {
            assert!(r.gen_range(17) < 17);
        }
    }

    #[test]
    fn gen_range_roughly_uniform() {
        let mut r = SplitMix64::new(3);
        let mut buckets = [0u32; 8];
        for _ in 0..80_000 {
            buckets[r.gen_range(8) as usize] += 1;
        }
        for &b in &buckets {
            assert!((8_000..12_000).contains(&b), "bucket count {b}");
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = SplitMix64::new(5);
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SplitMix64::new(11);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((27_000..33_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn stack_distance_biased_low() {
        let mut r = SplitMix64::new(13);
        let n = 1000;
        let mut s = StackDistance::new(n, 3.0);
        let samples: Vec<u64> = (0..50_000).map(|_| s.sample(&mut r)).collect();
        assert!(samples.iter().all(|&d| d < n));
        let low = samples.iter().filter(|&&d| d < n / 10).count();
        // With theta=3, u^3 < 0.1 whenever u < 0.464 -> ~46% of samples.
        assert!(low > samples.len() / 3, "low-distance fraction too small");
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = SplitMix64::new(21);
        let mut c = a.fork();
        // Streams should not be identical.
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_ne!(va, vc);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn gen_range_zero_panics() {
        SplitMix64::new(0).gen_range(0);
    }
}
