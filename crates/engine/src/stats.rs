//! Latency statistics: a power-of-two bucketed histogram.

/// Power-of-two bucketed histogram for latency-like values.
///
/// Bucket `i` counts values in `[2^i, 2^(i+1))`; bucket 0 also counts 0.
///
/// # Example
///
/// ```
/// use cmpsim_engine::stats::Log2Histogram;
///
/// let mut h = Log2Histogram::new();
/// h.add(100);
/// h.add(431);
/// assert_eq!(h.count(), 2);
/// assert!(h.mean() > 200.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Log2Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one value.
    pub fn add(&mut self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest observed value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Count in bucket `i` (values in `[2^i, 2^(i+1))`).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Approximate p-th percentile (`p` in `[0,1]`) from bucket midpoints,
    /// clamped so it never exceeds [`Log2Histogram::max`] (the top
    /// bucket's midpoint can otherwise overshoot the largest observation).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                // midpoint of [2^i, 2^(i+1))
                let mid = (1u64 << i) + ((1u64 << i) >> 1);
                return mid.min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets() {
        let mut h = Log2Histogram::new();
        h.add(0);
        h.add(1);
        h.add(2);
        h.add(3);
        h.add(1024);
        assert_eq!(h.bucket(0), 2); // 0 and 1
        assert_eq!(h.bucket(1), 2); // 2 and 3
        assert_eq!(h.bucket(10), 1); // 1024
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 1024);
    }

    #[test]
    fn histogram_percentile_never_exceeds_max() {
        // Regression: the top bucket's midpoint used to overshoot max().
        // 1000 lands in bucket 9 ([512, 1024)) whose midpoint is 768 — fine
        // — but 600 lands in the same bucket and 768 > 600.
        let mut h = Log2Histogram::new();
        h.add(600);
        assert_eq!(h.percentile(1.0), 600);
        assert!(h.percentile(0.5) <= h.max());

        let mut h2 = Log2Histogram::new();
        h2.add(5);
        h2.add(1025);
        assert!(h2.percentile(0.99) <= h2.max());
        assert_eq!(Log2Histogram::new().percentile(0.5), 0);
    }

    #[test]
    fn histogram_merge_matches_sequential() {
        let mut whole = Log2Histogram::new();
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        for v in [0u64, 1, 7, 100, 431, 9000] {
            whole.add(v);
            if v < 100 {
                a.add(v);
            } else {
                b.add(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn histogram_percentile_monotone() {
        let mut h = Log2Histogram::new();
        for v in [10u64, 20, 40, 80, 160, 320, 640] {
            h.add(v);
        }
        assert!(h.percentile(0.1) <= h.percentile(0.5));
        assert!(h.percentile(0.5) <= h.percentile(0.99));
    }
}
