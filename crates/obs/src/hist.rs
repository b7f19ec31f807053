//! Log2-bucketed latency histograms.
//!
//! Durations in nanoseconds are hashed into one of 64 power-of-two buckets:
//! bucket 0 holds the value 0, bucket `b >= 1` holds `[2^(b-1), 2^b)`.
//! Recording is one relaxed `fetch_add` on the bucket plus two more for the
//! running sum and max — no locks, no allocation, safe to call from any
//! thread. The price is resolution: a quantile read from bucket `b` is only
//! known to within a factor of two, so snapshots report the geometric
//! midpoint of the bucket (clamped to the observed max), which keeps
//! `p99/p99.9` honest to well under the bucket width for LSM-scale
//! latencies (hundreds of ns to hundreds of ms).

use std::sync::atomic::{AtomicU64, Ordering};

/// 64 buckets cover 0..2^63 ns — about 292 years — so overflow clamping
/// into the last bucket is theoretical.
pub const HIST_BUCKETS: usize = 64;

/// A concurrent log2 histogram of nanosecond durations.
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a nanosecond value: `0 -> 0`, otherwise
    /// `floor(log2(n)) + 1`.
    #[inline]
    pub fn bucket_of(nanos: u64) -> usize {
        if nanos == 0 {
            0
        } else {
            (64 - nanos.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Record one observation. Lock-free and allocation-free.
    #[inline]
    pub fn record(&self, nanos: u64) {
        self.buckets[Self::bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
        self.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Copy the current bucket counts out. Not atomic as a whole (buckets
    /// are read one at a time), which is fine for monitoring.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`], with quantile readers.
#[derive(Clone)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    /// Folds another snapshot into this one: bucket-wise and counter sums,
    /// max of maxes. Used to aggregate per-shard histograms into one
    /// engine-wide latency distribution — log2 buckets merge exactly.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Mean in nanoseconds, 0 if empty.
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate value at quantile `q` in `[0, 1]`, in nanoseconds.
    ///
    /// Walks the cumulative bucket counts and returns the geometric
    /// midpoint of the bucket containing the `q`-th observation, clamped
    /// to the recorded max so the top quantiles never overshoot reality.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let mid = match b {
                    0 => 0u64,
                    // Geometric midpoint of [2^(b-1), 2^b): 2^(b-1) * sqrt(2).
                    _ => {
                        let lo = 1u64 << (b - 1);
                        ((lo as f64) * std::f64::consts::SQRT_2) as u64
                    }
                };
                return mid.min(self.max);
            }
        }
        self.max
    }

    pub fn p50_nanos(&self) -> u64 {
        self.quantile_nanos(0.50)
    }
    pub fn p90_nanos(&self) -> u64 {
        self.quantile_nanos(0.90)
    }
    pub fn p99_nanos(&self) -> u64 {
        self.quantile_nanos(0.99)
    }
    pub fn p999_nanos(&self) -> u64 {
        self.quantile_nanos(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(1023), 10);
        assert_eq!(LatencyHistogram::bucket_of(1024), 11);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn quantiles_track_distribution() {
        let h = LatencyHistogram::new();
        // 90 fast ops (~1us), 10 slow ops (~1ms).
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 1_000_000);
        // p50 lands in the ~1us bucket (within a factor of two).
        let p50 = s.p50_nanos();
        assert!((512..=2048).contains(&p50), "p50={p50}");
        // p99 lands in the ~1ms bucket.
        let p99 = s.p99_nanos();
        assert!((524_288..=1_048_576).contains(&p99), "p99={p99}");
        // Mean is exact: (90*1e3 + 10*1e6) / 100.
        assert!((s.mean_nanos() - 100_900.0).abs() < 1e-6);
    }

    #[test]
    fn quantile_clamps_to_max() {
        let h = LatencyHistogram::new();
        h.record(1_500);
        let s = h.snapshot();
        assert_eq!(s.p999_nanos(), 1_448); // midpoint of [1024,2048)
        assert!(s.p999_nanos() <= s.max);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.p50_nanos(), 0);
        assert_eq!(s.mean_nanos(), 0.0);
    }
}
