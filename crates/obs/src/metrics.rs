//! Atomic histograms for the serving ledger.
//!
//! A [`Histogram`] is a fixed array of relaxed atomics: recording an
//! observation is three atomic adds — no lock, no hashing, no
//! allocation — and [`Histogram::snapshot`] reads it back as a
//! [`HistogramSnapshot`], the form the `{"record":"metrics",...}` tail
//! renders.
//!
//! Histograms use power-of-two buckets: value 0 lands in bucket 0 and a
//! value `v ≥ 1` in bucket `64 - v.leading_zeros()`, i.e. bucket `b`
//! covers `[2^(b-1), 2^b)`. Percentiles are nearest-rank over the
//! buckets, reported as the holding bucket's lower bound.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: bucket 0 for value 0, buckets 1..=64 for
/// each power-of-two magnitude.
pub const BUCKET_COUNT: usize = 65;

/// The bucket index of a value.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// The smallest value a bucket can hold (its reported representative).
#[inline]
pub fn bucket_lower_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else {
        1u64 << (bucket - 1)
    }
}

/// A histogram that many threads record into at once: per-bucket
/// counts plus count and sum, each one relaxed atomic.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKET_COUNT],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// The observations recorded so far.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An immutable point-in-time view of a histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_of`]).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// A snapshot with no observations.
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation (single-threaded reference path used by
    /// tests and offline aggregation).
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Nearest-rank percentile over the buckets (`p` in `(0, 100]`),
    /// reported as the holding bucket's lower bound. Returns 0 on an
    /// empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut cumulative = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(n);
            if cumulative >= rank {
                return bucket_lower_bound(b);
            }
        }
        bucket_lower_bound(BUCKET_COUNT - 1)
    }

    /// Mean of observed values (0 on an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 0..BUCKET_COUNT {
            assert_eq!(bucket_of(bucket_lower_bound(b)), b, "bucket {b}");
        }
    }

    #[test]
    fn merged_histogram_equals_single_shard_reference() {
        // Observations from several threads land in one histogram; its
        // snapshot equals a single-threaded reference of the same values.
        let values = [0u64, 1, 1, 7, 100, 5_000, 123_456];
        let hist = Histogram::default();
        std::thread::scope(|s| {
            for chunk in values.chunks(3) {
                let hist = &hist;
                s.spawn(move || chunk.iter().for_each(|&v| hist.observe(v)));
            }
        });
        let mut reference = HistogramSnapshot::empty();
        for v in values {
            reference.record(v);
        }
        assert_eq!(hist.snapshot(), reference);
    }

    #[test]
    fn percentile_nearest_rank_on_exact_buckets() {
        let mut snap = HistogramSnapshot::empty();
        // 100 observations of 1, 1 of 1024: p50 is bucket(1)=1,
        // p99 still 1, p100 reports bucket_lower_bound(11) = 1024.
        for _ in 0..100 {
            snap.record(1);
        }
        snap.record(1024);
        assert_eq!(snap.percentile(50.0), 1);
        assert_eq!(snap.percentile(99.0), 1);
        assert_eq!(snap.percentile(100.0), 1024);
        assert_eq!(HistogramSnapshot::empty().percentile(50.0), 0);
    }

    #[test]
    fn concurrent_observations_are_not_lost() {
        let hist = Histogram::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| (0..1000u64).for_each(|i| hist.observe(i)));
            }
        });
        let snap = hist.snapshot();
        assert_eq!(snap.count, 4000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 4000);
        assert_eq!(snap.sum, 4 * (0..1000u64).sum::<u64>());
    }
}
