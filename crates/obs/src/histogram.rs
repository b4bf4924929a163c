//! Fixed log-bucketed histograms.
//!
//! Values are `u64` (the instrumented quantities are nanoseconds, bytes
//! and counts). Bucketing is by bit length: bucket `0` holds the value
//! `0`, bucket `i` (1 ≤ i ≤ 64) holds `2^(i-1) ..= 2^i - 1`. That gives a
//! fixed 65-bucket layout covering the whole `u64` range with ~2× relative
//! error — no configuration, no allocation, and `observe` is one
//! `leading_zeros` plus two relaxed atomic adds.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets (bit lengths 0..=64).
pub const BUCKETS: usize = 65;

/// A concurrent log-bucketed histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// The bucket index a value lands in: its bit length.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i` (`2^i - 1`; bucket 0 holds only
/// zero). Bucket 64's bound is `u64::MAX`.
pub fn bucket_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one value.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Merges a thread-private accumulator: one add per non-empty bucket
    /// plus sum and count, however many values it observed. Totals equal
    /// what per-value [`Histogram::observe`] calls would have produced.
    pub fn absorb(&self, local: &LocalHistogram) {
        if local.count == 0 {
            return;
        }
        for (cell, &n) in self.buckets.iter().zip(&local.buckets) {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(local.sum, Ordering::Relaxed);
        self.count.fetch_add(local.count, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy. Not atomic across buckets — concurrent
    /// observers may straddle the read — but each cell is itself coherent,
    /// which is all exposition needs.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum(),
            count: self.count(),
        }
    }

    /// Zeroes every cell (test/reset support).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

/// A plain (non-atomic) accumulator with [`Histogram`]'s bucket layout,
/// for a hot loop owned by one thread: observe privately, then publish the
/// lot with one [`Histogram::absorb`].
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: [u64; BUCKETS],
    sum: u64,
    count: u64,
}

impl Default for LocalHistogram {
    fn default() -> LocalHistogram {
        LocalHistogram {
            buckets: [0; BUCKETS],
            sum: 0,
            count: 0,
        }
    }
}

impl LocalHistogram {
    pub fn new() -> LocalHistogram {
        LocalHistogram::default()
    }

    /// Records one value (sum wraps on overflow, like [`Histogram`]).
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.sum = self.sum.wrapping_add(v);
        self.count += 1;
    }
}

/// A point-in-time histogram copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Raw (non-cumulative) per-bucket counts, indexed by bit length.
    pub buckets: [u64; BUCKETS],
    pub sum: u64,
    pub count: u64,
}

impl HistogramSnapshot {
    /// `(inclusive upper bound, cumulative count)` for every bucket whose
    /// cumulative count changed — the Prometheus `le` series, sparsely.
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                cum += c;
                out.push((bucket_bound(i), cum));
            }
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn zero_lands_in_bucket_zero() {
        assert_eq!(bucket_index(0), 0);
        let h = Histogram::new();
        h.observe(0);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 0);
        assert_eq!(s.cumulative(), vec![(0, 1)]);
    }

    #[test]
    fn exact_boundaries_split_buckets() {
        // 2^k - 1 is the last value of bucket k; 2^k opens bucket k + 1.
        for k in 1..64usize {
            let top = (1u64 << k) - 1;
            assert_eq!(bucket_index(top), k, "2^{k} - 1");
            assert_eq!(bucket_index(top + 1), k + 1, "2^{k}");
            assert_eq!(bucket_bound(k), top);
        }
        assert_eq!(bucket_index(1), 1);
    }

    #[test]
    fn u64_max_lands_in_last_bucket() {
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bound(64), u64::MAX);
        let h = Histogram::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[64], 2);
        assert_eq!(s.cumulative(), vec![(u64::MAX, 2)]);
    }

    #[test]
    fn cumulative_counts_accumulate() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        let cum = s.cumulative();
        assert_eq!(
            cum,
            vec![
                (0, 1),        // 0
                (1, 2),        // 1
                (3, 4),        // 2, 3
                (7, 5),        // 4
                (1023, 6),     // 1000
                (u64::MAX, 7), // u64::MAX
            ]
        );
        assert_eq!(cum.last().unwrap().1, s.count);
    }

    #[test]
    fn absorb_equals_per_value_observation() {
        let values = [0u64, 1, 2, 3, 4, 1000, 1000, u64::MAX];
        let direct = Histogram::new();
        let mut local = LocalHistogram::new();
        for v in values {
            direct.observe(v);
            local.observe(v);
        }
        let merged = Histogram::new();
        merged.observe(7);
        direct.observe(7);
        merged.absorb(&local);
        merged.absorb(&LocalHistogram::new());
        assert_eq!(merged.snapshot(), direct.snapshot());
    }

    #[test]
    fn reset_zeroes_everything() {
        let h = Histogram::new();
        h.observe(42);
        h.reset();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.sum, 0);
        assert!(s.cumulative().is_empty());
    }
}
