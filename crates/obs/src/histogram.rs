//! Power-of-two latency histograms.
//!
//! Buckets double in width so the histogram spans microseconds to days in
//! a fixed 40-slot array with no allocation on the record path. This type
//! started life as the service's per-stage latency histogram
//! (`preexec-serve`) and moved here so every layer of the system can
//! record into the shared metrics [`Registry`](crate::Registry).

use std::time::Duration;

/// Number of power-of-two buckets: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` microseconds (bucket 0 also absorbs sub-microsecond
/// samples, the last bucket absorbs everything beyond ~2^39 µs ≈ 6 days).
pub(crate) const BUCKETS: usize = 40;

/// A latency histogram with power-of-two microsecond buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }

    /// Records one sample of `us` microseconds.
    pub fn record_us(&mut self, us: u64) {
        let idx = (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: Duration) {
        self.record_us(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Merges another histogram into this one (bucket-wise sum).
    pub fn absorb(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, in microseconds (saturating).
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// The largest recorded sample, in microseconds (0 when empty).
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Mean sample, in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// The inclusive upper bound reported for bucket `i`.
    ///
    /// A raw power-of-two boundary `2^(i+1)` over-reports two ways: for
    /// the saturating top bucket it *under*-reports (samples up to
    /// `u64::MAX` land there, so only `max_us` bounds them), and for any
    /// bucket it may exceed the largest sample ever recorded. Clamping
    /// every bound to `max_us` fixes both: `max_us` dominates every
    /// sample by definition, so the clamped value is still an upper
    /// bound of buckets `0..=i`, and no reported bound can exceed the
    /// data.
    fn bucket_upper(&self, i: usize) -> u64 {
        if i >= BUCKETS - 1 {
            self.max_us
        } else {
            (1u64 << (i + 1)).min(self.max_us)
        }
    }

    /// An upper bound below which at least `q` (0..=1) of the samples
    /// fall, from the bucket boundaries (0 when empty). With power-of-two
    /// buckets this is at most 2× the true quantile, and it never exceeds
    /// [`max_us`](Self::max_us) — in particular `quantile_us(1.0)` always
    /// bounds every recorded sample, even ones in the saturating top
    /// bucket.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen >= target.max(1) {
                return self.bucket_upper(i);
            }
        }
        self.max_us
    }

    /// The non-empty buckets as `(lower-bound-µs, count)` pairs, in
    /// ascending bucket order. Bucket 0's lower bound is reported as `0`:
    /// it absorbs sub-microsecond samples (`record_us` clamps to 1 for
    /// bucket *indexing* only), so labeling it `1` would undercount
    /// sub-µs work for any consumer summing `lower × count`.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (if i == 0 { 0 } else { 1u64 << i }, n))
            .collect()
    }

    /// The non-empty buckets as cumulative `(upper-bound-µs, count ≤ bound)`
    /// pairs — the shape a Prometheus `_bucket{le=...}` series wants.
    /// Upper bounds are clamped to `max_us` (see `quantile_us`), so the
    /// final pair is always `(max_us, count)`.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut seen = 0u64;
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                seen += n;
                (self.bucket_upper(i), seen)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_power_of_two_buckets() {
        let mut h = Histogram::new();
        for us in [0, 1, 2, 3, 4, 1000, 1_000_000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 7);
        assert!(h.mean_us() > 0.0);
        assert_eq!(h.max_us(), 1_000_000);
        // 0 and 1 share bucket 0; 2 and 3 share bucket 1; 4 is bucket 2.
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.len(), 5);
        assert_eq!(buckets[0], (0, 2), "bucket 0 lower bound must be 0");
        assert_eq!(buckets[1], (2, 2));
        let cum = h.cumulative_buckets();
        assert_eq!(cum.last().copied(), Some((1_000_000, 7)));
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record_us(10);
        }
        h.record_us(100_000);
        assert!(h.quantile_us(0.5) >= 10);
        assert!(h.quantile_us(0.5) <= 32);
        assert!(h.quantile_us(1.0) >= 100_000);
        assert_eq!(h.quantile_us(1.0), h.max_us());
        assert_eq!(Histogram::new().quantile_us(0.5), 0);
    }

    #[test]
    fn quantile_bounds_never_exceed_the_max_sample() {
        // A single 3-µs sample lands in bucket [2, 4); the raw bucket
        // bound 4 exceeds the data, the clamped bound must not.
        let mut h = Histogram::new();
        h.record_us(3);
        assert_eq!(h.quantile_us(0.5), 3);
        assert_eq!(h.quantile_us(1.0), 3);
    }

    #[test]
    fn giant_samples_saturate() {
        let mut h = Histogram::new();
        h.record(Duration::from_secs(1_000_000));
        h.record_us(u64::MAX);
        assert_eq!(h.count(), 2);
        // Both samples sit in the saturating top bucket; the quantile
        // bound must still dominate them (the raw bucket boundary 2^40
        // would not).
        assert_eq!(h.quantile_us(1.0), u64::MAX);
        assert_eq!(h.quantile_us(1.0), h.max_us());
        assert!(h.quantile_us(0.5) >= 1_000_000 * 1_000_000);
    }

    #[test]
    fn absorb_merges_counts_and_bounds() {
        let mut a = Histogram::new();
        a.record_us(5);
        let mut b = Histogram::new();
        b.record_us(1_000);
        a.absorb(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_us(), 1_000);
        assert_eq!(a.sum_us(), 1_005);
    }
}
