//! Log-bucketed histogram with lock-free recording.
//!
//! Buckets are derived straight from the IEEE-754 bit pattern of the
//! recorded value: the unbiased exponent selects an octave and the top
//! `SUB_BITS` mantissa bits split each octave into `SUBS` sub-buckets,
//! so bucket resolution is a constant factor of `2^(1/SUBS) ≈ 1.19` with
//! no floating-point math on the record path. Values outside
//! `[2^MIN_EXP, 2^MAX_EXP)` (including zero and negatives) clamp into the
//! underflow/overflow buckets.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Mantissa bits used to subdivide each octave.
const SUB_BITS: u32 = 2;
/// Sub-buckets per octave (`2^SUB_BITS`).
const SUBS: usize = 1 << SUB_BITS;
/// Smallest representable octave: values below `2^MIN_EXP` underflow.
/// `2^-40 ≈ 9.1e-13`, comfortably below a nanosecond in seconds.
const MIN_EXP: i32 = -40;
/// Largest representable octave: values at or above `2^MAX_EXP` overflow.
/// `2^40 ≈ 1.1e12`, comfortably above any byte size or second count here.
const MAX_EXP: i32 = 40;
/// Total bucket count: regular buckets plus underflow (index 0) and
/// overflow (last index).
pub(crate) const BUCKETS: usize = (MAX_EXP - MIN_EXP) as usize * SUBS + 2;

/// Maps a value to its bucket index using only integer bit operations.
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7FF) as i32;
    if biased == 0 {
        return 0; // subnormal: far below MIN_EXP
    }
    let exp = biased - 1023;
    if exp < MIN_EXP {
        return 0;
    }
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    1 + (exp - MIN_EXP) as usize * SUBS + sub
}

/// Lower/upper value bounds of a bucket. The underflow bucket spans
/// `[0, 2^MIN_EXP)`; the overflow bucket spans `[2^MAX_EXP, +inf)`.
pub fn bucket_bounds(index: usize) -> (f64, f64) {
    if index == 0 {
        return (0.0, (2f64).powi(MIN_EXP));
    }
    if index >= BUCKETS - 1 {
        return ((2f64).powi(MAX_EXP), f64::INFINITY);
    }
    let j = index - 1;
    let octave = MIN_EXP + (j / SUBS) as i32;
    let sub = (j % SUBS) as f64;
    let base = (2f64).powi(octave);
    let lo = base * (1.0 + sub / SUBS as f64);
    let hi = base * (1.0 + (sub + 1.0) / SUBS as f64);
    (lo, hi)
}

/// Shared histogram storage: one atomic slot per bucket plus running
/// count and sum. Recording is wait-free apart from the sum's CAS loop.
pub(crate) struct HistogramCore {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    /// Sum of recorded values, stored as `f64` bits and updated by CAS.
    sum_bits: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> Self {
        HistogramCore {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    pub(crate) fn record(&self, v: f64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        let mut cur = self.sum_bits.load(Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .sum_bits
                .compare_exchange_weak(cur, next, Relaxed, Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Relaxed);
                (c != 0).then_some((i, c))
            })
            .collect();
        let clipped = |idx: usize| {
            buckets
                .iter()
                .find(|&&(i, _)| i == idx)
                .map_or(0, |&(_, c)| c)
        };
        HistogramSnapshot {
            count: self.count.load(Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Relaxed)),
            underflow: clipped(0),
            overflow: clipped(BUCKETS - 1),
            buckets,
        }
    }
}

/// Point-in-time copy of a histogram: total count, value sum, and the
/// non-empty `(bucket index, count)` pairs in index order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Values clipped into the underflow bucket (zero, negative, NaN or
    /// below `2^MIN_EXP`). A nonzero count means low quantiles report
    /// a flat 0 rather than a real value.
    pub underflow: u64,
    /// Values clipped into the overflow bucket (at or above
    /// `2^MAX_EXP`). A nonzero count means high quantiles (the p99 a
    /// dashboard alerts on) are clamped to the bucket floor.
    pub overflow: u64,
    /// Non-empty buckets as `(bucket_index, count)`, ascending by index.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate: the value representative of the
    /// bucket holding the `ceil(q·count)`-th recorded value (1-based).
    /// Regular buckets answer with their geometric midpoint, so the
    /// estimate is always within one bucket of the true value under the
    /// same rank convention. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(i, c) in &self.buckets {
            cum += c;
            if cum >= target {
                let (lo, hi) = bucket_bounds(i);
                return if i == 0 {
                    0.0
                } else if hi.is_infinite() {
                    lo
                } else {
                    (lo * hi).sqrt()
                };
            }
        }
        0.0
    }

    /// Counts recorded since `earlier` was taken: bucket-wise and total
    /// saturating subtraction. `earlier` must be an older snapshot of the
    /// same histogram for the result to be meaningful.
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut old: Vec<(usize, u64)> = earlier.buckets.clone();
        let buckets = self
            .buckets
            .iter()
            .filter_map(|&(i, c)| {
                let prev = old
                    .iter_mut()
                    .find(|(j, _)| *j == i)
                    .map_or(0, |(_, p)| std::mem::take(p));
                let d = c.saturating_sub(prev);
                (d != 0).then_some((i, d))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum - earlier.sum,
            underflow: self.underflow.saturating_sub(earlier.underflow),
            overflow: self.overflow.saturating_sub(earlier.overflow),
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_range() {
        // Every regular bucket's upper bound is the next bucket's lower bound.
        for i in 0..BUCKETS - 1 {
            let (_, hi) = bucket_bounds(i);
            let (lo_next, _) = bucket_bounds(i + 1);
            assert!(
                (hi - lo_next).abs() <= hi * 1e-12,
                "gap between buckets {i} and {}",
                i + 1
            );
        }
    }

    #[test]
    fn values_land_in_their_bounds() {
        for v in [1e-9, 0.5, 1.0, 1.5, 2.0, 3.7, 1024.0, 1e9] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v < hi, "{v} not in [{lo}, {hi}) (bucket {i})");
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e300), BUCKETS - 1);
    }

    #[test]
    fn snapshot_counts_clips_honestly() {
        let core = HistogramCore::new();
        for v in [1.0, 2.0, 0.5] {
            core.record(v);
        }
        assert_eq!(core.snapshot().underflow, 0);
        assert_eq!(core.snapshot().overflow, 0);
        core.record(0.0); // clamps low
        core.record(-3.0); // clamps low
        core.record(1e300); // clamps high
        let snap = core.snapshot();
        assert_eq!(snap.underflow, 2);
        assert_eq!(snap.overflow, 1);
        assert_eq!(snap.count, 6);
        // The clipped p-max is the overflow bucket floor — visible as a
        // clip, not silently plausible.
        assert_eq!(snap.quantile(1.0), bucket_bounds(BUCKETS - 1).0);
    }

    #[test]
    fn diff_subtracts_clip_counts() {
        let core = HistogramCore::new();
        core.record(-1.0);
        let earlier = core.snapshot();
        core.record(-2.0);
        core.record(1e301);
        let d = core.snapshot().diff(&earlier);
        assert_eq!(d.underflow, 1);
        assert_eq!(d.overflow, 1);
        assert_eq!(d.count, 2);
    }
}
