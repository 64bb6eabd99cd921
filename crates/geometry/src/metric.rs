//! Distance metrics used by the paper: Euclidean (L2), maximum (L∞) and
//! Manhattan (L1).
//!
//! All index structures in this workspace are parameterized by a [`Metric`];
//! the paper states its cost model for the Euclidean and maximum metrics.

use crate::mbr::Mbr;

/// Dimensions [`Metric::mindist_key`] and [`Metric::maxdist`] stage in one
/// stack buffer before folding them.
const FOLD_CHUNK: usize = 32;

/// A Minkowski metric on `R^d`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// The Euclidean metric (L2). The paper's default for all experiments.
    #[default]
    Euclidean,
    /// The maximum metric (L∞ / Chebyshev), for which the paper's volume
    /// formulas are exact.
    Maximum,
    /// The Manhattan metric (L1).
    Manhattan,
}

impl Metric {
    /// The one-dimensional gap between coordinate `x` and the interval
    /// `[lo, hi]`: zero inside, distance to the nearer edge outside. This is
    /// the per-dimension building block of MINDIST.
    #[inline]
    pub fn box_gap(x: f64, lo: f64, hi: f64) -> f64 {
        // Two selects over both differences, the `x < lo` one last so it
        // wins as the first branch of the plain `if`/`else if` would:
        // straight-line code a loop over dimensions can vectorize.
        let (below, above) = (lo - x, x - hi);
        let gap = if x > hi { above } else { 0.0 };
        if x < lo {
            below
        } else {
            gap
        }
    }

    /// The per-dimension contribution of a gap to this metric's comparable
    /// key: squared for Euclidean (whose key space is the squared
    /// distance), the gap itself otherwise.
    #[inline]
    pub fn contrib(self, gap: f64) -> f64 {
        match self {
            Metric::Euclidean => gap * gap,
            Metric::Maximum | Metric::Manhattan => gap,
        }
    }

    /// Folds one per-dimension contribution into an accumulator (seed 0.0):
    /// a sum for the additive metrics, a max for L∞. Accumulating
    /// [`Metric::contrib`] values over dimensions **in index order** is
    /// bit-for-bit identical to [`Metric::mindist_key`] — the contract the
    /// quantized-domain lookup tables rely on.
    ///
    /// The L∞ max is a plain select: from seed 0.0 it returns the bits
    /// `acc.max(contrib)` would for every contribution a gap yields (never
    /// -0.0; a NaN is skipped by both), and it costs one `maxsd` where
    /// `f64::max` adds a NaN fix-up to every table lookup.
    #[inline]
    pub fn combine(self, acc: f64, contrib: f64) -> f64 {
        match self {
            Metric::Euclidean | Metric::Manhattan => acc + contrib,
            Metric::Maximum => {
                if contrib > acc {
                    contrib
                } else {
                    acc
                }
            }
        }
    }

    /// Distance between two points.
    ///
    /// # Panics
    /// Debug-panics if the slices have different lengths.
    #[inline]
    pub fn distance(self, a: &[f32], b: &[f32]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::Euclidean => self.sq_euclidean(a, b).sqrt(),
            Metric::Maximum => a.iter().zip(b).fold(0.0f64, |m, (x, y)| {
                m.max((f64::from(*x) - f64::from(*y)).abs())
            }),
            Metric::Manhattan => a
                .iter()
                .zip(b)
                .map(|(x, y)| (f64::from(*x) - f64::from(*y)).abs())
                .sum(),
        }
    }

    /// Squared Euclidean distance (cheap comparison key; only meaningful for
    /// [`Metric::Euclidean`] but always computed as the sum of squared
    /// coordinate differences).
    #[inline]
    pub fn sq_euclidean(self, a: &[f32], b: &[f32]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| {
                let d = f64::from(*x) - f64::from(*y);
                d * d
            })
            .sum()
    }

    /// A comparable key for `distance`: for the Euclidean metric the
    /// *squared* distance (saves the `sqrt` in hot loops), the distance
    /// itself otherwise. Use [`Metric::key_to_distance`] to convert back.
    #[inline]
    pub fn distance_key(self, a: &[f32], b: &[f32]) -> f64 {
        match self {
            Metric::Euclidean => self.sq_euclidean(a, b),
            _ => self.distance(a, b),
        }
    }

    /// Converts a key produced by [`Metric::distance_key`] (or
    /// [`Metric::mindist_key`]) into a real distance.
    #[inline]
    pub fn key_to_distance(self, key: f64) -> f64 {
        match self {
            Metric::Euclidean => key.sqrt(),
            _ => key,
        }
    }

    /// Converts a real distance into the comparable key space.
    #[inline]
    pub fn distance_to_key(self, dist: f64) -> f64 {
        match self {
            Metric::Euclidean => dist * dist,
            _ => dist,
        }
    }

    /// MINDIST: the minimum distance from `q` to any point of the box.
    /// Zero if `q` lies inside the box.
    #[inline]
    pub fn mindist(self, q: &[f32], mbr: &Mbr) -> f64 {
        self.key_to_distance(self.mindist_key(q, mbr))
    }

    /// MINDIST in key space (squared for Euclidean). Equivalent to folding
    /// `contrib(box_gap(..))` over dimensions in index order with `combine`
    /// — bit for bit: the fold keeps that order.
    pub fn mindist_key(self, q: &[f32], mbr: &Mbr) -> f64 {
        debug_assert_eq!(q.len(), mbr.dim());
        self.fold_dims(q, mbr, Self::box_gap)
    }

    /// The one-dimensional distance from `x` to the *farther* edge of
    /// `[lo, hi]` — the per-dimension building block of MAXDIST.
    #[inline]
    pub fn far_gap(x: f64, lo: f64, hi: f64) -> f64 {
        (x - lo).abs().max((x - hi).abs())
    }

    /// MAXDIST: the maximum distance from `q` to any point of the box
    /// (distance to the farthest corner). Note this is a *distance*, not a
    /// key: the Euclidean fold takes a square root at the end.
    pub fn maxdist(self, q: &[f32], mbr: &Mbr) -> f64 {
        debug_assert_eq!(q.len(), mbr.dim());
        self.key_to_distance(self.fold_dims(q, mbr, Self::far_gap))
    }

    /// Folds `contrib(gap(q_i, lb_i, ub_i))` over the dimensions in index
    /// order with [`Self::combine`], seed `0.0`. Each chunk of up to
    /// [`FOLD_CHUNK`] contributions is first written into a stack buffer by
    /// a straight-line, branch-free loop the compiler can vectorize, then
    /// folded in index order: the same IEEE operations in the same order as
    /// the plain per-dimension loop, so the same bits.
    #[inline(always)]
    fn fold_dims(self, q: &[f32], mbr: &Mbr, gap: impl Fn(f64, f64, f64) -> f64) -> f64 {
        let mut buf = [0.0f64; FOLD_CHUNK];
        let mut acc = 0.0f64;
        let (lbs, ubs) = (mbr.lbs(), mbr.ubs());
        for (at, qs) in q.chunks(FOLD_CHUNK).enumerate() {
            let n = qs.len();
            let at = at * FOLD_CHUNK;
            let (lbs, ubs, buf) = (&lbs[at..at + n], &ubs[at..at + n], &mut buf[..n]);
            let dims = buf.iter_mut().zip(qs.iter().zip(lbs.iter().zip(ubs)));
            if self == Metric::Euclidean {
                for (c, (&x, (&lo, &hi))) in dims {
                    let g = gap(f64::from(x), f64::from(lo), f64::from(hi));
                    *c = g * g;
                }
            } else {
                for (c, (&x, (&lo, &hi))) in dims {
                    *c = gap(f64::from(x), f64::from(lo), f64::from(hi));
                }
            }
            acc = match self {
                Metric::Euclidean | Metric::Manhattan => buf.iter().fold(acc, |a, &c| a + c),
                Metric::Maximum => buf.iter().fold(acc, |a, &c| a.max(c)),
            };
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Maximum, Metric::Manhattan];

    /// [`Metric::mindist_key`] as the plain per-dimension loop: the
    /// bit-identity oracle for the chunked fold.
    fn oracle_mindist_key(m: Metric, q: &[f32], mbr: &Mbr) -> f64 {
        let mut acc = 0.0f64;
        for (i, &x) in q.iter().enumerate() {
            let gap = Metric::box_gap(f64::from(x), f64::from(mbr.lb(i)), f64::from(mbr.ub(i)));
            acc = m.combine(acc, m.contrib(gap));
        }
        acc
    }

    /// [`Metric::maxdist`] as the plain per-dimension loop.
    fn oracle_maxdist(m: Metric, q: &[f32], mbr: &Mbr) -> f64 {
        let mut acc = 0.0f64;
        for (i, &x) in q.iter().enumerate() {
            let gap = Metric::far_gap(f64::from(x), f64::from(mbr.lb(i)), f64::from(mbr.ub(i)));
            acc = m.combine(acc, m.contrib(gap));
        }
        m.key_to_distance(acc)
    }

    /// The L∞ select in `combine` returns `f64::max`'s bits for every
    /// contribution a gap can yield, NaN included.
    #[test]
    fn max_combine_matches_f64_max_on_gap_values() {
        let vals = [0.0, 1e-300, 0.5, 7.25, f64::MAX, f64::INFINITY];
        for &acc in &vals {
            for c in vals.into_iter().chain([f64::NAN]) {
                let got = Metric::Maximum.combine(acc, c);
                assert_eq!(got.to_bits(), acc.max(c).to_bits(), "{acc} max {c}");
            }
        }
    }

    /// Per-dimension box shapes: `0` a box around a free coordinate, `1`
    /// a box whose lower edge is the query coordinate, `2` one whose upper
    /// edge is, `3` a degenerate box at the query coordinate, `4` a
    /// degenerate box elsewhere.
    fn case_strategy() -> impl Strategy<Value = (Vec<f32>, Mbr)> {
        let dim = (-10.0f32..10.0, -10.0f32..10.0, 0.0f32..5.0, 0u8..5);
        proptest::collection::vec(dim, 1..=70).prop_map(|dims| {
            let (mut q, mut lb, mut ub) = (Vec::new(), Vec::new(), Vec::new());
            for (x, at, ext, shape) in dims {
                let (l, u) = match shape {
                    0 => (at, at + ext),
                    1 => (x, x + ext),
                    2 => (x - ext, x),
                    3 => (x, x),
                    _ => (at, at),
                };
                q.push(x);
                lb.push(l);
                ub.push(u);
            }
            (q, Mbr::from_bounds(lb, ub))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The chunked, branch-free MINDIST and MAXDIST return the plain
        /// loops' bits for every dimensionality across the chunk boundary.
        #[test]
        fn prop_chunked_fold_matches_oracle((q, mbr) in case_strategy()) {
            for m in METRICS {
                prop_assert_eq!(
                    m.mindist_key(&q, &mbr).to_bits(),
                    oracle_mindist_key(m, &q, &mbr).to_bits(),
                    "{:?} mindist_key d={}", m, q.len()
                );
                prop_assert_eq!(
                    m.maxdist(&q, &mbr).to_bits(),
                    oracle_maxdist(m, &q, &mbr).to_bits(),
                    "{:?} maxdist d={}", m, q.len()
                );
            }
        }
    }

    #[test]
    fn signed_zero_query_matches_oracle() {
        let mbr = Mbr::from_bounds(vec![0.0, -0.0, -1.0], vec![0.0, 1.0, -0.0]);
        for q in [[0.0f32, -0.0, 0.0], [-0.0, 0.0, -0.0]] {
            for m in METRICS {
                assert_eq!(
                    m.mindist_key(&q, &mbr).to_bits(),
                    oracle_mindist_key(m, &q, &mbr).to_bits()
                );
                assert_eq!(
                    m.maxdist(&q, &mbr).to_bits(),
                    oracle_maxdist(m, &q, &mbr).to_bits()
                );
            }
        }
    }

    const A: [f32; 3] = [0.0, 0.0, 0.0];
    const B: [f32; 3] = [3.0, 4.0, 0.0];

    #[test]
    fn euclidean_distance() {
        assert!((Metric::Euclidean.distance(&A, &B) - 5.0).abs() < 1e-12);
        assert!((Metric::Euclidean.sq_euclidean(&A, &B) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn maximum_distance() {
        assert!((Metric::Maximum.distance(&A, &B) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn manhattan_distance() {
        assert!((Metric::Manhattan.distance(&A, &B) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn key_roundtrip() {
        for m in [Metric::Euclidean, Metric::Maximum, Metric::Manhattan] {
            let key = m.distance_key(&A, &B);
            let d = m.distance(&A, &B);
            assert!((m.key_to_distance(key) - d).abs() < 1e-12);
            assert!((m.distance_to_key(d) - key).abs() < 1e-9);
        }
    }

    #[test]
    fn mindist_inside_is_zero() {
        let mbr = Mbr::from_bounds(vec![0.0, 0.0], vec![1.0, 1.0]);
        for m in [Metric::Euclidean, Metric::Maximum, Metric::Manhattan] {
            assert_eq!(m.mindist(&[0.5, 0.5], &mbr), 0.0);
        }
    }

    #[test]
    fn mindist_outside() {
        let mbr = Mbr::from_bounds(vec![0.0, 0.0], vec![1.0, 1.0]);
        let q = [2.0, 2.0];
        assert!((Metric::Euclidean.mindist(&q, &mbr) - 2.0f64.sqrt()).abs() < 1e-9);
        assert!((Metric::Maximum.mindist(&q, &mbr) - 1.0).abs() < 1e-12);
        assert!((Metric::Manhattan.mindist(&q, &mbr) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn maxdist_reaches_far_corner() {
        let mbr = Mbr::from_bounds(vec![0.0, 0.0], vec![1.0, 1.0]);
        let q = [0.0, 0.0];
        assert!((Metric::Euclidean.maxdist(&q, &mbr) - 2.0f64.sqrt()).abs() < 1e-9);
        assert!((Metric::Maximum.maxdist(&q, &mbr) - 1.0).abs() < 1e-12);
    }
}
