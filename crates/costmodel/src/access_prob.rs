//! Access probability of a data page during nearest-neighbor search
//! (Section 2.2, eqs 2–5).
//!
//! A page `b_i` must be read iff none of the pages with higher priority
//! contains a point inside the *b_i-sphere* — the ball around the query
//! point touching `b_i` (radius `MINDIST(q, b_i)`). Under a uniform
//! within-page distribution, a page `b_k` holding `M_k` points avoids the
//! intersection with probability `(1 − V_int/V_MBR)^{M_k}` (eq 3), and the
//! access probability is the product over all higher-priority pages
//! (eq 2).

use iq_geometry::{Mbr, Metric};

/// The fraction of `mbr`'s volume that lies inside the metric ball of
/// radius `r` around `q` — `V_int/V_MBR` of eq 3, i.e. the probability
/// that a point uniformly distributed in the MBR falls inside the ball.
///
/// * **Maximum metric**: exact per-dimension clipping (eq 5 normalized).
/// * **Euclidean / Manhattan metrics**: the probability
///   `P(Σ g(x_i − q_i) ≤ budget)` (with `g = (·)²` resp. `|·|`) is read
///   from a discretized convolution of the exact per-dimension gap
///   distributions — accurate down to the small fractions the page
///   scheduler's decisions hinge on, where both fill-factor scalings
///   (collapse to 0 as `d` grows) and CLT tails (wrong by orders of
///   magnitude) fail.
///
/// A one-shot [`GapSums::fraction`]: it builds the box's distribution for
/// the radius class of `r`, then reads it at `r`.
pub fn fraction_in_ball(metric: Metric, mbr: &Mbr, q: &[f32], r: f64) -> f64 {
    GapSums::default().fraction(metric, 0, mbr, q, r)
}

/// [`fraction_in_ball`] under the maximum metric: exact per-dimension
/// clipping. Zero-extent dimensions are inside the slab or not.
fn max_metric_fraction(mbr: &Mbr, q: &[f32], r: f64) -> f64 {
    if Metric::Maximum.mindist(q, mbr) > r {
        return 0.0;
    }
    if Metric::Maximum.maxdist(q, mbr) <= r {
        return 1.0;
    }
    let mut frac = 1.0f64;
    for (i, &qi) in q.iter().enumerate() {
        let qi = f64::from(qi);
        let lo = f64::from(mbr.lb(i)).max(qi - r);
        let hi = f64::from(mbr.ub(i)).min(qi + r);
        let clipped = (hi - lo).max(0.0);
        let ext = mbr.extent(i);
        if ext == 0.0 {
            // Degenerate dimension: inside the slab or not.
            let x = f64::from(mbr.lb(i));
            if !(qi - r..=qi + r).contains(&x) {
                return 0.0;
            }
        } else {
            frac *= clipped / ext;
            if frac == 0.0 {
                return 0.0;
            }
        }
    }
    frac
}

/// The per-dimension gap transform of the summed metric.
#[derive(Clone, Copy, Debug)]
enum Gap {
    /// `(x - q)²` — Euclidean.
    Squared,
    /// `|x - q|` — Manhattan.
    Absolute,
}

impl Gap {
    #[inline]
    fn apply(self, v: f64) -> f64 {
        match self {
            Gap::Squared => v * v,
            Gap::Absolute => v.abs(),
        }
    }

    /// Replaces each `t` in `ts` by the positive root `s` of
    /// `gap(s) = t + shift`.
    #[inline]
    fn roots(self, ts: &mut [f64], shift: f64) {
        match self {
            Gap::Squared => ts.iter_mut().for_each(|t| *t = (*t + shift).sqrt()),
            Gap::Absolute => ts.iter_mut().for_each(|t| *t += shift),
        }
    }

    /// The smallest and largest gap of `x − q` over `x − q ∈ [lo, hi]`.
    #[inline]
    fn range(self, lo: f64, hi: f64) -> (f64, f64) {
        let nearest = if lo > 0.0 {
            lo
        } else if hi < 0.0 {
            hi
        } else {
            0.0
        };
        (self.apply(nearest), self.apply(lo).max(self.apply(hi)))
    }
}

/// Number of bins of one gap-sum distribution (trade-off: accuracy of
/// the small fractions the page scheduler's decisions hinge on vs work
/// per build). A build costs O(d·B) for the per-dimension bin masses
/// plus the convolutions: per dimension, one multiply and one add per
/// (output bin, pmf bin) pair inside the supports, rounded out to
/// `CONV_BLOCK`-bin blocks — O(d·B²) at worst.
const CONV_BINS: usize = 64;

/// Output bins the convolution accumulates together: two AVX2 registers
/// of `f32`, four SSE2 ones. `CONV_BINS` is a multiple of it.
const CONV_BLOCK: usize = 16;

/// Mass the convolution may drop from the bottom of the pmf, per
/// dimension: eq 3 raises `1 − V_int/V_MBR` to a page's point count, so
/// a fraction this small moves an access probability by at most the
/// page's point count times it.
const NEGLIGIBLE: f32 = 1e-12;

/// No page's distribution has been looked at yet.
const UNSEEN: u32 = u32::MAX;

/// The end of a page's list of distributions.
const END: u32 = u32::MAX - 1;

/// One page's gap-sum range and its distributions.
#[derive(Clone, Copy, Debug)]
struct PageGaps {
    /// `Σ_i min gap_i`: MINDIST in the gap domain (squared for
    /// Euclidean).
    lo: f64,
    /// `Σ_i max gap_i`: MAXDIST in the gap domain.
    hi: f64,
    /// The page's first distribution in [`GapSums::dists`], [`END`] for
    /// none, [`UNSEEN`] before the page's first read.
    head: u32,
}

/// One gap-sum distribution: the CDF of the page's shifted gap sum
/// `Σ_i (gap_i − min gap_i)` over `CONV_BINS` bins of width `h`.
#[derive(Clone, Debug)]
struct GapSum {
    /// Radius class: the distribution serves budgets in
    /// `(2^(class − 1), 2^class]`.
    class: i32,
    /// The page's next distribution, or [`END`].
    next: u32,
    /// Bin width.
    h: f64,
    /// `cdf[k]`: the mass of bins `0..k`; `cdf[0] = 0`.
    cdf: [f64; CONV_BINS + 1],
}

/// The eq 5 gap-sum distributions of one query's plan: one per
/// (competitor page, radius class), built on the first read of that
/// class and read at every radius in it.
///
/// A radius class is a power-of-two range of the gap budget (`r²` for
/// Euclidean, `r` for Manhattan): class `c = ⌈log2 budget⌉`. Its
/// distribution is that of the page's gap sum minus its MINDIST
/// (each dimension's gap shifted by that dimension's minimum), so the
/// bins start where the page does. It covers `[0, min(2^c, MAXDIST) −
/// MINDIST]` in the gap domain, so any budget of the class that is not
/// decided by MINDIST or MAXDIST alone reads inside it.
///
/// The distributions live in one arena, so a build allocates nothing
/// once the arena has grown; each is `CONV_BINS + 1` prefix sums. A
/// query holds at most one per (page it reads a fraction of, class it
/// reads that page at). The maximum metric has no convolution: its
/// fractions are exact and read directly.
#[derive(Clone, Debug, Default)]
pub struct GapSums {
    /// Per page id: its gap-sum range and list head.
    pages: Vec<PageGaps>,
    /// The arena of built distributions.
    dists: Vec<GapSum>,
    /// Fractions read.
    reads: u64,
}

impl GapSums {
    /// Distributions built so far: at most one per (page, radius class).
    pub fn builds(&self) -> u64 {
        self.dists.len() as u64
    }

    /// Fractions read so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// [`fraction_in_ball`] of page `page`, whose box is `mbr`: built on
    /// the first read of `r`'s radius class, read from the cache after.
    /// A page id must name the same box for the life of the cache.
    pub fn fraction(&mut self, metric: Metric, page: usize, mbr: &Mbr, q: &[f32], r: f64) -> f64 {
        debug_assert_eq!(q.len(), mbr.dim());
        self.reads += 1;
        if r <= 0.0 {
            return 0.0;
        }
        let gap = match metric {
            Metric::Maximum => return max_metric_fraction(mbr, q, r),
            Metric::Euclidean => Gap::Squared,
            Metric::Manhattan => Gap::Absolute,
        };
        if page >= self.pages.len() {
            let unseen = PageGaps {
                lo: 0.0,
                hi: 0.0,
                head: UNSEEN,
            };
            self.pages.resize(page + 1, unseen);
        }
        let pg = &mut self.pages[page];
        if pg.head == UNSEEN {
            let (mut lo, mut hi) = (0.0f64, 0.0f64);
            for ((&lb, &ub), &qi) in mbr.lbs().iter().zip(mbr.ubs()).zip(q) {
                let (min, max) =
                    gap.range(f64::from(lb) - f64::from(qi), f64::from(ub) - f64::from(qi));
                lo += min;
                hi += max;
            }
            *pg = PageGaps { lo, hi, head: END };
        }
        // Exact saturation at the boundaries: the box lies inside the
        // ball, or the ball at most touches it.
        let budget = gap.apply(r);
        if budget >= pg.hi {
            return 1.0;
        }
        if budget <= pg.lo {
            return 0.0;
        }
        let class = radius_class(budget);
        let mut at = pg.head;
        while at != END && self.dists[at as usize].class != class {
            at = self.dists[at as usize].next;
        }
        if at == END {
            at = self.dists.len() as u32;
            let span = class_top(class).min(pg.hi) - pg.lo;
            self.dists.push(GapSum {
                class,
                next: pg.head,
                h: span / CONV_BINS as f64,
                cdf: [0.0; CONV_BINS + 1],
            });
            pg.head = at;
            let d = self.dists.last_mut().expect("just pushed");
            conv_kernel(mbr, q, d.h, gap, &mut d.cdf);
        }
        let d = &self.dists[at as usize];
        read_cdf(&d.cdf, d.h, budget - pg.lo)
    }

    /// Eq 2 through the cache: the probability that a page must be
    /// accessed, given the pages ahead of it in the priority list, each
    /// as `(page id, MBR, point count)`. `r` is the target's MINDIST from
    /// the query — the b_i-sphere radius.
    pub fn access_probability<'a>(
        &mut self,
        metric: Metric,
        q: &[f32],
        r: f64,
        higher_priority: impl Iterator<Item = (usize, &'a Mbr, usize)>,
    ) -> f64 {
        let mut p = 1.0f64;
        for (page, mbr, m) in higher_priority {
            if m == 0 {
                continue;
            }
            let frac = self.fraction(metric, page, mbr, q, r);
            if frac >= 1.0 {
                return 0.0;
            }
            // Eq 3: probability that none of the m points falls in the
            // intersection.
            p *= (1.0 - frac).powi(m as i32);
            if p < 1e-12 {
                return 0.0;
            }
        }
        p
    }
}

/// The radius class of a positive finite gap budget: `⌈log2 budget⌉`,
/// exact (from the bits, not a rounded logarithm).
fn radius_class(budget: f64) -> i32 {
    let bits = budget.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32;
    let mantissa = bits & ((1u64 << 52) - 1);
    if exp == 0 {
        // Subnormal: `mantissa · 2^-1074`, no implicit leading bit.
        return -1074 + (64 - (mantissa - 1).leading_zeros()) as i32;
    }
    exp - 1023 + i32::from(mantissa != 0)
}

/// The top of radius class `class`: `2^class`, exact down to the
/// smallest subnormal.
fn class_top(class: i32) -> f64 {
    match class {
        ..-1074 => 0.0,
        -1074..=-1023 => f64::from_bits(1u64 << (class + 1074)),
        -1022..=1023 => f64::from_bits(((class + 1023) as u64) << 52),
        _ => f64::INFINITY,
    }
}

/// The fraction at shifted budget `b`, `0 < b ≤ CONV_BINS·h`: the
/// mass of the bins below `b/h`, the bin `b` falls in counted in
/// proportion. At `b = n·h` that is bins `0..n`, the mass whose rounded
/// shifted sum is below the budget.
#[inline]
fn read_cdf(cdf: &[f64; CONV_BINS + 1], h: f64, b: f64) -> f64 {
    let u = b / h;
    let k = u as usize;
    if k >= CONV_BINS {
        return cdf[CONV_BINS].min(1.0);
    }
    (cdf[k] + (u - k as f64) * (cdf[k + 1] - cdf[k])).clamp(0.0, 1.0)
}

/// The eq 5 convolution: the distribution of `Σ_i (gap(x_i − q_i) −
/// min gap_i)` for `x` uniform in `mbr`, over `CONV_BINS` bins of width
/// `h`, as prefix sums into `cdf` (round-to-nearest binning; mass beyond
/// the last bin is dropped — under a non-negative sum it can never come
/// back).
///
/// Allocation-free and blocked for SIMD: every output bin sums its terms
/// `pmf[j] · mass[n − j]` over the live supports of the pmf and of each
/// dimension's bin masses, `CONV_BLOCK` bins at a time. The gap CDFs are
/// computed in `f64`; the pmf and the bin masses are `f32`, which keeps
/// about seven significant digits of every bin down to `NEGLIGIBLE` and
/// puts twice as many bins in a SIMD register. Zero-extent dimensions
/// have a deterministic gap, all of it in the shift, so they do not enter
/// the convolution.
fn conv_kernel(mbr: &Mbr, q: &[f32], h: f64, gap: Gap, cdf: &mut [f64; CONV_BINS + 1]) {
    const B: usize = CONV_BINS;
    const L: usize = CONV_BLOCK;
    // Bin upper edges `(k + 0.5)·h` and their gap roots, shared by every
    // dimension whose smallest gap is 0 (the query lies in its extent).
    let mut edge = [0.0f64; B];
    for (k, e) in edge.iter_mut().enumerate() {
        *e = (k as f64 + 0.5) * h;
    }
    let mut edge_root = edge;
    gap.roots(&mut edge_root, 0.0);
    let mut shifted_root = [0.0f64; B];
    // The pmf over bins `lo_bin..=hi_bin`; bins outside are zero and
    // their slots are never read.
    let (mut bufs, mut spare) = ([0.0f32; B], [0.0f32; B]);
    let (mut pmf, mut next) = (&mut bufs, &mut spare);
    pmf[0] = 1.0;
    let (mut lo_bin, mut hi_bin) = (0usize, 0usize);
    // `dim_cdf[k + 1]`: one dimension's shifted-gap CDF at edge `k`;
    // `dim_cdf[0] = 0`.
    let mut dim_cdf = [0.0f64; B + 1];
    // `mass[L + k]`: bin `k`'s mass, behind `L` zeros so that every
    // block's window stays in bounds; zero past `L + written`.
    let mut mass = [0.0f32; L + B];
    let mut written = 0usize;
    cdf.fill(0.0);
    for ((&lb, &ub), &qi) in mbr.lbs().iter().zip(mbr.ubs()).zip(q) {
        let lo = f64::from(lb) - f64::from(qi);
        let hi = f64::from(ub) - f64::from(qi);
        let w = hi - lo;
        if w <= 0.0 {
            continue;
        }
        // The shifted gap lies in `[0, max_gap − min_gap]`: only the bin
        // edges below that top, and one past it where the CDF reaches 1,
        // carry mass.
        let (min_gap, max_gap) = gap.range(lo, hi);
        let edges = (((max_gap - min_gap) / h).clamp(0.0, B as f64) as usize + 2).min(B);
        let root = if min_gap == 0.0 {
            &edge_root[..edges]
        } else {
            let root = &mut shifted_root[..edges];
            root.copy_from_slice(&edge[..edges]);
            gap.roots(root, min_gap);
            root
        };
        // The CDF at edge e: {gap ≤ e + min gap} = [-s, s] with s the
        // positive root, so the clipped interval length is exact.
        let inv_w = 1.0 / w;
        for (c, &s) in dim_cdf[1..=edges].iter_mut().zip(root) {
            *c = ((hi.min(s) - lo.max(-s)).max(0.0) * inv_w).min(1.0);
        }
        // Per-dimension bin masses with round-to-nearest representatives.
        for (m, c) in mass[L..L + edges].iter_mut().zip(dim_cdf.windows(2)) {
            *m = (c[1] - c[0]).max(0.0) as f32;
        }
        if edges < written {
            mass[L + edges..L + written].fill(0.0);
        }
        written = edges;
        let masses = &mass[L..L + edges];
        let Some(m_lo) = masses.iter().position(|&m| m != 0.0) else {
            return;
        };
        let m_hi = masses.iter().rposition(|&m| m != 0.0).unwrap_or(m_lo);
        // Convolve, dropping mass that exceeds the last bin:
        // output-stationary over L-bin blocks, each lane adding its terms
        // in ascending `j`.
        let n_lo = lo_bin + m_lo;
        if n_lo >= B {
            return;
        }
        let n_hi = (hi_bin + m_hi).min(B - 1);
        for n0 in (n_lo / L * L..=n_hi).step_by(L) {
            let mut acc = [0.0f32; L];
            let j_lo = lo_bin.max(n0.saturating_sub(m_hi));
            let j_hi = hi_bin.min(n0 + L - 1 - m_lo);
            // Nonempty: the block holds a bin of `n_lo..=n_hi`. Term `j`
            // reads the mass window starting at bin `n0 − j`.
            let windows = mass[L + n0 - j_hi..L + n0 - j_lo + L].windows(L).rev();
            for (&pj, w) in pmf[j_lo..=j_hi].iter().zip(windows) {
                for (a, &m) in acc.iter_mut().zip(w) {
                    *a += pj * m;
                }
            }
            next[n0..n0 + L].copy_from_slice(&acc);
        }
        std::mem::swap(&mut pmf, &mut next);
        lo_bin = n_lo;
        hi_bin = n_hi;
        // Drop the lowest bins while their mass stays negligible: no
        // decision reads a fraction that small, and the convolutions
        // after this one skip them. A pmf that is all negligible leaves
        // the distribution zero.
        let mut dropped = 0.0f32;
        while dropped + pmf[lo_bin] < NEGLIGIBLE {
            if lo_bin == hi_bin {
                return;
            }
            dropped += pmf[lo_bin];
            lo_bin += 1;
        }
        while pmf[hi_bin] == 0.0 {
            hi_bin -= 1;
        }
    }
    let mut total = 0.0f64;
    for (k, &p) in pmf.iter().enumerate().take(hi_bin + 1).skip(lo_bin) {
        total += f64::from(p);
        cdf[k + 1] = total;
    }
    cdf[hi_bin + 2..].fill(total);
}

/// Eq 2: the probability that page `target` must be accessed, given the
/// pages ahead of it in the priority list (each with its MBR and point
/// count). `r` is the target's MINDIST from the query — the b_i-sphere
/// radius. A one-shot [`GapSums::access_probability`].
pub fn access_probability<'a>(
    metric: Metric,
    q: &[f32],
    r: f64,
    higher_priority: impl Iterator<Item = (&'a Mbr, usize)>,
) -> f64 {
    let competitors = higher_priority
        .enumerate()
        .map(|(page, (mbr, m))| (page, mbr, m));
    GapSums::default().access_probability(metric, q, r, competitors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit(d: usize) -> Mbr {
        Mbr::from_bounds(vec![0.0; d], vec![1.0; d])
    }

    #[test]
    fn no_competitors_means_certain_access() {
        let p = access_probability(Metric::Euclidean, &[0.5, 0.5], 0.3, std::iter::empty());
        assert_eq!(p, 1.0);
    }

    #[test]
    fn engulfed_competitor_prunes() {
        // A competitor fully inside the sphere definitely holds a closer
        // point -> access probability 0.
        let inner = Mbr::from_bounds(vec![0.45, 0.45], vec![0.55, 0.55]);
        let p = access_probability(
            Metric::Maximum,
            &[0.5, 0.5],
            0.2,
            [(&inner, 10usize)].into_iter(),
        );
        assert_eq!(p, 0.0);
    }

    #[test]
    fn disjoint_competitor_is_irrelevant() {
        let far = Mbr::from_bounds(vec![10.0, 10.0], vec![11.0, 11.0]);
        let p = access_probability(
            Metric::Euclidean,
            &[0.5, 0.5],
            0.2,
            [(&far, 1000usize)].into_iter(),
        );
        assert_eq!(p, 1.0);
    }

    #[test]
    fn more_points_lower_probability() {
        let m = unit(2);
        let q = [0.5f32, 0.5];
        let p10 = access_probability(Metric::Maximum, &q, 0.25, [(&m, 10usize)].into_iter());
        let p100 = access_probability(Metric::Maximum, &q, 0.25, [(&m, 100usize)].into_iter());
        assert!(p100 < p10);
        assert!(p10 < 1.0);
    }

    #[test]
    fn max_metric_fraction_exact() {
        // Ball of radius 0.25 centered in the unit square covers a 0.5x0.5
        // box -> fraction 0.25.
        let f = fraction_in_ball(Metric::Maximum, &unit(2), &[0.5, 0.5], 0.25);
        assert!((f - 0.25).abs() < 1e-12);
    }

    #[test]
    fn degenerate_mbr_inside_and_outside() {
        let flat = Mbr::from_bounds(vec![0.5, 0.0], vec![0.5, 1.0]);
        // Slab [0.3, 0.7] covers x = 0.5.
        let f = fraction_in_ball(Metric::Maximum, &flat, &[0.5, 0.5], 0.2);
        assert!((f - 0.4).abs() < 1e-12); // y-clip 0.4 / extent 1.0
                                          // Slab [0.0, 0.2] misses x = 0.5.
        let f = fraction_in_ball(Metric::Maximum, &flat, &[0.1, 0.5], 0.1);
        assert_eq!(f, 0.0);
    }

    #[test]
    fn zero_radius_zero_fraction() {
        assert_eq!(
            fraction_in_ball(Metric::Euclidean, &unit(3), &[0.5; 3], 0.0),
            0.0
        );
    }

    #[test]
    fn euclidean_fraction_matches_qmc() {
        // The convolution estimate must track a quasi-Monte-Carlo ground
        // truth across regimes (small ball, half-covering ball, off-center
        // query) and dimensions.
        use iq_geometry::volume::box_ball_intersection_qmc;
        for d in [2usize, 4, 8] {
            let m = unit(d);
            for (q_off, r_frac) in [(0.5f32, 0.3), (0.5, 0.8), (0.2, 0.5), (0.9, 0.2)] {
                let q = vec![q_off; d];
                let r = r_frac * (d as f64).sqrt() * 0.5;
                let est = fraction_in_ball(Metric::Euclidean, &m, &q, r);
                let truth = box_ball_intersection_qmc(Metric::Euclidean, &m, &q, r, 100_000);
                let err = (est - truth).abs();
                assert!(
                    err < 0.05 || (truth > 1e-6 && (est / truth) < 2.5 && (truth / est) < 2.5),
                    "d={d} q={q_off} r={r:.3}: est {est} vs qmc {truth}"
                );
            }
        }
    }

    #[test]
    fn manhattan_fraction_matches_qmc() {
        use iq_geometry::volume::box_ball_intersection_qmc;
        let d = 4;
        let m = unit(d);
        let q = vec![0.4f32; d];
        for r in [0.5, 1.0, 1.5] {
            let est = fraction_in_ball(Metric::Manhattan, &m, &q, r);
            let truth = box_ball_intersection_qmc(Metric::Manhattan, &m, &q, r, 100_000);
            assert!((est - truth).abs() < 0.05, "r={r}: {est} vs {truth}");
        }
    }

    proptest! {
        /// The fraction is always a probability, and it saturates correctly
        /// when the box is entirely inside or entirely outside the ball.
        #[test]
        fn prop_fraction_is_probability(
            q in proptest::collection::vec(-0.5f32..1.5, 4),
            r in 0.0f64..2.0,
        ) {
            let m = unit(4);
            for metric in [Metric::Euclidean, Metric::Maximum, Metric::Manhattan] {
                let f = fraction_in_ball(metric, &m, &q, r);
                prop_assert!((0.0..=1.0).contains(&f), "{metric:?}: {f}");
                if metric.maxdist(&q, &m) <= r {
                    prop_assert!(f > 0.99, "{metric:?}: box inside ball, f = {f}");
                }
                if metric.mindist(&q, &m) > r {
                    prop_assert!(f < 0.01, "{metric:?}: box outside ball, f = {f}");
                }
            }
        }

        /// Access probability is monotone: growing the sphere radius can
        /// only decrease it.
        #[test]
        fn prop_access_monotone_in_radius(
            r1 in 0.01f64..0.5,
            dr in 0.0f64..0.5,
        ) {
            let m1 = Mbr::from_bounds(vec![0.2, 0.2], vec![0.6, 0.6]);
            let m2 = Mbr::from_bounds(vec![0.5, 0.1], vec![0.9, 0.5]);
            let q = [0.4f32, 0.4];
            let hp = || [(&m1, 20usize), (&m2, 35usize)].into_iter();
            let p_small = access_probability(Metric::Euclidean, &q, r1, hp());
            let p_big = access_probability(Metric::Euclidean, &q, r1 + dr, hp());
            prop_assert!(p_big <= p_small + 1e-12);
        }
    }

    /// One distribution per (page, radius class): every radius of a class
    /// reads the same build, a read the box's range decides builds
    /// nothing, and every read returns the bits of the one-shot
    /// [`fraction_in_ball`].
    #[test]
    fn cache_builds_once_per_page_and_class() {
        let cube = unit(8);
        // Gap range [0.08, 0.72] (Euclidean) and [0.8, 2.4] (Manhattan).
        let off = Mbr::from_bounds(vec![0.6; 8], vec![0.8; 8]);
        let q = [0.5f32; 8];
        for metric in [Metric::Euclidean, Metric::Manhattan] {
            let radius = |budget: f64| match metric {
                Metric::Euclidean => budget.sqrt(),
                _ => budget,
            };
            let mut sums = GapSums::default();
            let mut builds = |budgets: &[f64]| {
                for &b in budgets {
                    let r = radius(b);
                    for (page, mbr) in [(0, &cube), (1, &off)] {
                        let got = sums.fraction(metric, page, mbr, &q, r);
                        let want = fraction_in_ball(metric, mbr, &q, r);
                        assert_eq!(got.to_bits(), want.to_bits(), "{metric:?} r={r}");
                    }
                }
                sums.builds()
            };
            match metric {
                Metric::Euclidean => {
                    // Class (1/2, 1]: `off` lies inside the ball.
                    assert_eq!(builds(&[0.75, 0.9, 1.0]), 1);
                    // Class (1/4, 1/2] for both, then (1/16, 1/8], where
                    // the ball misses `off`.
                    assert_eq!(builds(&[0.3, 0.4, 0.45]), 3);
                    assert_eq!(builds(&[0.07, 0.075]), 4);
                }
                _ => {
                    // Class (1/2, 1], `off` outside below 0.8; then
                    // (1, 2] for both.
                    assert_eq!(builds(&[0.6, 0.7, 0.8]), 1);
                    assert_eq!(builds(&[1.1, 1.5, 2.0]), 3);
                }
            }
            assert_eq!(
                sums.reads(),
                16 - 4 * u64::from(metric == Metric::Manhattan)
            );
        }
    }

    /// The class of a budget is exact at and around powers of two.
    #[test]
    fn radius_class_is_exact() {
        for c in [-1074, -1030, -1022, -3, 0, 1, 7, 1023] {
            let top = if c < 0 {
                (0..-c).fold(1.0f64, |x, _| x / 2.0)
            } else {
                2f64.powi(c)
            };
            assert_eq!(radius_class(top), c, "2^{c}");
            assert_eq!(class_top(c), top);
            if c < 1023 {
                let above = f64::from_bits(top.to_bits() + 1);
                assert_eq!(radius_class(above), c + 1, "just above 2^{c}");
            }
        }
        assert_eq!(radius_class(0.3), -1);
        assert_eq!(radius_class(3.0), 2);
    }

    /// The convolution's early exits leave an all-zero distribution.
    #[test]
    fn conv_exits_leave_zero_mass() {
        // Thirty-two dimensions from a corner of the unit cube: the
        // shifted sum's mass below a tiny budget is negligible.
        let cube = unit(32);
        let corner = [0.0f32; 32];
        let mut cdf = [1.0f64; CONV_BINS + 1];
        conv_kernel(
            &cube,
            &corner,
            1e-6 / CONV_BINS as f64,
            Gap::Squared,
            &mut cdf,
        );
        assert!(cdf.iter().all(|&c| c == 0.0));
        assert_eq!(
            fraction_in_ball(Metric::Euclidean, &cube, &corner, 1e-3),
            0.0
        );
        // A subnormal bin width: no bin edge holds mass.
        conv_kernel(
            &unit(2),
            &[0.5, 0.5],
            f64::from_bits(1),
            Gap::Absolute,
            &mut cdf,
        );
        assert!(cdf.iter().all(|&c| c == 0.0));
    }
}
