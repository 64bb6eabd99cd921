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
///   `P(Σ g(x_i − q_i) ≤ budget)` (with `g = (·)²` resp. `|·|`) is computed
///   by discretized convolution of the exact per-dimension gap
///   distributions — accurate down to the small fractions the page
///   scheduler's decisions hinge on, where both fill-factor scalings
///   (collapse to 0 as `d` grows) and CLT tails (wrong by orders of
///   magnitude) fail.
///
/// Zero-extent dimensions contribute their deterministic gap.
pub fn fraction_in_ball(metric: Metric, mbr: &Mbr, q: &[f32], r: f64) -> f64 {
    debug_assert_eq!(q.len(), mbr.dim());
    if r <= 0.0 {
        return 0.0;
    }
    // Exact saturation at the boundaries (the convolution below only
    // needs to resolve the strict interior).
    if metric.mindist(q, mbr) > r {
        return 0.0;
    }
    if metric.maxdist(q, mbr) <= r {
        return 1.0;
    }
    match metric {
        Metric::Maximum => {
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
        Metric::Euclidean => conv_fraction(mbr, q, r * r, Gap::Squared),
        Metric::Manhattan => conv_fraction(mbr, q, r, Gap::Absolute),
    }
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

    /// The positive root `s` with `gap(s) = t`.
    #[inline]
    fn root(self, t: f64) -> f64 {
        match self {
            Gap::Squared => t.sqrt(),
            Gap::Absolute => t,
        }
    }
}

/// Number of convolution bins (trade-off: accuracy of the small fractions
/// the page scheduler's decisions hinge on vs work per call). A call
/// costs O(d·B) for the per-dimension bin masses plus the convolutions:
/// per dimension, one multiply and one add per (output bin, pmf bin) pair
/// inside the supports, rounded out to `CONV_BLOCK`-bin blocks — O(d·B²)
/// at worst, about B²/4 per dimension on the perfbench workloads' calls.
const CONV_BINS: usize = 64;

/// Output bins the convolution accumulates together: two AVX2 registers,
/// four SSE2 ones. `CONV_BINS` is a multiple of it.
const CONV_BLOCK: usize = 8;

/// `P(Σ_i gap(x_i − q_i) ≤ budget)` for `x` uniform in `mbr`, by
/// convolving the discretized per-dimension gap distributions
/// (round-to-nearest binning; mass beyond the budget is dropped — under a
/// non-negative sum it can never come back).
///
/// Dispatches on the `iq_quantize` SIMD tier: the AVX2 tier runs the same
/// [`conv_kernel`] body compiled with AVX2 enabled, every other tier the
/// baseline build. Both return the same bits (see [`conv_kernel`]).
fn conv_fraction(mbr: &Mbr, q: &[f32], budget: f64, gap: Gap) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if iq_quantize::simd::kernel() == iq_quantize::Kernel::Avx2 {
        // SAFETY: the AVX2 tier is selected only after runtime detection
        // found AVX2 on this CPU.
        return unsafe { conv_fraction_avx2(mbr, q, budget, gap) };
    }
    conv_kernel(mbr, q, budget, gap)
}

/// [`conv_kernel`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn conv_fraction_avx2(mbr: &Mbr, q: &[f32], budget: f64, gap: Gap) -> f64 {
    conv_kernel(mbr, q, budget, gap)
}

/// The eq 5 convolution, allocation-free and blocked for SIMD, returning
/// the same bits as the plain scalar loop (the test oracle
/// `tests::oracle_conv_fraction`):
///
/// * every output bin still sums its terms `pmf[j] · mass[n − j]` in
///   ascending `j`, starting from `0.0`, with separate IEEE multiplies and
///   adds (Rust never contracts them into an FMA);
/// * a term the kernel skips or pads is an exact `+0.0` product, which
///   leaves a non-negative accumulator unchanged — so only the nonzero
///   support of the pmf and of each dimension's bin masses is visited;
/// * the `< 1e-15` early exit needs the sequential sum only when no bin
///   reaches `1e-15`: a rounded sum of non-negative terms is never below
///   its largest term.
#[inline(always)]
fn conv_kernel(mbr: &Mbr, q: &[f32], budget: f64, gap: Gap) -> f64 {
    const B: usize = CONV_BINS;
    const L: usize = CONV_BLOCK;
    if budget <= 0.0 {
        return 0.0;
    }
    let h = budget / B as f64;
    // Bin representatives `(k + 0.5)·h` and their gap roots, shared by
    // every dimension. A representative is `≤ 0` only when `h` underflows;
    // those form a prefix, as the representatives never decrease.
    let mut root = [0.0f64; B];
    let mut nonpos = 0;
    for (k, s) in root.iter_mut().enumerate() {
        let t = (k as f64 + 0.5) * h;
        nonpos += usize::from(t <= 0.0);
        *s = gap.root(t);
    }
    // The pmf over bins `lo_bin..=hi_bin`; bins outside are zero and
    // their slots are never read.
    let (mut bufs, mut spare) = ([0.0f64; B], [0.0f64; B]);
    let (mut pmf, mut next) = (&mut bufs, &mut spare);
    pmf[0] = 1.0;
    let (mut lo_bin, mut hi_bin) = (0usize, 0usize);
    // `cdf[k + 1]`: the gap CDF at representative `k`; `cdf[0] = 0`.
    let mut cdf = [0.0f64; B + 1];
    // `mass[L + k]`: bin `k`'s mass, behind `L` zeros so that every
    // block's window stays in bounds.
    let mut mass = [0.0f64; L + B];
    for ((&lb, &ub), &qi) in mbr.lbs().iter().zip(mbr.ubs()).zip(q) {
        let lo = f64::from(lb) - f64::from(qi);
        let hi = f64::from(ub) - f64::from(qi);
        let w = hi - lo;
        if w <= 0.0 {
            // Deterministic gap: shift the whole pmf.
            let shift = (gap.apply(lo) / h).round() as usize;
            if shift > 0 {
                if shift >= B || lo_bin + shift >= B {
                    return 0.0;
                }
                let top = (hi_bin + shift).min(B - 1);
                pmf.copy_within(lo_bin..=top - shift, lo_bin + shift);
                lo_bin += shift;
                hi_bin = top;
            }
            continue;
        }
        // CDF of gap(x - q): {gap ≤ t} = [-s, s] with s the positive root,
        // so the clipped interval length is exact.
        for (c, &s) in cdf[1..].iter_mut().zip(&root) {
            *c = ((hi.min(s) - lo.max(-s)).max(0.0) / w).min(1.0);
        }
        cdf[1..=nonpos].fill(f64::from(lo <= 0.0 && 0.0 <= hi));
        // Per-dimension bin masses with round-to-nearest representatives.
        for (m, c) in mass[L..].iter_mut().zip(cdf.windows(2)) {
            *m = (c[1] - c[0]).max(0.0);
        }
        let masses = &mass[L..];
        let Some(m_lo) = masses.iter().position(|&m| m != 0.0) else {
            return 0.0;
        };
        let m_hi = masses.iter().rposition(|&m| m != 0.0).unwrap_or(m_lo);
        // Convolve, dropping mass that exceeds the budget: output-stationary
        // over L-bin blocks, each lane adding its terms in ascending `j`.
        let n_lo = lo_bin + m_lo;
        if n_lo >= B {
            return 0.0;
        }
        let n_hi = (hi_bin + m_hi).min(B - 1);
        for n0 in (n_lo / L * L..=n_hi).step_by(L) {
            let mut acc = [0.0f64; L];
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
        while pmf[lo_bin] == 0.0 {
            if lo_bin == hi_bin {
                return 0.0;
            }
            lo_bin += 1;
        }
        while pmf[hi_bin] == 0.0 {
            hi_bin -= 1;
        }
        let live = &pmf[lo_bin..=hi_bin];
        if !live.iter().any(|&p| p >= 1e-15) && live.iter().sum::<f64>() < 1e-15 {
            return 0.0;
        }
    }
    pmf[lo_bin..=hi_bin].iter().sum::<f64>().clamp(0.0, 1.0)
}

/// Eq 2: the probability that page `target` must be accessed, given the
/// pages ahead of it in the priority list (each with its MBR and point
/// count). `r` is the target's MINDIST from the query — the b_i-sphere
/// radius.
pub fn access_probability<'a>(
    metric: Metric,
    q: &[f32],
    r: f64,
    higher_priority: impl Iterator<Item = (&'a Mbr, usize)>,
) -> f64 {
    let mut p = 1.0f64;
    for (mbr, m) in higher_priority {
        if m == 0 {
            continue;
        }
        let frac = fraction_in_ball(metric, mbr, q, r);
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

#[cfg(test)]
mod tests {
    use super::*;
    use iq_quantize::{set_kernel_override, Kernel};
    use proptest::prelude::*;
    use std::sync::Mutex;

    /// The eq 5 convolution as the plain scalar loop: the bit-identity
    /// oracle for [`conv_kernel`] at every SIMD tier.
    fn oracle_conv_fraction(mbr: &Mbr, q: &[f32], budget: f64, gap: Gap) -> f64 {
        if budget <= 0.0 {
            return 0.0;
        }
        let b = CONV_BINS;
        let h = budget / b as f64;
        let mut pmf = vec![0.0f64; b];
        pmf[0] = 1.0;
        let mut scratch = vec![0.0f64; b];
        let mut mass = vec![0.0f64; b];
        for (i, &qi) in q.iter().enumerate() {
            let lo = f64::from(mbr.lb(i)) - f64::from(qi);
            let hi = f64::from(mbr.ub(i)) - f64::from(qi);
            let w = hi - lo;
            if w <= 0.0 {
                // Deterministic gap: shift the whole pmf.
                let shift = (gap.apply(lo) / h).round() as usize;
                if shift > 0 {
                    if shift >= b {
                        return 0.0;
                    }
                    for j in (0..b).rev() {
                        pmf[j] = if j >= shift { pmf[j - shift] } else { 0.0 };
                    }
                }
                continue;
            }
            // CDF of gap(x - q): {gap ≤ t} = [-s, s] with s the positive root,
            // so the clipped interval length is exact.
            let cdf = |t: f64| -> f64 {
                if t <= 0.0 {
                    return f64::from(lo <= 0.0 && 0.0 <= hi);
                }
                let s = gap.root(t);
                ((hi.min(s) - lo.max(-s)).max(0.0) / w).min(1.0)
            };
            // Per-dimension bin masses with round-to-nearest representatives.
            let mut prev = 0.0f64;
            for (k, mk) in mass.iter_mut().enumerate() {
                let c = cdf((k as f64 + 0.5) * h);
                *mk = (c - prev).max(0.0);
                prev = c;
            }
            // Convolve, dropping mass that exceeds the budget.
            scratch.fill(0.0);
            for (j, &pj) in pmf.iter().enumerate() {
                if pj <= 0.0 {
                    continue;
                }
                for (k, &mk) in mass.iter().take(b - j).enumerate() {
                    scratch[j + k] += pj * mk;
                }
            }
            std::mem::swap(&mut pmf, &mut scratch);
            if pmf.iter().sum::<f64>() < 1e-15 {
                return 0.0;
            }
        }
        pmf.iter().sum::<f64>().clamp(0.0, 1.0)
    }

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

    /// Serializes the tests that pin the process-wide SIMD tier.
    static TIER_LOCK: Mutex<()> = Mutex::new(());

    /// Runs [`conv_fraction`] at every tier `set_kernel_override` allows on
    /// this CPU, under both gap transforms, and asserts each result equals
    /// the scalar oracle bit for bit. Returns the oracle's values
    /// (squared, absolute).
    fn assert_tiers_match_oracle(mbr: &Mbr, q: &[f32], budget: f64) -> [f64; 2] {
        let _pinned = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let want = [Gap::Squared, Gap::Absolute].map(|gap| {
            let want = oracle_conv_fraction(mbr, q, budget, gap);
            for tier in [Kernel::Scalar, Kernel::Avx2] {
                let active = set_kernel_override(Some(tier));
                let got = conv_fraction(mbr, q, budget, gap);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{active:?} {gap:?}: {got:e} vs oracle {want:e} \
                     (mbr {mbr:?}, q {q:?}, budget {budget:e})",
                );
            }
            want
        });
        set_kernel_override(None);
        want
    }

    /// Each early exit of the convolution, on inputs built to take it.
    #[test]
    fn conv_exits_match_oracle() {
        // A zero-extent dimension whose gap alone overshoots the budget:
        // `shift >= CONV_BINS`.
        let far = Mbr::from_bounds(vec![0.0, 5.0], vec![1.0, 5.0]);
        assert_eq!(assert_tiers_match_oracle(&far, &[0.5, 0.0], 1.0), [0.0; 2]);
        // A shift smaller than `CONV_BINS` that pushes the whole pmf past
        // the budget: the first dimension leaves no mass below bin 36
        // (squared gap) or 48 (absolute), the flat one shifts by as many.
        let pushed = Mbr::from_bounds(vec![0.75, 0.75], vec![1.0, 0.75]);
        assert_eq!(
            assert_tiers_match_oracle(&pushed, &[0.0, 0.0], 1.0),
            [0.0; 2]
        );
        // Thirty-two dimensions from a corner of the unit cube: the true
        // fraction is about 1.5e-20 (squared gap), so only the `sum <
        // 1e-15` exit returns exactly zero.
        let cube = unit(32);
        let corner = [0.0f32; 32];
        assert_eq!(assert_tiers_match_oracle(&cube, &corner, 0.5)[0], 0.0);
        // A budget too small to hold any bin mass.
        assert_eq!(
            assert_tiers_match_oracle(&cube, &[2.0f32; 32], 1e-300),
            [0.0; 2]
        );
        // A subnormal budget whose first bin representative rounds to 0:
        // that bin takes the query-inside-the-box CDF value.
        let tiny = f64::from_bits(1) * CONV_BINS as f64;
        assert_tiers_match_oracle(&unit(2), &[0.5, 0.5], tiny);
        assert_tiers_match_oracle(&unit(2), &[0.5, 1.5], tiny);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The blocked kernel returns the scalar oracle's bits at every
        /// SIMD tier: 1 to 32 dimensions, some of zero extent, the query
        /// inside, straddling or outside the box per dimension, budgets
        /// log-uniform over `[1e-300, d]` or `[1e-4·d, d]`, or uniform
        /// over `[0, d)`.
        fn prop_conv_kernel_matches_oracle(
            dims in proptest::collection::vec(
                (-1.0f32..1.0, 0u8..4, 0.0f32..1.0, -1.5f32..2.5),
                1..=32,
            ),
            (u, scale) in (0.0f64..1.0, 0u8..3),
        ) {
            let d = dims.len() as f64;
            let lb: Vec<f32> = dims.iter().map(|t| t.0).collect();
            let ub: Vec<f32> = dims
                .iter()
                .map(|&(lo, flat, ext, _)| if flat == 0 { lo } else { lo + ext })
                .collect();
            let q: Vec<f32> = dims
                .iter()
                .map(|&(lo, _, ext, at)| lo + at * ext.max(0.25))
                .collect();
            let budget = match scale {
                0 => 10f64.powf(-300.0 + u * (300.0 + d.log10())),
                1 => d * 10f64.powf(-4.0 * u),
                _ => u * d,
            };
            let [sq, abs] = assert_tiers_match_oracle(&Mbr::from_bounds(lb, ub), &q, budget);
            prop_assert!((0.0..=1.0).contains(&sq) && (0.0..=1.0).contains(&abs));
        }
    }
}
