//! High-dimensional volume computations used by the IQ-tree cost model.
//!
//! Implements the paper's equations 5 and 8–12: hypersphere / hypercube
//! volumes, nearest-neighbor radii from point densities, Minkowski sums of a
//! box and a sphere (exact for the maximum metric, the geometric-mean
//! approximation of eq 12 *and* an exact elementary-symmetric-polynomial
//! formula for the Euclidean metric), and a quasi-Monte-Carlo estimate of
//! box/sphere intersection volumes that the cost-model tests use as their
//! oracle (the scheduler's eq 5 fractions live in `iq-cost`).

use crate::{Mbr, Metric};

/// `ln Γ(x)` for `x > 0` via the Lanczos approximation (g = 7, n = 9).
///
/// Accurate to ~1e-13 relative error over the range the cost model uses
/// (arguments up to a few hundred).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires a positive argument");
    // Lanczos coefficients for g = 7.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_1,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }
}

/// `Γ(x)` for `x > 0`.
pub fn gamma(x: f64) -> f64 {
    ln_gamma(x).exp()
}

/// Volume of the `d`-dimensional Euclidean unit ball:
/// `π^{d/2} / Γ(d/2 + 1)` (eq 8 with r = 1).
pub fn unit_ball_volume(d: usize) -> f64 {
    let d = d as f64;
    (0.5 * d * std::f64::consts::PI.ln() - ln_gamma(0.5 * d + 1.0)).exp()
}

/// Volume of the metric ball of radius `r` in `d` dimensions — the paper's
/// `V_query(r)`: eq (8) for the Euclidean metric, eq (9) `(2r)^d` for the
/// maximum metric; for L1 the cross-polytope `(2r)^d / d!`.
pub fn ball_volume(metric: Metric, d: usize, r: f64) -> f64 {
    assert!(r >= 0.0, "radius must be non-negative");
    match metric {
        Metric::Euclidean => unit_ball_volume(d) * r.powi(d as i32),
        Metric::Maximum => (2.0 * r).powi(d as i32),
        Metric::Manhattan => ((d as f64 * (2.0 * r).ln()) - ln_gamma(d as f64 + 1.0)).exp(),
    }
}

/// Inverts [`ball_volume`]: the radius whose ball has volume `v` (eq 7,
/// `r = V_query^{-1}(1/ρ)` with `v = 1/ρ`).
pub fn ball_radius(metric: Metric, d: usize, v: f64) -> f64 {
    assert!(v >= 0.0, "volume must be non-negative");
    if v == 0.0 {
        return 0.0;
    }
    let d_f = d as f64;
    match metric {
        Metric::Euclidean => (v / unit_ball_volume(d)).powf(1.0 / d_f),
        Metric::Maximum => 0.5 * v.powf(1.0 / d_f),
        Metric::Manhattan => 0.5 * ((v.ln() + ln_gamma(d_f + 1.0)) / d_f).exp(),
    }
}

/// Nearest-neighbor radius for a local point density `ρ` (eq 7 / eq 14):
/// the radius whose ball contains an expectation of one point.
pub fn nn_radius(metric: Metric, d: usize, density: f64) -> f64 {
    assert!(density > 0.0, "density must be positive");
    ball_radius(metric, d, 1.0 / density)
}

/// Binomial coefficient `C(n, k)` as an `f64` (exact for the small `n`
/// used here).
pub fn binomial(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

/// Minkowski sum of a box with side lengths `sides` and an L∞ ball of
/// radius `r`: `Π (s_i + 2r)` — the exact generalization of eq (11),
/// which states it for cell sides `(ub_i - lb_i)/2^g`.
pub fn minkowski_box_ball_max(sides: &[f32], r: f64) -> f64 {
    sides.iter().map(|&s| f64::from(s) + 2.0 * r).product()
}

/// The paper's eq (12): Minkowski sum of a box and a Euclidean ball,
/// approximating the box by a cube with side `a` (the geometric mean of the
/// side lengths):
/// `Σ_{0≤k≤d} C(d,k) · a^{d-k} · (√π r)^k / Γ(k/2 + 1)`.
pub fn minkowski_box_ball_eucl_approx(d: usize, a: f64, r: f64) -> f64 {
    (0..=d)
        .map(|k| {
            binomial(d, k)
                * a.powi((d - k) as i32)
                * (std::f64::consts::PI.sqrt() * r).powi(k as i32)
                / gamma(0.5 * k as f64 + 1.0)
        })
        .sum()
}

/// Exact Minkowski sum of an axis-aligned box and a Euclidean ball via the
/// Steiner formula: `Σ_k e_{d-k}(s) · V_k(r)` where `e_j` is the j-th
/// elementary symmetric polynomial of the side lengths and `V_k(r)` the
/// k-dimensional ball volume. O(d²); reduces to eq (12) when all sides are
/// equal.
pub fn minkowski_box_ball_eucl_exact(sides: &[f32], r: f64) -> f64 {
    let d = sides.len();
    // e[j] = elementary symmetric polynomial of degree j.
    let mut e = vec![0.0f64; d + 1];
    e[0] = 1.0;
    for (idx, &s) in sides.iter().enumerate() {
        let s = f64::from(s);
        for j in (1..=idx + 1).rev() {
            e[j] += e[j - 1] * s;
        }
    }
    (0..=d)
        .map(|k| e[d - k] * unit_ball_volume(k) * r.powi(k as i32))
        .sum()
}

/// Minkowski sum of a box and a metric ball, dispatching per metric.
/// For L1 the ball is treated via its Euclidean-equivalent radius (the cost
/// model is only stated for L2 and L∞; this keeps L1 usable).
pub fn minkowski_box_ball(metric: Metric, sides: &[f32], r: f64) -> f64 {
    match metric {
        Metric::Maximum => minkowski_box_ball_max(sides, r),
        Metric::Euclidean | Metric::Manhattan => minkowski_box_ball_eucl_exact(sides, r),
    }
}

/// Deterministic quasi-Monte-Carlo estimate of the box/ball intersection
/// volume (used in tests to validate the closed forms; additive-recurrence
/// low-discrepancy sequence, no RNG dependency).
pub fn box_ball_intersection_qmc(
    metric: Metric,
    mbr: &Mbr,
    q: &[f32],
    r: f64,
    samples: usize,
) -> f64 {
    let d = mbr.dim();
    let vol = mbr.volume();
    if vol == 0.0 || samples == 0 {
        return 0.0;
    }
    // Kronecker sequence with α_i = fractional powers of the plastic-number
    // generalization (Roberts' R_d sequence).
    let phi = {
        // Solve x^{d+1} = x + 1 by fixed-point iteration.
        let mut x = 2.0f64;
        for _ in 0..64 {
            x = (1.0 + x).powf(1.0 / (d as f64 + 1.0));
        }
        x
    };
    let alphas: Vec<f64> = (1..=d).map(|i| (1.0 / phi.powi(i as i32)) % 1.0).collect();
    let mut inside = 0usize;
    let mut x = vec![0.0f64; d];
    let mut p = vec![0.0f32; d];
    for s in 0..samples {
        for i in 0..d {
            x[i] = ((s as f64 + 1.0) * alphas[i]).fract();
            p[i] = (f64::from(mbr.lb(i)) + x[i] * mbr.extent(i)) as f32;
        }
        if metric.distance(&p, q) <= r {
            inside += 1;
        }
    }
    vol * inside as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, rel: f64) -> bool {
        (a - b).abs() <= rel * a.abs().max(b.abs()).max(1e-300)
    }

    #[test]
    fn gamma_known_values() {
        assert!(close(gamma(1.0), 1.0, 1e-12));
        assert!(close(gamma(0.5), std::f64::consts::PI.sqrt(), 1e-12));
        assert!(close(gamma(5.0), 24.0, 1e-12));
        assert!(close(gamma(7.5), 1_871.254_305_797_788, 1e-10));
    }

    #[test]
    fn unit_ball_known_values() {
        assert!(close(unit_ball_volume(1), 2.0, 1e-12));
        assert!(close(unit_ball_volume(2), std::f64::consts::PI, 1e-12));
        assert!(close(
            unit_ball_volume(3),
            4.0 / 3.0 * std::f64::consts::PI,
            1e-12
        ));
    }

    #[test]
    fn ball_volume_max_metric_is_cube() {
        assert!(close(ball_volume(Metric::Maximum, 4, 0.5), 1.0, 1e-12));
        assert!(close(ball_volume(Metric::Maximum, 3, 1.0), 8.0, 1e-12));
    }

    #[test]
    fn manhattan_ball_is_cross_polytope() {
        // d=2: diamond with diagonal 2r: area = 2 r^2.
        assert!(close(ball_volume(Metric::Manhattan, 2, 1.0), 2.0, 1e-12));
        // d=3: octahedron volume (2r)^3/6 = 4/3 r^3.
        assert!(close(
            ball_volume(Metric::Manhattan, 3, 1.0),
            4.0 / 3.0,
            1e-12
        ));
    }

    #[test]
    fn radius_inverts_volume() {
        for metric in [Metric::Euclidean, Metric::Maximum, Metric::Manhattan] {
            for d in [1usize, 2, 5, 16] {
                for v in [1e-6, 0.37, 42.0] {
                    let r = ball_radius(metric, d, v);
                    assert!(
                        close(ball_volume(metric, d, r), v, 1e-9),
                        "metric={metric:?} d={d} v={v}"
                    );
                }
            }
        }
    }

    #[test]
    fn nn_radius_unit_density() {
        // ρ = 1 → ball volume 1. For L∞: (2r)^d = 1 → r = 0.5^... .
        let r = nn_radius(Metric::Maximum, 4, 1.0);
        assert!(close((2.0 * r).powi(4), 1.0, 1e-12));
    }

    #[test]
    fn binomial_row() {
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(5, 5), 1.0);
        assert_eq!(binomial(5, 6), 0.0);
    }

    #[test]
    fn minkowski_max_metric() {
        // 2x3 box, r=0.5: (2+1)(3+1)=12.
        assert!(close(minkowski_box_ball_max(&[2.0, 3.0], 0.5), 12.0, 1e-12));
    }

    #[test]
    fn minkowski_eucl_exact_2d() {
        // Box s1 x s2 + disk r: s1 s2 + 2r(s1+s2)/... actually:
        // area = s1*s2 + 2r*s1 + 2r*s2 + π r².
        let (s1, s2, r) = (2.0f64, 3.0f64, 0.5f64);
        let expect = s1 * s2 + 2.0 * r * (s1 + s2) + std::f64::consts::PI * r * r;
        assert!(close(
            minkowski_box_ball_eucl_exact(&[s1 as f32, s2 as f32], r),
            expect,
            1e-12
        ));
    }

    #[test]
    fn minkowski_eucl_approx_matches_exact_for_cube() {
        for d in [2usize, 4, 8, 16] {
            let sides = vec![1.5f32; d];
            let exact = minkowski_box_ball_eucl_exact(&sides, 0.3);
            let approx = minkowski_box_ball_eucl_approx(d, 1.5, 0.3);
            assert!(close(exact, approx, 1e-9), "d={d}: {exact} vs {approx}");
        }
    }

    #[test]
    fn minkowski_zero_radius_is_box_volume() {
        let sides = [1.0f32, 2.0, 3.0];
        assert!(close(
            minkowski_box_ball_eucl_exact(&sides, 0.0),
            6.0,
            1e-12
        ));
        assert!(close(minkowski_box_ball_max(&sides, 0.0), 6.0, 1e-12));
    }

    #[test]
    fn qmc_matches_exact_for_max_metric() {
        let mbr = Mbr::from_bounds(vec![0.0, 0.0], vec![1.0, 2.0]);
        let q = [0.3f32, 1.5];
        let r = 0.4;
        // Eq 5: the L∞ ball clips to [0, 0.7] × [1.1, 1.9].
        let exact = 0.7 * 0.8;
        let mc = box_ball_intersection_qmc(Metric::Maximum, &mbr, &q, r, 200_000);
        assert!(close(exact, mc, 0.02), "{exact} vs {mc}");
    }
}
