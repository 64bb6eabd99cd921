//! Refinement-cost estimation (eqs 6–15).
//!
//! For a data page with MBR side lengths `s`, `m` points and quantization
//! resolution `g`, the model estimates how many of the page's points a
//! typical nearest-neighbor query must refine (look up in the exact file):
//!
//! 1. fractal point density inside the page, `ρ_F = m / V_page^{D_F/d}`
//!    (eq 13; eq 6 is the uniform special case `D_F = d`),
//! 2. the page-local NN radius `r` with `E[points in ball] = 1`
//!    (eqs 7/14),
//! 3. the quantization-cell sides `s_i / 2^g` (eq 10),
//! 4. the Minkowski sum of a cell and the NN sphere (eqs 11/12) — the
//!    region of query positions for which the cell cannot be pruned,
//! 5. the per-point refinement probability `V_mink^{D_F/d}` under the
//!    query-follows-data assumption (eq 15), times `m` points.
//!
//! The data space is assumed normalized to the unit cube (all workspace
//! generators guarantee this), so Minkowski volumes are directly
//! probabilities.

use iq_geometry::volume;
use iq_geometry::Metric;
use iq_quantize::EXACT_BITS;
use iq_storage::DiskModel;

/// Static parameters of the refinement model.
#[derive(Clone, Copy, Debug)]
pub struct RefineParams {
    /// Metric of the workload.
    pub metric: Metric,
    /// Embedding dimensionality `d`.
    pub dim: usize,
    /// Correlation fractal dimension `D_F` of the data (use `d` for
    /// uniform/independent data).
    pub fractal_dim: f64,
    /// Total number of indexed points `N` (the query-follows-data density
    /// normalizer of eq 15).
    pub num_points: usize,
}

impl RefineParams {
    /// Uniform/independent special case: `D_F = d`.
    pub fn uniform(metric: Metric, dim: usize, num_points: usize) -> Self {
        Self {
            metric,
            dim,
            fractal_dim: dim as f64,
            num_points,
        }
    }

    /// With an estimated fractal dimension (clamped into `(0, d]`).
    pub fn fractal(metric: Metric, dim: usize, fractal_dim: f64, num_points: usize) -> Self {
        Self {
            metric,
            dim,
            fractal_dim: fractal_dim.clamp(0.1, dim as f64),
            num_points,
        }
    }

    /// The page-local nearest-neighbor radius (eqs 7/14): the radius of the
    /// ball that holds an expectation of one of the page's `m` points.
    pub fn nn_radius(&self, sides: &[f32], m: usize) -> f64 {
        self.knn_radius(sides, m, 1)
    }

    /// The k-NN extension of eqs 7/14 (the paper's footnote 1): the radius
    /// of the ball that holds an expectation of `k` of the page's `m`
    /// points. Under fractal scaling, `count(V) = m · (V/V_page)^{D_F/d}`,
    /// so `V = V_page · (k/m)^{d/D_F}`.
    pub fn knn_radius(&self, sides: &[f32], m: usize, k: usize) -> f64 {
        debug_assert_eq!(sides.len(), self.dim);
        assert!(k >= 1, "k must be at least 1");
        if m == 0 {
            return 0.0;
        }
        let v_page: f64 = sides.iter().map(|&s| f64::from(s)).product();
        let v = v_page * (k as f64 / m as f64).powf(self.dim as f64 / self.fractal_dim);
        volume::ball_radius(self.metric, self.dim, v)
    }
}

/// Expected number of exact look-ups a query triggers on a page with MBR
/// side lengths `sides`, `m` points, quantized at `g` bits per dimension
/// (eq 15 times `m`). Zero for the exact representation (`g == 32`).
///
/// Eq 15 states the refinement probability as "the fraction of all query
/// points located in the Minkowski enlargement" with a `P/N` prefactor.
/// Under the query-follows-data assumption, that fraction around a page
/// holding `m` of the `N` points is governed by the *local* query density:
/// `P_ref = (m/N) · (V_mink / V_page)^{D_F/d}`. For uniform data a page's
/// MBR covers `m/N` of the data space, so this reduces exactly to the
/// plain `V_mink` of the paper's uniform derivation; for clustered data it
/// correctly charges dense pages for the queries concentrated on them.
pub fn expected_refinements(p: &RefineParams, sides: &[f32], m: usize, g: u32) -> f64 {
    expected_refinements_knn(p, sides, m, g, 1)
}

/// [`expected_refinements`] for k-NN queries: the pruning sphere is the
/// k-NN sphere (paper footnote 1), so more points must be refined.
pub fn expected_refinements_knn(
    p: &RefineParams,
    sides: &[f32],
    m: usize,
    g: u32,
    k: usize,
) -> f64 {
    debug_assert_eq!(sides.len(), p.dim);
    if m == 0 || g >= EXACT_BITS {
        return 0.0;
    }
    let n = p.num_points.max(m) as f64;
    let v_page: f64 = sides.iter().map(|&s| f64::from(s)).product();
    if v_page <= 0.0 {
        // Fully degenerate page (duplicate points): the conservative bound.
        return m as f64 * (m as f64 / n).min(1.0);
    }
    let r = p.knn_radius(sides, m, k);
    let scale = f64::from(1u32 << g);
    let cell: Vec<f32> = sides
        .iter()
        .map(|&s| (f64::from(s) / scale) as f32)
        .collect();
    let v_mink = volume::minkowski_box_ball(p.metric, &cell, r);
    let ratio = (v_mink / v_page).max(0.0);
    let p_refine = ((m as f64 / n) * ratio.powf(p.fractal_dim / p.dim as f64)).min(1.0);
    m as f64 * p_refine
}

/// The modeled time cost of those refinements: each is a random access of
/// (at least) one block in the exact file.
pub fn refinement_cost(p: &RefineParams, disk: &DiskModel, sides: &[f32], m: usize, g: u32) -> f64 {
    expected_refinements(p, sides, m, g) * (disk.t_seek + disk.t_xfer)
}

/// The expected number of distinct blocks that `refinements` random
/// refinements touch in an exact region of `blocks` blocks, when a query
/// reads each block at most once: `B·(1 − (1 − 1/B)^r)`, each refinement
/// landing in one of the `B` blocks uniformly. One refinement reads one
/// block; many read at most all `B`. Capped at `refinements`, since the
/// formula is for whole refinements and a fractional expectation below
/// one would otherwise round up.
pub fn expected_distinct_blocks(blocks: u32, refinements: f64) -> f64 {
    if blocks == 0 || refinements <= 0.0 {
        return 0.0;
    }
    let b = f64::from(blocks);
    let distinct = b * (1.0 - (1.0 - 1.0 / b).powf(refinements));
    distinct.min(refinements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn params(d: usize) -> RefineParams {
        RefineParams::uniform(Metric::Euclidean, d, 100_000)
    }

    #[test]
    fn distinct_blocks_run_from_one_to_the_region() {
        // One refinement reads one block, whatever the region's size.
        for b in [1u32, 2, 7, 100] {
            assert!(
                (expected_distinct_blocks(b, 1.0) - 1.0).abs() < 1e-12,
                "B={b}"
            );
        }
        // Many refinements read the whole region, never more.
        assert!((expected_distinct_blocks(8, 1_000.0) - 8.0).abs() < 1e-9);
        let mut prev = 0.0;
        for r in 1..=50 {
            let d = expected_distinct_blocks(8, f64::from(r));
            assert!(d >= prev && d <= 8.0 && d <= f64::from(r), "r={r}: {d}");
            prev = d;
        }
        // No region, or no refinement, reads nothing; a fractional
        // expectation never exceeds itself.
        assert_eq!(expected_distinct_blocks(0, 5.0), 0.0);
        assert_eq!(expected_distinct_blocks(5, 0.0), 0.0);
        assert!(expected_distinct_blocks(2, 0.5) <= 0.5);
    }

    #[test]
    fn exact_pages_never_refine() {
        assert_eq!(
            expected_refinements(&params(4), &[0.5; 4], 100, EXACT_BITS),
            0.0
        );
    }

    #[test]
    fn empty_pages_never_refine() {
        assert_eq!(expected_refinements(&params(4), &[0.5; 4], 0, 4), 0.0);
    }

    #[test]
    fn nn_radius_uniform_case() {
        // Unit page with 1 point: ball volume 1 -> for L-inf r = 0.5.
        let p = RefineParams::uniform(Metric::Maximum, 3, 100_000);
        let r = p.nn_radius(&[1.0; 3], 1);
        assert!((r - 0.5).abs() < 1e-12);
        // 8 points: volume 1/8 -> r = 0.25.
        let r = p.nn_radius(&[1.0; 3], 8);
        assert!((r - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fractal_radius_smaller_than_uniform() {
        // Lower fractal dimension -> points crowd a lower-dimensional
        // subset -> a query drawn from the data distribution finds its
        // nearest neighbor in a smaller ball.
        let d = 8;
        let uni = RefineParams::uniform(Metric::Euclidean, d, 100_000);
        let fr = RefineParams::fractal(Metric::Euclidean, d, 3.0, 100_000);
        let sides = [0.3f32; 8];
        assert!(fr.nn_radius(&sides, 50) < uni.nn_radius(&sides, 50));
    }

    #[test]
    fn monotone_decreasing_in_bits() {
        // Section 3.4: refinement cost decreases monotonically with g.
        let p = params(8);
        let sides = [0.2f32; 8];
        let mut prev = f64::INFINITY;
        for g in 1..=31 {
            let e = expected_refinements(&p, &sides, 200, g);
            assert!(e <= prev + 1e-12, "g={g}: {e} > {prev}");
            prev = e;
        }
    }

    #[test]
    fn improvement_diminishes_with_bits() {
        // Section 3.4: the derivative is monotonically increasing, i.e. the
        // first split saves more than the next ("proceeding from 1 bit to 2
        // bits always improves ... the improvement is stronger than ... from
        // 2 bits to 4 bits").
        let p = params(8);
        let sides = [0.2f32; 8];
        let e: Vec<f64> = (1..=8)
            .map(|g| expected_refinements(&p, &sides, 200, g))
            .collect();
        for w in e.windows(3) {
            let gain1 = w[0] - w[1];
            let gain2 = w[1] - w[2];
            assert!(
                gain1 >= gain2 - 1e-12,
                "gains must diminish: {gain1} < {gain2}"
            );
        }
    }

    #[test]
    fn refinement_cost_scales_with_disk() {
        let p = params(4);
        let slow = DiskModel {
            t_seek: 0.02,
            t_xfer: 0.002,
            block_size: 8192,
        };
        let fast = DiskModel {
            t_seek: 0.005,
            t_xfer: 0.0005,
            block_size: 8192,
        };
        let sides = [0.5f32; 4];
        assert!(
            refinement_cost(&p, &slow, &sides, 100, 2) > refinement_cost(&p, &fast, &sides, 100, 2)
        );
    }

    #[test]
    fn knn_radius_monotone_in_k_and_reduces_to_nn() {
        let p = params(6);
        let sides = [0.4f32; 6];
        assert_eq!(p.knn_radius(&sides, 100, 1), p.nn_radius(&sides, 100));
        let mut prev = 0.0;
        for k in [1usize, 2, 5, 10, 50] {
            let r = p.knn_radius(&sides, 100, k);
            assert!(r > prev, "k={k}");
            prev = r;
        }
        // k = m: the sphere holds the whole page, volume = V_page.
        let r = p.knn_radius(&sides, 100, 100);
        let v = iq_geometry::volume::ball_volume(p.metric, 6, r);
        let v_page: f64 = sides.iter().map(|&s| f64::from(s)).product();
        assert!((v - v_page).abs() / v_page < 1e-9);
    }

    #[test]
    fn knn_refinements_increase_with_k() {
        let p = params(8);
        let sides = [0.3f32; 8];
        let mut prev = 0.0;
        for k in [1usize, 3, 10, 30] {
            let e = expected_refinements_knn(&p, &sides, 400, 6, k);
            assert!(e >= prev, "k={k}");
            prev = e;
        }
    }

    proptest! {
        /// Refinements never exceed the page population and are never
        /// negative.
        #[test]
        fn prop_bounded(
            m in 1usize..2000,
            g in 1u32..32,
            side in 0.01f32..1.0,
            d in 2usize..16,
            df_frac in 0.2f64..1.0,
        ) {
            let p = RefineParams::fractal(Metric::Euclidean, d, df_frac * d as f64, 10_000);
            let sides = vec![side; d];
            let e = expected_refinements(&p, &sides, m, g);
            prop_assert!(e >= 0.0);
            prop_assert!(e <= m as f64 + 1e-9);
        }

        /// Section 3.4's property on arbitrary page shapes: refinements
        /// decrease in g and the per-step gains diminish (the premise of
        /// the optimality proof).
        #[test]
        fn prop_monotone_and_diminishing_any_shape(
            sides in proptest::collection::vec(0.01f32..1.0, 2..12),
            m in 2usize..2000,
            df_frac in 0.3f64..1.0,
        ) {
            let d = sides.len();
            let p = RefineParams::fractal(Metric::Euclidean, d, df_frac * d as f64, 100_000);
            let e: Vec<f64> =
                (1..=12).map(|g| expected_refinements(&p, &sides, m, g)).collect();
            for w in e.windows(2) {
                prop_assert!(w[1] <= w[0] + 1e-12, "not monotone: {e:?}");
            }
            for w in e.windows(3) {
                let gain1 = w[0] - w[1];
                let gain2 = w[1] - w[2];
                prop_assert!(gain1 >= gain2 - 1e-9, "gains grow: {e:?}");
            }
        }

        /// More points in the same box -> smaller NN radius.
        #[test]
        fn prop_radius_monotone_in_population(
            m in 1usize..1000,
            d in 2usize..10,
        ) {
            let p = params(d);
            let sides = vec![0.4f32; d];
            prop_assert!(p.nn_radius(&sides, m + 1) <= p.nn_radius(&sides, m) + 1e-15);
        }
    }
}
