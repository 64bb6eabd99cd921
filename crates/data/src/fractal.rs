//! Correlation fractal-dimension estimation (box counting).
//!
//! The cost model's fractal correction (eqs 13–15) needs the correlation
//! dimension `D_F` (a.k.a. `D₂`) of the data set: the exponent with which
//! the number of point pairs within distance `r` grows with `r`. The
//! box-counting estimator of Belussi/Faloutsos (VLDB '95) computes, for a
//! sequence of grids with cell side `2^{-g}`, the correlation sum
//! `S₂(g) = Σ_cells (n_cell/N)²` and fits the slope of `log₂ S₂` against
//! `-g`; for a uniform d-dimensional set the slope is exactly `d`.

use iq_geometry::{Dataset, Mbr};
use std::collections::HashMap;

/// Estimates the correlation fractal dimension of `ds` using grid levels
/// `g_min..=g_max` bits per dimension.
///
/// The data is first normalized to its bounding box (degenerate dimensions
/// collapse to cell 0 and contribute nothing, as they should). Cell keys are
/// bit-packed, which limits `dim * g_max` to 128.
///
/// # Panics
/// Panics if the set is empty, `g_min == 0`, `g_min >= g_max`, or
/// `dim * g_max > 128`.
pub fn correlation_dimension(ds: &Dataset, g_min: u32, g_max: u32) -> f64 {
    assert!(
        !ds.is_empty(),
        "cannot estimate the dimension of an empty set"
    );
    assert!(g_min >= 1 && g_min < g_max, "need at least two grid levels");
    let d = ds.dim();
    assert!(
        d as u32 * g_max <= 128,
        "dim * g_max must be <= 128 for packed cell keys"
    );
    let mbr = Mbr::of_points(d, ds.iter());
    let n = ds.len() as f64;

    // The naive correlation sum Σ (n_i/N)² has a 1/N sampling floor that
    // flattens the slope once cells hold mostly single points. The unbiased
    // pair-count form Σ n_i(n_i−1) / (N(N−1)) — the probability that two
    // *distinct* points share a cell — has no such floor; levels whose pair
    // count is too small to be statistically meaningful are skipped.
    const MIN_PAIRS: u64 = 64;
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut counts: HashMap<u128, u64> = HashMap::new();
    for g in g_min..=g_max {
        counts.clear();
        let cells = f64::from(1u32 << g);
        for p in ds.iter() {
            let mut key: u128 = 0;
            for (i, &x) in p.iter().enumerate() {
                let ext = mbr.extent(i);
                let c = if ext == 0.0 {
                    0u128
                } else {
                    let rel = (f64::from(x) - f64::from(mbr.lb(i))) / ext;
                    ((rel * cells).floor().max(0.0) as u128).min((1u128 << g) - 1)
                };
                key = (key << g) | c;
            }
            *counts.entry(key).or_insert(0) += 1;
        }
        let pairs: u64 = counts.values().map(|&c| c * (c - 1)).sum();
        if pairs < MIN_PAIRS {
            break; // finer levels are pure noise
        }
        let s2 = pairs as f64 / (n * (n - 1.0));
        // x = log2 of the cell side = -g; y = log2 S2.
        xs.push(-(f64::from(g)));
        ys.push(s2.log2());
    }
    if xs.len() < 2 {
        // Too few usable levels (tiny or ultra-sparse set): fall back to the
        // embedding dimension, the conservative choice for the cost model.
        return d as f64;
    }

    // Least-squares slope of y on x.
    let m = xs.len() as f64;
    let mean_x: f64 = xs.iter().sum::<f64>() / m;
    let mean_y: f64 = ys.iter().sum::<f64>() / m;
    let cov: f64 = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let var: f64 = xs.iter().map(|x| (x - mean_x).powi(2)).sum();
    (cov / var).max(0.0)
}

/// Estimates `D_F` with default grid levels suited to the set's size and
/// dimensionality (coarser grids for higher dimensions so cells stay
/// populated and keys stay packable).
///
/// Sets larger than 50k points are estimated on an evenly strided
/// subsample of at most 50k points: estimation is O(N·levels), and 50k
/// points are plenty for a slope.
pub fn correlation_dimension_auto(ds: &Dataset) -> f64 {
    const CAP: usize = 50_000;
    let d = ds.dim() as u32;
    let g_max = (128 / d).clamp(2, 6);
    if ds.len() <= CAP {
        return correlation_dimension(ds, 1, g_max);
    }
    let stride = ds.len().div_ceil(CAP);
    let mut sub = Dataset::with_capacity(ds.dim(), ds.len() / stride + 1);
    for i in (0..ds.len()).step_by(stride) {
        sub.push(ds.point(i));
    }
    correlation_dimension(&sub, 1, g_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn uniform_set_has_full_dimension() {
        for d in [2usize, 4, 8] {
            let ds = generate::uniform(d, 40_000, 11);
            let df = correlation_dimension_auto(&ds);
            assert!(
                (df - d as f64).abs() < 0.35 * d as f64,
                "d={d}: estimated {df}"
            );
        }
    }

    #[test]
    fn line_embedded_in_high_dim_has_dimension_one() {
        // Points along the diagonal of [0,1]^8.
        let mut ds = Dataset::new(8);
        let mut t = 0.0f32;
        for _ in 0..20_000 {
            t = (t + 0.618_034) % 1.0; // low-discrepancy walk along the line
            ds.push(&[t; 8]);
        }
        let df = correlation_dimension_auto(&ds);
        assert!(df < 1.5, "diagonal line estimated at {df}");
    }

    #[test]
    fn plane_embedded_in_high_dim_has_dimension_two() {
        let mut ds = Dataset::new(6);
        let (mut u, mut v) = (0.0f32, 0.0f32);
        for _ in 0..30_000 {
            u = (u + 0.618_034) % 1.0;
            v = (v + 0.414_214) % 1.0;
            ds.push(&[u, v, u, v, u, v]);
        }
        let df = correlation_dimension_auto(&ds);
        assert!((1.4..2.8).contains(&df), "plane estimated at {df}");
    }

    #[test]
    fn weather_has_low_fractal_dimension() {
        let ds = generate::weather_like(9, 40_000, 5);
        let df = correlation_dimension_auto(&ds);
        assert!(df < 5.0, "weather-like should be far below 9, got {df}");
    }

    #[test]
    fn degenerate_dimension_contributes_nothing() {
        // 2-d uniform with a constant third coordinate: D2 ≈ 2.
        let base = generate::uniform(2, 30_000, 3);
        let mut ds = Dataset::new(3);
        for p in base.iter() {
            ds.push(&[p[0], p[1], 0.5]);
        }
        let df = correlation_dimension_auto(&ds);
        assert!((1.5..2.6).contains(&df), "got {df}");
    }

    #[test]
    fn estimate_fractal_subsamples_large_sets() {
        let ds = generate::uniform(4, 120_000, 3);
        let df = correlation_dimension_auto(&ds);
        assert!((2.0..6.0).contains(&df), "{df}");
    }
}
