//! Accuracy of the eq 5 fraction in the lower tail, where the Section 2.1
//! plan's decisions hinge on it: a competitor page whose ball
//! intersection is 1e-4 of its volume still removes a few percent of a
//! target's access probability when it holds a few hundred points.
//!
//! The ground truth is a quasi-Monte-Carlo estimate over 10⁶ points of the
//! unit cube (the Kronecker sequence of
//! `iq_geometry::volume::box_ball_intersection_qmc`). Radii are picked as
//! quantiles of the sampled distances, so the true fractions span 1e-5 to
//! 1e-1 whatever the query. Run with `--nocapture` to see every ratio.

use iq_cost::fraction_in_ball;
use iq_geometry::{Mbr, Metric};

const SAMPLES: usize = 1_000_000;

/// The fractions of the box the radii are picked to cover.
const TARGETS: [f64; 6] = [1e-5, 3e-5, 1e-4, 1e-3, 1e-2, 1e-1];

/// Below this QMC fraction a 10⁶-point estimate is too noisy to judge.
const FLOOR: f64 = 2e-5;

/// The Euclidean and Manhattan distances from `q` of the first
/// [`SAMPLES`] points of the `d`-dimensional Kronecker sequence in the
/// unit cube, each point rounded to `f32` as an index would store it.
fn qmc_distances(d: usize, q: &[f32]) -> [Vec<f64>; 2] {
    // Roberts' R_d sequence: α_i = φ_d^{-i}, with φ_d the root of
    // x^{d+1} = x + 1.
    let mut phi = 2.0f64;
    for _ in 0..64 {
        phi = (1.0 + phi).powf(1.0 / (d as f64 + 1.0));
    }
    let alphas: Vec<f64> = (1..=d).map(|i| (1.0 / phi.powi(i as i32)) % 1.0).collect();
    let (mut l2, mut l1) = (Vec::with_capacity(SAMPLES), Vec::with_capacity(SAMPLES));
    for s in 0..SAMPLES {
        let (mut sq, mut abs) = (0.0f64, 0.0f64);
        for i in 0..d {
            let x = ((s as f64 + 1.0) * alphas[i]).fract() as f32;
            let g = f64::from(x) - f64::from(q[i]);
            sq += g * g;
            abs += g.abs();
        }
        l2.push(sq.sqrt());
        l1.push(abs);
    }
    [l2, l1]
}

#[test]
fn plan_fraction_tracks_qmc_in_the_tail() {
    let mut worst = 1.0f64;
    let mut failures = Vec::new();
    for d in [8usize, 16] {
        let cube = Mbr::from_bounds(vec![0.0; d], vec![1.0; d]);
        for at in [0.5f32, 0.2, 0.9, -0.2, 1.3] {
            let q = vec![at; d];
            let metrics = [Metric::Euclidean, Metric::Manhattan];
            for (metric, mut dists) in metrics.into_iter().zip(qmc_distances(d, &q)) {
                // Largest target first: each selection then only has to
                // search the prefix the previous one left below its rank.
                let mut below = dists.len();
                for target in TARGETS.into_iter().rev() {
                    let rank = (target * SAMPLES as f64) as usize;
                    let r = *dists[..below]
                        .select_nth_unstable_by(rank, f64::total_cmp)
                        .1;
                    below = rank;
                    let inside = dists.iter().filter(|&&x| x <= r).count();
                    let truth = inside as f64 / SAMPLES as f64;
                    let est = fraction_in_ball(metric, &cube, &q, r);
                    let ratio = (est / truth).max(truth / est);
                    println!(
                        "{metric:?} d={d} q={at} r={r:.5}: qmc {truth:.3e} est {est:.3e} \
                         ratio {ratio:.3}"
                    );
                    if truth >= FLOOR {
                        worst = worst.max(ratio);
                        if ratio.is_nan() || ratio > 2.0 {
                            failures.push(format!(
                                "{metric:?} d={d} q={at} r={r}: est {est:e} vs qmc {truth:e}"
                            ));
                        }
                    }
                }
            }
        }
    }
    println!("worst ratio (qmc >= {FLOOR:e}): {worst:.3}");
    assert!(failures.is_empty(), "off by more than 2x: {failures:#?}");
}
