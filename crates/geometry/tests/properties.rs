//! Property-based tests of the geometric primitives: metric axioms,
//! MBR algebra, and monotonicity/consistency of the volume formulas the
//! cost model depends on.

use iq_geometry::{volume, Mbr, Metric};
use proptest::prelude::*;

const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Maximum, Metric::Manhattan];

fn point(d: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, d)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Metric axioms: identity, symmetry, triangle inequality.
    #[test]
    fn prop_metric_axioms(a in point(6), b in point(6), c in point(6)) {
        for m in METRICS {
            let dab = m.distance(&a, &b);
            let dba = m.distance(&b, &a);
            prop_assert!((dab - dba).abs() < 1e-9, "{m:?} symmetry");
            prop_assert!(m.distance(&a, &a) < 1e-9, "{m:?} identity");
            let dac = m.distance(&a, &c);
            let dcb = m.distance(&c, &b);
            prop_assert!(dab <= dac + dcb + 1e-6, "{m:?} triangle: {dab} > {dac} + {dcb}");
        }
    }

    /// The metrics are ordered: L∞ ≤ L2 ≤ L1.
    #[test]
    fn prop_metric_ordering(a in point(5), b in point(5)) {
        let linf = Metric::Maximum.distance(&a, &b);
        let l2 = Metric::Euclidean.distance(&a, &b);
        let l1 = Metric::Manhattan.distance(&a, &b);
        prop_assert!(linf <= l2 + 1e-9);
        prop_assert!(l2 <= l1 + 1e-9);
    }

    /// MINDIST lower-bounds and MAXDIST upper-bounds the distance to every
    /// point inside the box.
    #[test]
    fn prop_mindist_maxdist_bound(
        q in point(4),
        corner in point(4),
        extent in proptest::collection::vec(0.0f32..5.0, 4),
        t in proptest::collection::vec(0.0f32..1.0, 4),
    ) {
        let lb: Vec<f32> = corner.clone();
        let ub: Vec<f32> = corner.iter().zip(&extent).map(|(c, e)| c + e).collect();
        let mbr = Mbr::from_bounds(lb.clone(), ub.clone());
        // A point inside the box.
        let inside: Vec<f32> =
            lb.iter().zip(&ub).zip(&t).map(|((l, u), t)| l + (u - l) * t).collect();
        for m in METRICS {
            let d = m.distance(&q, &inside);
            prop_assert!(m.mindist(&q, &mbr) <= d + 1e-5, "{m:?} mindist");
            prop_assert!(m.maxdist(&q, &mbr) >= d - 1e-5, "{m:?} maxdist");
        }
    }

    /// MBR union is commutative, idempotent-extending and containing.
    #[test]
    fn prop_mbr_union(a in point(3), b in point(3), c in point(3)) {
        let mut m1 = Mbr::empty(3);
        m1.extend_point(&a);
        m1.extend_point(&b);
        let mut m2 = Mbr::empty(3);
        m2.extend_point(&b);
        m2.extend_point(&a);
        prop_assert_eq!(&m1, &m2);
        prop_assert!(m1.contains_point(&a) && m1.contains_point(&b));
        let vol_before = m1.volume();
        let mut m3 = m1.clone();
        m3.extend_point(&c);
        prop_assert!(m3.volume() >= vol_before - 1e-9);
        prop_assert!(m3.contains_mbr(&m1));
    }

    /// Ball volume is monotone in the radius and inverts correctly.
    #[test]
    fn prop_ball_volume_monotone(r1 in 0.01f64..3.0, dr in 0.0f64..3.0, d in 1usize..20) {
        for m in METRICS {
            let v1 = volume::ball_volume(m, d, r1);
            let v2 = volume::ball_volume(m, d, r1 + dr);
            prop_assert!(v2 >= v1);
            let r_back = volume::ball_radius(m, d, v1);
            prop_assert!((r_back - r1).abs() / r1 < 1e-6, "{m:?} d={d}");
        }
    }

    /// The Minkowski sum grows with the radius and dominates the box
    /// volume; the exact Euclidean Steiner form is bounded by the L∞ form.
    #[test]
    fn prop_minkowski_bounds(
        sides in proptest::collection::vec(0.01f32..2.0, 6),
        r in 0.0f64..1.0,
    ) {
        let box_vol: f64 = sides.iter().map(|&s| f64::from(s)).product();
        let eucl = volume::minkowski_box_ball_eucl_exact(&sides, r);
        let maxm = volume::minkowski_box_ball_max(&sides, r);
        prop_assert!(eucl >= box_vol - 1e-9);
        prop_assert!(maxm >= eucl - 1e-9, "L2 ball is inside the L-inf ball");
        let bigger = volume::minkowski_box_ball_eucl_exact(&sides, r + 0.1);
        prop_assert!(bigger >= eucl);
    }
}
