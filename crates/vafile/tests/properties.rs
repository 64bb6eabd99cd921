//! Property-based tests of the VA-file's guarantees: exact results at
//! every resolution, correct filter bounds, sane cost structure.

use iq_engine::{AccessMethod, Query};
use iq_geometry::{Dataset, Metric};
use iq_storage::{MemDevice, SimClock};
use iq_vafile::VaFile;
use proptest::prelude::*;

fn dataset_strategy(dim: usize, max_n: usize) -> impl Strategy<Value = Dataset> {
    proptest::collection::vec(0.0f32..1.0, dim * 20..dim * max_n).prop_map(move |mut flat| {
        flat.truncate(flat.len() / dim * dim);
        Dataset::from_flat(dim, flat)
    })
}

fn build(ds: &Dataset, bits: u32, metric: Metric) -> (VaFile, SimClock) {
    let mut clock = SimClock::default();
    let va = VaFile::build(
        ds,
        metric,
        bits,
        Box::new(MemDevice::new(512)),
        Box::new(MemDevice::new(512)),
        &mut clock,
    );
    (va, clock)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// NN is exact at every grid resolution and for both main metrics.
    #[test]
    fn prop_nn_exact(
        ds in dataset_strategy(4, 100),
        q in proptest::collection::vec(0.0f32..1.0, 4),
        bits in 1u32..9,
        use_max in proptest::bool::ANY,
    ) {
        let metric = if use_max { Metric::Maximum } else { Metric::Euclidean };
        let (va, mut clock) = build(&ds, bits, metric);
        let got = va.run(&mut clock, &Query::knn(&q, 1)).expect("valid query").into_ranked().0[0].1;
        let expect = ds.iter().map(|p| metric.distance(p, &q)).fold(f64::INFINITY, f64::min);
        prop_assert!((got - expect).abs() < 1e-5, "bits={bits}: {got} vs {expect}");
    }

    /// k-NN distances form the true sorted prefix.
    #[test]
    fn prop_knn_exact(
        ds in dataset_strategy(3, 80),
        q in proptest::collection::vec(0.0f32..1.0, 3),
        k in 1usize..15,
        bits in 2u32..7,
    ) {
        let (va, mut clock) = build(&ds, bits, Metric::Euclidean);
        let got = va.run(&mut clock, &Query::knn(&q, k)).expect("valid query").into_ranked().0;
        prop_assert_eq!(got.len(), k.min(ds.len()));
        let mut truth: Vec<f64> =
            ds.iter().map(|p| Metric::Euclidean.distance(p, &q)).collect();
        truth.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        for (g, t) in got.iter().zip(&truth) {
            prop_assert!((g.1 - t).abs() < 1e-5);
        }
    }

    /// Range queries return exactly the true id set.
    #[test]
    fn prop_range_exact(
        ds in dataset_strategy(3, 80),
        q in proptest::collection::vec(0.0f32..1.0, 3),
        r in 0.05f64..0.7,
        bits in 2u32..7,
    ) {
        let (va, mut clock) = build(&ds, bits, Metric::Euclidean);
        let mut got = va.run(&mut clock, &Query::Range { point: &q, radius: r }).expect("valid query").ids();
        got.sort_unstable();
        let mut expect: Vec<u32> = (0..ds.len() as u32)
            .filter(|&i| Metric::Euclidean.distance(ds.point(i as usize), &q) <= r)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// The filter phase always scans the whole approximation file — the
    /// VA-file's defining cost signature.
    #[test]
    fn prop_filter_scans_approx_file(
        ds in dataset_strategy(6, 120),
        q in proptest::collection::vec(0.0f32..1.0, 6),
    ) {
        let (va, mut clock) = build(&ds, 4, Metric::Euclidean);
        clock.reset();
        va.run(&mut clock, &Query::knn(&q, 1)).expect("valid query");
        prop_assert!(clock.stats().blocks_read >= va.approx_blocks());
    }
}
