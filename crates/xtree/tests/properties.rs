//! Property-based tests of the X-tree: exact nearest-neighbor and range
//! results over arbitrary bulk-loaded data.

use iq_engine::{AccessMethod, Query};
use iq_geometry::{Dataset, Metric};
use iq_storage::{MemDevice, SimClock};
use iq_xtree::XTree;
use proptest::prelude::*;

fn dataset_strategy(dim: usize, max_n: usize) -> impl Strategy<Value = Dataset> {
    proptest::collection::vec(0.0f32..1.0, dim * 20..dim * max_n).prop_map(move |mut flat| {
        flat.truncate(flat.len() / dim * dim);
        Dataset::from_flat(dim, flat)
    })
}

fn build(ds: &Dataset, metric: Metric) -> (XTree, SimClock) {
    let mut clock = SimClock::default();
    let tree = XTree::build(
        ds,
        metric,
        Box::new(MemDevice::new(512)),
        Box::new(MemDevice::new(512)),
        &mut clock,
    );
    (tree, clock)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// NN is exact for both main metrics.
    #[test]
    fn prop_nn_exact(
        ds in dataset_strategy(4, 120),
        q in proptest::collection::vec(0.0f32..1.0, 4),
        use_max in proptest::bool::ANY,
    ) {
        let metric = if use_max { Metric::Maximum } else { Metric::Euclidean };
        let (tree, mut clock) = build(&ds, metric);
        let got = tree.run(&mut clock, &Query::knn(&q, 1)).expect("valid query").into_ranked().0[0].1;
        let expect = ds.iter().map(|p| metric.distance(p, &q)).fold(f64::INFINITY, f64::min);
        prop_assert!((got - expect).abs() < 1e-5);
    }

    /// Range queries return exactly the true id set.
    #[test]
    fn prop_range_exact(
        ds in dataset_strategy(3, 100),
        q in proptest::collection::vec(0.0f32..1.0, 3),
        r in 0.05f64..0.7,
    ) {
        let (tree, mut clock) = build(&ds, Metric::Euclidean);
        let mut got = tree.run(&mut clock, &Query::Range { point: &q, radius: r }).expect("valid query").ids();
        got.sort_unstable();
        let mut expect: Vec<u32> = (0..ds.len() as u32)
            .filter(|&i| Metric::Euclidean.distance(ds.point(i as usize), &q) <= r)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}
