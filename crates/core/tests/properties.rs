//! Property-based tests of the IQ-tree's end-to-end guarantees: whatever
//! the data distribution, block size, metric or option set, query results
//! are exact and structural invariants hold.

use iq_engine::{AccessMethod, Query};
use iq_geometry::{Dataset, Metric};
use iq_storage::{MemDevice, SimClock};
use iq_tree::{IqTree, IqTreeOptions};
use proptest::prelude::*;

fn dataset_strategy(dim: usize, max_n: usize) -> impl Strategy<Value = Dataset> {
    proptest::collection::vec(0.0f32..1.0, dim * 20..dim * max_n).prop_map(move |mut flat| {
        flat.truncate(flat.len() / dim * dim);
        Dataset::from_flat(dim, flat)
    })
}

fn build(ds: &Dataset, opts: IqTreeOptions, metric: Metric, bs: usize) -> (IqTree, SimClock) {
    let mut clock = SimClock::default();
    let tree = IqTree::build(
        ds,
        metric,
        opts,
        || Box::new(MemDevice::new(bs)),
        &mut clock,
    );
    (tree, clock)
}

fn brute_nn(ds: &Dataset, q: &[f32], metric: Metric) -> f64 {
    ds.iter()
        .map(|p| metric.distance(p, q))
        .fold(f64::INFINITY, f64::min)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// NN distance matches brute force for every option combination.
    #[test]
    fn prop_nn_exact(
        ds in dataset_strategy(4, 120),
        q in proptest::collection::vec(0.0f32..1.0, 4),
        quantize in proptest::bool::ANY,
        scheduled in proptest::bool::ANY,
    ) {
        let opts = IqTreeOptions { quantize, scheduled_io: scheduled, ..Default::default() };
        let (tree, mut clock) = build(&ds, opts, Metric::Euclidean, 512);
        let got = tree.run(&mut clock, &Query::knn(&q, 1)).expect("valid query").into_ranked().0[0].1;
        let expect = brute_nn(&ds, &q, Metric::Euclidean);
        prop_assert!((got - expect).abs() < 1e-5, "{got} vs {expect}");
    }

    /// k-NN returns a sorted prefix of the true distance sequence.
    #[test]
    fn prop_knn_sorted_and_exact(
        ds in dataset_strategy(3, 100),
        q in proptest::collection::vec(0.0f32..1.0, 3),
        k in 1usize..20,
    ) {
        let (tree, mut clock) = build(&ds, IqTreeOptions::default(), Metric::Euclidean, 512);
        let got = tree.run(&mut clock, &Query::knn(&q, k)).expect("valid query").into_ranked().0;
        prop_assert_eq!(got.len(), k.min(ds.len()));
        prop_assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
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
        ds in dataset_strategy(3, 100),
        q in proptest::collection::vec(0.0f32..1.0, 3),
        r in 0.05f64..0.8,
    ) {
        let (tree, mut clock) = build(&ds, IqTreeOptions::default(), Metric::Euclidean, 512);
        let mut got = tree.run(&mut clock, &Query::Range { point: &q, radius: r }).expect("valid query").ids();
        got.sort_unstable();
        let mut expect: Vec<u32> = (0..ds.len() as u32)
            .filter(|&i| Metric::Euclidean.distance(ds.point(i as usize), &q) <= r)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Structural invariants after a random insert/delete sequence.
    #[test]
    fn prop_update_sequence_invariants(
        ds in dataset_strategy(3, 60),
        ops in proptest::collection::vec((proptest::bool::ANY,
            proptest::collection::vec(0.0f32..1.0, 3)), 1..40),
    ) {
        let (mut tree, mut clock) = build(&ds, IqTreeOptions::default(), Metric::Euclidean, 512);
        let mut live: Vec<(u32, Vec<f32>)> =
            (0..ds.len()).map(|i| (i as u32, ds.point(i).to_vec())).collect();
        let mut next_id = ds.len() as u32;
        for (is_insert, p) in ops {
            if is_insert || live.len() <= 1 {
                tree.insert(&mut clock, next_id, &p).unwrap();
                live.push((next_id, p));
                next_id += 1;
            } else {
                let (id, victim) = live.swap_remove(live.len() / 2);
                prop_assert!(tree.delete(&mut clock, id, &victim).unwrap());
            }
        }
        prop_assert_eq!(tree.len(), live.len());
        let total: u32 = tree.pages().iter().map(|p| p.count).sum();
        prop_assert_eq!(total as usize, live.len());
        // A random live point is findable at distance 0.
        let (id, p) = &live[live.len() / 2];
        let hits = tree.run(&mut clock, &Query::Range { point: p, radius: 1e-9 }).expect("valid query").ids();
        prop_assert!(hits.contains(id));
    }

    /// The maximum metric is exact too.
    #[test]
    fn prop_nn_exact_max_metric(
        ds in dataset_strategy(5, 80),
        q in proptest::collection::vec(0.0f32..1.0, 5),
    ) {
        let (tree, mut clock) = build(&ds, IqTreeOptions::default(), Metric::Maximum, 512);
        let got = tree.run(&mut clock, &Query::knn(&q, 1)).expect("valid query").into_ranked().0[0].1;
        let expect = brute_nn(&ds, &q, Metric::Maximum);
        prop_assert!((got - expect).abs() < 1e-5);
    }

    /// A tree shared behind an `Arc` answers from plain `&self`, from
    /// spawned threads, exactly like the iq-scan ground truth — sharing a
    /// tree must never change what a query returns.
    #[test]
    fn prop_arc_shared_queries_match_scan(
        ds in dataset_strategy(4, 100),
        qs in proptest::collection::vec(
            (proptest::collection::vec(0.0f32..1.0, 4), 1usize..8), 1..6),
    ) {
        use std::sync::Arc;
        let (tree, _) = build(&ds, IqTreeOptions::default(), Metric::Euclidean, 512);
        let tree = Arc::new(tree);
        let scan = iq_scan::SeqScan::build(
            &ds,
            Metric::Euclidean,
            Box::new(MemDevice::new(512)),
            &mut SimClock::default(),
        );
        for (q, k) in qs {
            let expect = scan.run(&mut SimClock::default(), &Query::knn(&q, k)).expect("valid query").into_ranked().0;
            let shared = Arc::clone(&tree);
            let got = std::thread::spawn(move || {
                shared.run(&mut SimClock::default(), &Query::knn(&q, k)).expect("valid query").into_ranked().0
            })
            .join()
            .expect("query thread panicked");
            prop_assert_eq!(got.len(), expect.len());
            for (g, e) in got.iter().zip(&expect) {
                prop_assert!((g.1 - e.1).abs() < 1e-5, "{:?} vs {:?}", g, e);
            }
        }
    }
}
