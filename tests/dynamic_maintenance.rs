//! Integration: dynamic maintenance of the IQ-tree across crates — a tree
//! built by bulk load plus inserts answers exactly like brute force, and
//! deletions remove points from all query types.

mod common;

use common::knn;

use iqtree_repro::data::{self};
use iqtree_repro::engine::{AccessMethod, Query};
use iqtree_repro::geometry::{Dataset, Metric};
use iqtree_repro::storage::{MemDevice, SimClock};
use iqtree_repro::tree::{IqTree, IqTreeOptions};

fn dev() -> Box<MemDevice> {
    Box::new(MemDevice::new(4096))
}

fn brute_knn(ds: &Dataset, q: &[f32], k: usize) -> Vec<f64> {
    let mut d: Vec<f64> = ds
        .iter()
        .map(|p| Metric::Euclidean.distance(p, q))
        .collect();
    d.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    d.truncate(k);
    d
}

#[test]
fn iqtree_half_bulk_half_inserted_matches_brute_force() {
    let all = data::weather_like(9, 6_000, 31);
    let mut bulk = all.clone();
    let streamed = bulk.split_off_tail(3_000);

    let mut clock = SimClock::default();
    let mut tree = IqTree::build(
        &bulk,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || dev(),
        &mut clock,
    );
    for (i, p) in streamed.iter().enumerate() {
        tree.insert(&mut clock, (3_000 + i) as u32, p).unwrap();
    }
    assert_eq!(tree.len(), 6_000);

    let queries = data::weather_like(9, 10, 97);
    for q in queries.iter() {
        let got = knn(&tree, &mut clock, q, 7).0;
        let expect = brute_knn(&all, q, 7);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g.1 - e).abs() < 1e-6, "knn mismatch: {} vs {e}", g.1);
        }
    }
}

#[test]
fn interleaved_inserts_and_deletes_stay_consistent() {
    let base = data::uniform(5, 2_000, 41);
    let extra = data::uniform(5, 1_000, 42);
    let mut clock = SimClock::default();
    let mut tree = IqTree::build(
        &base,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || dev(),
        &mut clock,
    );

    // Insert all extras, then delete every even-numbered one again.
    for (i, p) in extra.iter().enumerate() {
        tree.insert(&mut clock, (2_000 + i) as u32, p).unwrap();
    }
    for (i, p) in extra.iter().enumerate() {
        if i % 2 == 0 {
            assert!(
                tree.delete(&mut clock, (2_000 + i) as u32, p).unwrap(),
                "delete {i}"
            );
        }
    }
    assert_eq!(tree.len(), 2_000 + 500);

    // Ground truth: base + odd extras.
    let mut truth = base.clone();
    for (i, p) in extra.iter().enumerate() {
        if i % 2 == 1 {
            truth.push(p);
        }
    }
    let queries = data::uniform(5, 10, 43);
    for q in queries.iter() {
        let (_, d) = knn(&tree, &mut clock, q, 1).0[0];
        let expect = brute_knn(&truth, q, 1)[0];
        assert!((d - expect).abs() < 1e-6);
    }
    // Deleted points are really gone from range queries.
    for (i, p) in extra.iter().enumerate().take(50) {
        if i % 2 == 0 {
            let hits = tree
                .run(
                    &mut clock,
                    &Query::Range {
                        point: p,
                        radius: 1e-7,
                    },
                )
                .expect("valid query")
                .ids();
            assert!(
                !hits.contains(&((2_000 + i) as u32)),
                "deleted point {i} still present"
            );
        }
    }
}

#[test]
fn iqtree_heavy_cad_inserts_match_brute_force() {
    let base = data::cad_like(8, 1_500, 51);
    let extra = data::cad_like(8, 1_500, 52);
    let mut clock = SimClock::default();
    let mut iq = IqTree::build(
        &base,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || dev(),
        &mut clock,
    );
    let mut all = base.clone();
    for (i, p) in extra.iter().enumerate() {
        iq.insert(&mut clock, (1_500 + i) as u32, p).unwrap();
        all.push(p);
    }
    assert_eq!(iq.len(), 3_000);
    let queries = data::cad_like(8, 10, 53);
    for q in queries.iter() {
        let got = knn(&iq, &mut clock, q, 10).0;
        let expect = brute_knn(&all, q, 10);
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            assert!((g.1 - e).abs() < 1e-6, "knn mismatch: {} vs {e}", g.1);
        }
    }
}

#[test]
fn page_invariants_hold_after_updates() {
    let base = data::uniform(4, 3_000, 61);
    let mut clock = SimClock::default();
    let mut tree = IqTree::build(
        &base,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || dev(),
        &mut clock,
    );
    let extra = data::clusters(4, 2_000, 3, 0.02, 62);
    for (i, p) in extra.iter().enumerate() {
        tree.insert(&mut clock, (3_000 + i) as u32, p).unwrap();
    }
    // Every page's count fits its resolution; totals add up.
    let total: u32 = tree.pages().iter().map(|p| p.count).sum();
    assert_eq!(total as usize, tree.len());
    for meta in tree.pages() {
        assert!((1..=32).contains(&meta.g));
    }
    // Wasted blocks are tracked, never negative (u64) and bounded by the
    // exact file growth.
    let _ = tree.wasted_exact_blocks();
}
