//! Cross-crate integration: the IQ-tree, X-tree, VA-file and sequential
//! scan must return identical exact results on every data distribution of
//! the paper's evaluation — they differ only in how much they pay to get
//! them.

mod common;

use common::knn;

use iqtree_repro::data::{self, Workload};
use iqtree_repro::engine::{AccessMethod, Query};
use iqtree_repro::geometry::{Dataset, Metric};
use iqtree_repro::scan::SeqScan;
use iqtree_repro::storage::{MemDevice, SimClock};
use iqtree_repro::tree::{IqTree, IqTreeOptions};
use iqtree_repro::vafile::VaFile;
use iqtree_repro::xtree::XTree;

const N: usize = 6_000;
const QUERIES: usize = 8;

fn dev() -> Box<MemDevice> {
    Box::new(MemDevice::new(4096))
}

struct AllMethods {
    iq: IqTree,
    xt: XTree,
    va: VaFile,
    scan: SeqScan,
    clock: SimClock,
}

impl AllMethods {
    fn build(db: &Dataset) -> Self {
        let mut clock = SimClock::default();
        let iq = IqTree::build(
            db,
            Metric::Euclidean,
            IqTreeOptions::default(),
            || dev(),
            &mut clock,
        );
        let xt = XTree::build(db, Metric::Euclidean, dev(), dev(), &mut clock);
        let va = VaFile::build(db, Metric::Euclidean, 4, dev(), dev(), &mut clock);
        let scan = SeqScan::build(db, Metric::Euclidean, dev(), &mut clock);
        Self {
            iq,
            xt,
            va,
            scan,
            clock,
        }
    }
}

fn workloads() -> Vec<(&'static str, Workload)> {
    vec![
        (
            "uniform",
            Workload::generate(N, QUERIES, |n| data::uniform(8, n, 1)),
        ),
        (
            "cad",
            Workload::generate(N, QUERIES, |n| data::cad_like(16, n, 2)),
        ),
        (
            "color",
            Workload::generate(N, QUERIES, |n| data::color_like(16, n, 3)),
        ),
        (
            "weather",
            Workload::generate(N, QUERIES, |n| data::weather_like(9, n, 4)),
        ),
    ]
}

#[test]
fn nearest_neighbor_distances_agree() {
    for (name, w) in workloads() {
        let mut m = AllMethods::build(&w.db);
        for (qi, q) in w.queries.iter().enumerate() {
            let a = knn(&m.iq, &mut m.clock, q, 1).0[0];
            let b = knn(&m.xt, &mut m.clock, q, 1).0[0];
            let c = knn(&m.va, &mut m.clock, q, 1).0[0];
            let d = knn(&m.scan, &mut m.clock, q, 1).0[0];
            for (tag, x) in [("xt", b.1), ("va", c.1), ("scan", d.1)] {
                assert!(
                    (a.1 - x).abs() < 1e-6,
                    "{name} query {qi}: iq {} vs {tag} {x}",
                    a.1
                );
            }
        }
    }
}

#[test]
fn knn_distance_sequences_agree() {
    const K: usize = 12;
    for (name, w) in workloads() {
        let mut m = AllMethods::build(&w.db);
        for (qi, q) in w.queries.iter().enumerate() {
            let a = knn(&m.iq, &mut m.clock, q, K).0;
            let b = knn(&m.xt, &mut m.clock, q, K).0;
            let c = knn(&m.va, &mut m.clock, q, K).0;
            let d = knn(&m.scan, &mut m.clock, q, K).0;
            assert_eq!(a.len(), K, "{name} query {qi}");
            for i in 0..K {
                for (tag, x) in [("xt", b[i].1), ("va", c[i].1), ("scan", d[i].1)] {
                    assert!(
                        (a[i].1 - x).abs() < 1e-6,
                        "{name} query {qi} rank {i}: iq {} vs {tag} {x}",
                        a[i].1
                    );
                }
            }
        }
    }
}

#[test]
fn range_query_id_sets_agree() {
    for (name, w) in workloads() {
        let mut m = AllMethods::build(&w.db);
        let q = w.queries.point(0);
        // Pick a radius that returns a non-trivial set: the 20th NN
        // distance.
        // Tiny inflation so the 20th neighbor survives the key <-> distance
        // round-trip at the boundary.
        let r = knn(&m.scan, &mut m.clock, q, 20)
            .0
            .last()
            .expect("20 results")
            .1
            * (1.0 + 1e-9);
        let mut a =
            m.iq.run(
                &mut m.clock,
                &Query::Range {
                    point: q,
                    radius: r,
                },
            )
            .expect("valid query")
            .ids();
        let mut b =
            m.xt.run(
                &mut m.clock,
                &Query::Range {
                    point: q,
                    radius: r,
                },
            )
            .expect("valid query")
            .ids();
        let mut c =
            m.va.run(
                &mut m.clock,
                &Query::Range {
                    point: q,
                    radius: r,
                },
            )
            .expect("valid query")
            .ids();
        let mut d = m
            .scan
            .run(
                &mut m.clock,
                &Query::Range {
                    point: q,
                    radius: r,
                },
            )
            .expect("valid query")
            .ids();
        for v in [&mut a, &mut b, &mut c, &mut d] {
            v.sort_unstable();
        }
        assert_eq!(a, d, "{name}: iq vs scan");
        assert_eq!(b, d, "{name}: xt vs scan");
        assert_eq!(c, d, "{name}: va vs scan");
        assert!(d.len() >= 20, "{name}: radius captured the 20-NN set");
    }
}

#[test]
fn maximum_metric_agreement() {
    let w = Workload::generate(3_000, 5, |n| data::uniform(6, n, 9));
    let mut clock = SimClock::default();
    let iq = IqTree::build(
        &w.db,
        Metric::Maximum,
        IqTreeOptions::default(),
        || dev(),
        &mut clock,
    );
    let va = VaFile::build(&w.db, Metric::Maximum, 4, dev(), dev(), &mut clock);
    let scan = SeqScan::build(&w.db, Metric::Maximum, dev(), &mut clock);
    for q in w.queries.iter() {
        let a = knn(&iq, &mut clock, q, 1).0[0].1;
        let b = knn(&va, &mut clock, q, 1).0[0].1;
        let c = knn(&scan, &mut clock, q, 1).0[0].1;
        assert!((a - c).abs() < 1e-6);
        assert!((b - c).abs() < 1e-6);
    }
}
