//! Quickstart: build an IQ-tree, run nearest-neighbor / k-NN / range
//! queries, and inspect what Independent Quantization chose.
//!
//! Run with: `cargo run --release --example quickstart`

use iqtree_repro::data::{self, Workload};
use iqtree_repro::engine::AccessMethod;
use iqtree_repro::geometry::Metric;
use iqtree_repro::storage::{MemDevice, SimClock};
use iqtree_repro::tree::{IqTree, IqTreeOptions};

fn main() {
    // 50k uniform points in 12 dimensions, 10 held out as queries.
    let w = Workload::generate(50_000, 10, |n| data::uniform(12, n, 42));

    // Build. The clock accumulates simulated disk + CPU time; build cost is
    // tracked separately from query cost by resetting it.
    let mut clock = SimClock::default();
    let mut tree = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || Box::new(MemDevice::new(8192)),
        &mut clock,
    );
    println!(
        "built IQ-tree over {} points: {} quantized pages, resolutions {:?}",
        tree.len(),
        tree.num_pages(),
        tree.bits_histogram(),
    );

    // Nearest neighbor.
    clock.reset();
    let q = w.queries.point(0);
    let (id, dist) = tree.nearest(&mut clock, q).expect("non-empty tree");
    println!(
        "1-NN of query 0: point {id} at distance {dist:.4} \
         (simulated {:.1} ms, {} seeks, {} blocks)",
        clock.total_time() * 1e3,
        clock.stats().seeks,
        clock.stats().blocks_read,
    );

    // k-NN.
    clock.reset();
    let knn = tree.knn(&mut clock, q, 5);
    println!(
        "5-NN ids: {:?}",
        knn.iter().map(|&(id, _)| id).collect::<Vec<_>>()
    );

    // Range query.
    clock.reset();
    let hits = tree.range(&mut clock, q, dist * 2.0);
    println!(
        "range({:.4}) -> {} points (simulated {:.1} ms)",
        dist * 2.0,
        hits.len(),
        clock.total_time() * 1e3,
    );

    // Dynamic insert.
    clock.reset();
    let new_point = vec![0.5f32; 12];
    tree.insert(&mut clock, 999_999, &new_point).unwrap();
    let (nid, nd) = tree.nearest(&mut clock, &new_point).expect("non-empty");
    println!("after insert: 1-NN of the new point is {nid} at {nd:.4}");
}
