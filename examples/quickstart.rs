//! Quickstart: build an IQ-tree, run nearest-neighbor / k-NN / range
//! queries, and inspect what Independent Quantization chose.
//!
//! Run with: `cargo run --release --example quickstart`

use iqtree_repro::data::{self, Workload};
use iqtree_repro::engine::{AccessMethod, Query};
use iqtree_repro::geometry::Metric;
use iqtree_repro::storage::{IqResult, MemDevice, SimClock};
use iqtree_repro::tree::{IqTree, IqTreeOptions};

fn main() -> IqResult<()> {
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
    let (hits, _) = tree.run(&mut clock, &Query::knn(q, 1))?.into_ranked();
    let (id, dist) = hits[0];
    println!(
        "1-NN of query 0: point {id} at distance {dist:.4} \
         (simulated {:.1} ms, {} seeks, {} blocks)",
        clock.total_time() * 1e3,
        clock.stats().seeks,
        clock.stats().blocks_read,
    );

    // k-NN.
    clock.reset();
    let knn = tree.run(&mut clock, &Query::knn(q, 5))?;
    println!(
        "5-NN ids: {:?} ({} pages processed)",
        knn.ids(),
        knn.trace.pages_processed
    );

    // Range query.
    clock.reset();
    let radius = dist * 2.0;
    let hits = tree.run(&mut clock, &Query::Range { point: q, radius })?;
    println!(
        "range({radius:.4}) -> {} points (simulated {:.1} ms)",
        hits.len(),
        clock.total_time() * 1e3,
    );

    // Dynamic insert.
    clock.reset();
    let new_point = vec![0.5f32; 12];
    tree.insert(&mut clock, 999_999, &new_point)?;
    let (hits, _) = tree
        .run(&mut clock, &Query::knn(&new_point, 1))?
        .into_ranked();
    println!(
        "after insert: 1-NN of the new point is {} at {:.4}",
        hits[0].0, hits[0].1
    );

    // A malformed query is an error, not a panic.
    let err = tree.run(&mut clock, &Query::knn(&[0.5; 3], 1)).unwrap_err();
    println!("a 3-d query: {err}");
    Ok(())
}
