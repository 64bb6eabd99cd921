//! Content-based image retrieval over color histograms — the COLOR
//! workload that motivates the paper's evaluation (Section 4).
//!
//! Builds an IQ-tree and a VA-file over 16-bin color histograms and
//! retrieves the 10 most similar "images" for a query histogram,
//! comparing simulated query cost and verifying both return identical
//! results.
//!
//! Run with: `cargo run --release --example image_search`

use iqtree_repro::data::{self, Workload};
use iqtree_repro::engine::{AccessMethod, Query};
use iqtree_repro::geometry::Metric;
use iqtree_repro::storage::{MemDevice, SimClock};
use iqtree_repro::tree::{IqTree, IqTreeOptions};
use iqtree_repro::vafile::VaFile;

const DIM: usize = 16;
const N: usize = 80_000;
const K: usize = 10;

fn main() {
    let w = Workload::generate(N, 5, |n| data::color_like(DIM, n, 7));
    let df = data::correlation_dimension_auto(&w.db);
    println!("indexed {N} color histograms ({DIM} bins), fractal dimension ~ {df:.2}");

    let mut clock = SimClock::default();
    let opts = IqTreeOptions {
        fractal_dim: Some(df),
        ..Default::default()
    };
    let tree = IqTree::build(
        &w.db,
        Metric::Euclidean,
        opts,
        || Box::new(MemDevice::new(8192)),
        &mut clock,
    );
    let va = VaFile::build(
        &w.db,
        Metric::Euclidean,
        5,
        Box::new(MemDevice::new(8192)),
        Box::new(MemDevice::new(8192)),
        &mut clock,
    );

    for (qi, q) in w.queries.iter().enumerate() {
        clock.reset();
        let iq_hits = tree
            .run(&mut clock, &Query::knn(q, K))
            .expect("valid query")
            .into_ranked()
            .0;
        let iq_time = clock.total_time();

        clock.reset();
        let va_hits = va
            .run(&mut clock, &Query::knn(q, K))
            .expect("valid query")
            .into_ranked()
            .0;
        let va_time = clock.total_time();

        assert_eq!(
            iq_hits.iter().map(|h| h.0).collect::<Vec<_>>(),
            va_hits.iter().map(|h| h.0).collect::<Vec<_>>(),
            "both engines must agree on the result set"
        );
        println!(
            "query {qi}: top-{K} similar images {:?}",
            &iq_hits.iter().map(|h| h.0).collect::<Vec<_>>()[..3.min(K)],
        );
        println!(
            "  IQ-tree {:.1} ms vs VA-file {:.1} ms (simulated) -> speedup {:.1}x",
            iq_time * 1e3,
            va_time * 1e3,
            va_time / iq_time,
        );
    }
}
