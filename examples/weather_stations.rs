//! Weather-station analytics — the paper's WEATHER workload: 9 correlated
//! attributes, highly clustered, low fractal dimension. Demonstrates range
//! queries (find all observations similar to a reference measurement) and
//! dynamic maintenance (a day of new observations streaming in).
//!
//! Run with: `cargo run --release --example weather_stations`

use iqtree_repro::data::{self, Workload};
use iqtree_repro::engine::{AccessMethod, Query};
use iqtree_repro::geometry::Metric;
use iqtree_repro::storage::{MemDevice, SimClock};
use iqtree_repro::tree::{IqTree, IqTreeOptions};

const DIM: usize = 9;
const N: usize = 120_000;

fn main() {
    let w = Workload::generate(N, 3, |n| data::weather_like(DIM, n, 5));
    let df = data::correlation_dimension_auto(&w.db);
    println!(
        "indexed {N} weather observations ({DIM} attributes); \
         fractal dimension ~ {df:.2} (deeply below {DIM}: strong correlations)\n"
    );

    let mut clock = SimClock::default();
    let opts = IqTreeOptions {
        fractal_dim: Some(df),
        ..Default::default()
    };
    let mut tree = IqTree::build(
        &w.db,
        Metric::Euclidean,
        opts,
        || Box::new(MemDevice::new(8192)),
        &mut clock,
    );
    println!(
        "IQ-tree: {} pages; the cost model picked resolutions {:?}",
        tree.num_pages(),
        tree.bits_histogram()
    );

    // "Find all observations similar to this reference measurement."
    let reference = w.queries.point(0);
    for radius in [0.02, 0.05, 0.1] {
        clock.reset();
        let hits = tree
            .run(
                &mut clock,
                &Query::Range {
                    point: reference,
                    radius,
                },
            )
            .expect("valid query")
            .ids();
        println!(
            "range r={radius:<5}: {:>6} similar observations ({:.1} ms simulated, {} seeks)",
            hits.len(),
            clock.total_time() * 1e3,
            clock.stats().seeks,
        );
    }

    // A day of new observations streams in.
    let fresh = data::weather_like(DIM, 2_000, 99);
    clock.reset();
    for (i, p) in fresh.iter().enumerate() {
        tree.insert(&mut clock, (N + i) as u32, p).unwrap();
    }
    println!(
        "\ninserted {} new observations ({:.0} ms simulated write cost, {} pages now)",
        fresh.len(),
        clock.total_time() * 1e3,
        tree.num_pages(),
    );

    // Queries remain correct.
    clock.reset();
    let (id, d) = tree
        .run(&mut clock, &Query::knn(fresh.point(0), 1))
        .expect("valid query")
        .into_ranked()
        .0[0];
    println!("1-NN of the first new observation: {id} at {d:.5}");
    assert_eq!(
        id as usize, N,
        "the freshly inserted point must be its own NN"
    );
}
