//! CAD part retrieval — the paper's CAD workload: 16 Fourier coefficients
//! of object curvature, moderately clustered. On this distribution the
//! X-tree stays strong (Figure 10); the example races all three index
//! structures on the same queries.
//!
//! Run with: `cargo run --release --example cad_retrieval`

use iqtree_repro::data::{self, Workload};
use iqtree_repro::engine::{AccessMethod, Query};
use iqtree_repro::geometry::Metric;
use iqtree_repro::storage::{MemDevice, SimClock};
use iqtree_repro::tree::{IqTree, IqTreeOptions};
use iqtree_repro::vafile::VaFile;
use iqtree_repro::xtree::XTree;

const DIM: usize = 16;
const N: usize = 100_000;

fn dev() -> Box<MemDevice> {
    Box::new(MemDevice::new(8192))
}

fn main() {
    let w = Workload::generate(N, 10, |n| data::cad_like(DIM, n, 11));
    let df = data::correlation_dimension_auto(&w.db);
    println!("indexed {N} CAD parts (Fourier, {DIM} coefficients), fractal dim ~ {df:.2}\n");

    let mut clock = SimClock::default();
    let opts = IqTreeOptions {
        fractal_dim: Some(df),
        ..Default::default()
    };
    let iq = IqTree::build(&w.db, Metric::Euclidean, opts, || dev(), &mut clock);
    let xt = XTree::build(&w.db, Metric::Euclidean, dev(), dev(), &mut clock);
    let va = VaFile::build(&w.db, Metric::Euclidean, 5, dev(), dev(), &mut clock);

    println!(
        "IQ-tree: {} pages, bit resolutions {:?}",
        iq.num_pages(),
        iq.bits_histogram()
    );
    println!(
        "X-tree:  {} data pages, height {}\n",
        xt.num_data_pages(),
        xt.height()
    );

    let (mut t_iq, mut t_xt, mut t_va) = (0.0, 0.0, 0.0);
    for q in w.queries.iter() {
        clock.reset();
        let a = iq
            .run(&mut clock, &Query::knn(q, 1))
            .expect("valid query")
            .into_ranked()
            .0[0];
        t_iq += clock.total_time();

        clock.reset();
        let b = xt
            .run(&mut clock, &Query::knn(q, 1))
            .expect("valid query")
            .into_ranked()
            .0[0];
        t_xt += clock.total_time();

        clock.reset();
        let c = va
            .run(&mut clock, &Query::knn(q, 1))
            .expect("valid query")
            .into_ranked()
            .0[0];
        t_va += clock.total_time();

        assert!(
            (a.1 - b.1).abs() < 1e-6 && (b.1 - c.1).abs() < 1e-6,
            "engines disagree"
        );
    }
    let nq = w.queries.len() as f64;
    println!("average simulated NN query time over {nq} queries:");
    println!("  IQ-tree  {:.1} ms", t_iq / nq * 1e3);
    println!("  X-tree   {:.1} ms", t_xt / nq * 1e3);
    println!("  VA-file  {:.1} ms", t_va / nq * 1e3);
    println!(
        "\nIQ-tree speedup: {:.1}x vs X-tree, {:.1}x vs VA-file",
        t_xt / t_iq,
        t_va / t_iq
    );
}
