//! Integration: the *cost* behavior the paper claims, measured end to end
//! on the simulated clock — the IQ-tree's headline properties, not just
//! result correctness.

use iqtree_repro::data::{self, Workload};
use iqtree_repro::engine::{AccessMethod, Query};
use iqtree_repro::geometry::Metric;
use iqtree_repro::scan::SeqScan;
use iqtree_repro::storage::{MemDevice, SimClock};
use iqtree_repro::tree::{IqTree, IqTreeOptions};
use iqtree_repro::xtree::XTree;

fn dev() -> Box<MemDevice> {
    Box::new(MemDevice::new(8192))
}

fn avg_nn_time(
    tree: &mut IqTree,
    clock: &mut SimClock,
    queries: &iqtree_repro::geometry::Dataset,
) -> f64 {
    let mut t = 0.0;
    for q in queries.iter() {
        clock.reset();
        tree.run(clock, &Query::knn(q, 1)).expect("valid query");
        t += clock.total_time();
    }
    t / queries.len() as f64
}

#[test]
fn iqtree_beats_scan_in_high_dimensions() {
    // The "best of both worlds" claim at the scan-friendly end: even at
    // d = 16 uniform, the compressed second level keeps the IQ-tree below
    // a full scan of the exact file.
    let w = Workload::generate(20_000, 8, |n| data::uniform(16, n, 71));
    let mut clock = SimClock::default();
    let mut tree = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || dev(),
        &mut clock,
    );
    let scan = SeqScan::build(&w.db, Metric::Euclidean, dev(), &mut clock);

    let iq = avg_nn_time(&mut tree, &mut clock, &w.queries);
    let mut sc = 0.0;
    for q in w.queries.iter() {
        clock.reset();
        scan.run(&mut clock, &Query::knn(q, 1))
            .expect("valid query");
        sc += clock.total_time();
    }
    sc /= w.queries.len() as f64;
    assert!(iq < sc, "IQ-tree {iq} vs scan {sc}");
}

#[test]
fn iqtree_beats_xtree_in_high_dimensions() {
    let w = Workload::generate(20_000, 8, |n| data::uniform(14, n, 72));
    let mut clock = SimClock::default();
    let mut tree = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || dev(),
        &mut clock,
    );
    let xt = XTree::build(&w.db, Metric::Euclidean, dev(), dev(), &mut clock);

    let iq = avg_nn_time(&mut tree, &mut clock, &w.queries);
    let mut xts = 0.0;
    for q in w.queries.iter() {
        clock.reset();
        xt.run(&mut clock, &Query::knn(q, 1)).expect("valid query");
        xts += clock.total_time();
    }
    xts /= w.queries.len() as f64;
    assert!(iq < xts, "IQ-tree {iq} vs X-tree {xts}");
}

#[test]
fn scheduled_io_never_pays_more_seeks_on_average() {
    let w = Workload::generate(15_000, 10, |n| data::uniform(12, n, 73));
    let mut c_opt = SimClock::default();
    let t_opt = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || dev(),
        &mut c_opt,
    );
    let mut c_std = SimClock::default();
    let t_std = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions {
            scheduled_io: false,
            ..Default::default()
        },
        || dev(),
        &mut c_std,
    );
    let (mut seeks_opt, mut seeks_std, mut time_opt, mut time_std) = (0u64, 0u64, 0.0, 0.0);
    for q in w.queries.iter() {
        c_opt.reset();
        t_opt
            .run(&mut c_opt, &Query::knn(q, 1))
            .expect("valid query");
        seeks_opt += c_opt.stats().seeks;
        time_opt += c_opt.total_time();
        c_std.reset();
        t_std
            .run(&mut c_std, &Query::knn(q, 1))
            .expect("valid query");
        seeks_std += c_std.stats().seeks;
        time_std += c_std.total_time();
    }
    assert!(
        seeks_opt < seeks_std,
        "scheduler must trade seeks: {seeks_opt} vs {seeks_std}"
    );
    assert!(
        time_opt < time_std,
        "and win overall: {time_opt} vs {time_std}"
    );
}

#[test]
fn quantization_compresses_the_scanned_level() {
    // The quantized second level must be substantially smaller than the
    // exact representation it stands in for.
    let w = Workload::generate(20_000, 1, |n| data::uniform(16, n, 74));
    let mut clock = SimClock::default();
    let tree = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || dev(),
        &mut clock,
    );
    let quant_bytes: usize = tree.num_pages() * 8192;
    let exact_bytes = w.db.len() * 16 * 4;
    assert!(
        (quant_bytes as f64) < 0.7 * exact_bytes as f64,
        "quantized level {quant_bytes} B vs exact {exact_bytes} B"
    );
}

#[test]
fn optimizer_trace_is_recorded_and_minimal_at_choice() {
    let w = Workload::generate(10_000, 1, |n| data::cad_like(12, n, 75));
    let mut clock = SimClock::default();
    let tree = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || dev(),
        &mut clock,
    );
    let trace = tree.optimize_trace();
    assert!(!trace.cost_per_step.is_empty());
    let min = trace
        .cost_per_step
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    assert_eq!(trace.cost_per_step[trace.best_step], min);
}

#[test]
fn queries_on_fresh_clock_have_reproducible_cost() {
    let w = Workload::generate(8_000, 3, |n| data::color_like(16, n, 76));
    let run = || -> Vec<(u64, u64)> {
        let mut clock = SimClock::default();
        let tree = IqTree::build(
            &w.db,
            Metric::Euclidean,
            IqTreeOptions::default(),
            || dev(),
            &mut clock,
        );
        w.queries
            .iter()
            .map(|q| {
                clock.reset();
                tree.run(&mut clock, &Query::knn(q, 1))
                    .expect("valid query");
                (clock.stats().seeks, clock.stats().blocks_read)
            })
            .collect()
    };
    assert_eq!(run(), run());
}
