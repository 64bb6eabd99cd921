//! Concurrent shared-read queries: many threads searching one IQ-tree must
//! return exactly the serial answers, and the merged per-query clocks must
//! account for exactly the serial I/O — thread count is an execution
//! detail, never an accounting one.

mod common;

use common::{knn, knn_threaded, knn_threaded_hits};
use iqtree_repro::data;
use iqtree_repro::engine::QueryTrace;
use iqtree_repro::geometry::{Dataset, Metric};
use iqtree_repro::storage::{IoStats, MemDevice, SimClock};
use iqtree_repro::tree::{IqTree, IqTreeOptions};
use std::sync::Arc;

const DIM: usize = 8;

fn build(n: usize, opts: IqTreeOptions) -> IqTree {
    build_on(&data::uniform(DIM, n, 7), opts)
}

fn build_on(db: &Dataset, opts: IqTreeOptions) -> IqTree {
    let mut clock = SimClock::default();
    IqTree::build(
        db,
        Metric::Euclidean,
        opts,
        || Box::new(MemDevice::new(2048)),
        &mut clock,
    )
}

fn query_workload(nq: usize) -> Vec<Vec<f32>> {
    data::uniform(DIM, nq, 99)
        .iter()
        .map(<[f32]>::to_vec)
        .collect()
}

/// Serial reference: each query on a fresh clock, summed.
fn serial_run(tree: &IqTree, queries: &[Vec<f32>], k: usize) -> (Vec<Vec<(u32, f64)>>, SimClock) {
    let mut total = SimClock::default();
    total.reset();
    let results = queries
        .iter()
        .map(|q| {
            let mut c = SimClock::default();
            let r = knn(tree, &mut c, q, k).0;
            total.absorb(&c);
            r
        })
        .collect();
    (results, total)
}

#[test]
fn knn_batch_matches_serial_for_every_thread_count() {
    // Uniform data, and CAD-like clustered data, whose exact queries
    // refine many points per page: there, the queries of a micro-batch
    // share exact blocks as well as level-2 pages.
    let cad = data::Workload::generate(4_000, 24, |n| data::cad_like(DIM, n, 13));
    let cad_queries: Vec<Vec<f32>> = cad.queries.iter().map(<[f32]>::to_vec).collect();
    let workloads = [
        (
            "uniform",
            build(4_000, IqTreeOptions::default()),
            query_workload(24),
        ),
        (
            "cad",
            build_on(&cad.db, IqTreeOptions::default()),
            cad_queries,
        ),
    ];
    for (name, tree, queries) in &workloads {
        let k = 5;
        let (serial, serial_clock) = serial_run(tree, queries, k);

        // The batch executor groups queries into micro-batches that share
        // one page walk, so it reads *fewer* blocks than the serial loop —
        // the answers must still be identical, and the answers, traces and
        // accounting must not depend on the thread count (micro-batches
        // are formed in query order).
        let mut reference: Option<(Vec<QueryTrace>, SimClock)> = None;
        for threads in [1, 2, 8] {
            let mut clock = SimClock::default();
            let batch = knn_threaded(tree, &mut clock, queries, k, threads);
            let (hits, traces): (Vec<_>, Vec<_>) = batch.into_iter().unzip();
            assert_eq!(hits, serial, "{name}: results differ at {threads} threads");
            assert!(
                clock.stats().blocks_read <= serial_clock.stats().blocks_read,
                "{name}: shared page walk must never read more than the serial loop: \
                 {} vs {}",
                clock.stats().blocks_read,
                serial_clock.stats().blocks_read
            );
            match &reference {
                None => reference = Some((traces, clock)),
                Some((t, r)) => {
                    assert_eq!(&traces, t, "{name}: traces differ at {threads} threads");
                    assert_eq!(
                        clock.stats(),
                        r.stats(),
                        "{name}: merged IoStats differ at {threads} threads"
                    );
                    assert_eq!(
                        clock.io_time(),
                        r.io_time(),
                        "{name}: merged io_time differs at {threads} threads"
                    );
                }
            }
        }
    }
}

#[test]
fn eight_threads_sharing_an_arc_agree_with_serial() {
    let tree = Arc::new(build(3_000, IqTreeOptions::default()));
    let queries = query_workload(32);
    let k = 3;
    let (serial, _) = serial_run(&tree, &queries, k);

    let mut handles = Vec::new();
    for t in 0..8usize {
        let tree = Arc::clone(&tree);
        let queries = queries.clone();
        let serial = serial.clone();
        handles.push(std::thread::spawn(move || {
            // Each thread walks the whole workload from a different offset.
            let mut stats = IoStats::default();
            for i in 0..queries.len() {
                let j = (i + t * 4) % queries.len();
                let mut c = SimClock::default();
                let got = knn(tree.as_ref(), &mut c, &queries[j], k).0;
                assert_eq!(got, serial[j], "thread {t}, query {j}");
                stats.merge(&c.stats());
            }
            stats
        }));
    }
    let per_thread: Vec<IoStats> = handles
        .into_iter()
        .map(|h| h.join().expect("query thread panicked"))
        .collect();
    // Every thread ran the identical workload, so every thread must have
    // been charged the identical I/O.
    for s in &per_thread {
        assert_eq!(*s, per_thread[0]);
    }
}

#[test]
fn batch_over_a_cached_tree_is_consistent_and_cheaper() {
    let tree = build(
        3_000,
        IqTreeOptions {
            cache_blocks: Some(4_096),
            ..Default::default()
        },
    );
    let cold = build(3_000, IqTreeOptions::default());
    let queries = query_workload(16);

    let mut cold_clock = SimClock::default();
    let expect = knn_threaded_hits(&cold, &mut cold_clock, &queries, 4, 4);

    // Warm the pool, then run the measured batch.
    let mut warmup = SimClock::default();
    knn_threaded_hits(&tree, &mut warmup, &queries, 4, 4);
    let mut clock = SimClock::default();
    let got = knn_threaded_hits(&tree, &mut clock, &queries, 4, 4);

    assert_eq!(got, expect, "cache must be invisible in the results");
    assert!(
        clock.io_time() < cold_clock.io_time(),
        "resident pages must make the warm batch cheaper: {} vs {}",
        clock.io_time(),
        cold_clock.io_time()
    );
}

#[test]
fn empty_and_degenerate_batches() {
    let tree = build(500, IqTreeOptions::default());
    let mut clock = SimClock::default();
    assert!(knn_threaded_hits(&tree, &mut clock, &[] as &[Vec<f32>], 3, 4).is_empty());
    assert_eq!(clock.stats(), IoStats::default());
    // More threads than queries.
    let queries = query_workload(2);
    let res = knn_threaded_hits(&tree, &mut clock, &queries, 1, 64);
    assert_eq!(res.len(), 2);
    // threads == 0 is clamped to 1.
    let res0 = knn_threaded_hits(&tree, &mut SimClock::default(), &queries, 1, 0);
    assert_eq!(res0, res);
}
