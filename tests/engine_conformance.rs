//! Engine-layer conformance: every [`AccessMethod`] — IQ-tree, VA-file,
//! X-tree — must agree *exactly* with the sequential scan on the same
//! clustered workload, for every supported metric and query type, and the
//! shared batch executor must be thread-count-invariant for each of them.
//! A third test drives the baselines through a [`DeviceStack`] injecting
//! transient faults: with the retry layer in the stack, results must still
//! match the scan bit for bit. The last two pin the query boundary every
//! engine shares: trivial k-NN queries cost nothing; a query of the wrong
//! dimension, a query point with a NaN or infinite coordinate, a radius
//! that is negative, NaN or infinite and a window with non-finite bounds
//! are rejected with a typed error on every path, alone, in a micro-batch
//! and through the threaded executor, at no cost and under every metric;
//! and range and window queries run inside the engine's root span.

mod common;

use common::{knn, knn_threaded_hits};
use iqtree_repro::data;
use iqtree_repro::engine::{
    run_threaded, AccessMethod, Answer, Filter, Hits, Query, QueryOptions, QueryTrace,
};
use iqtree_repro::geometry::{Dataset, Mbr, Metric};
use iqtree_repro::storage::{
    BlockDevice, DeviceStack, FaultConfig, IoStats, IqError, IqResult, MemDevice, RetryPolicy,
    SimClock,
};
use iqtree_repro::{build_engine, EngineKind};

const N: usize = 5_000;
const DIM: usize = 8;

/// The clustered dataset the suite runs on (CAD analogue: moderately
/// clustered Fourier coefficients) plus held-out query points.
fn clustered() -> (Dataset, Vec<Vec<f32>>) {
    let w = iqtree_repro::data::Workload::generate(N, 6, |n| data::cad_like(DIM, n, 77));
    let queries: Vec<Vec<f32>> = w.queries.iter().map(<[f32]>::to_vec).collect();
    (w.db, queries)
}

fn metrics() -> [Metric; 3] {
    [Metric::Euclidean, Metric::Maximum, Metric::Manhattan]
}

fn plain_dev() -> Box<dyn BlockDevice> {
    Box::new(MemDevice::new(4096))
}

/// Builds all four engines over `ds` with `make_dev` devices.
fn build_all(
    ds: &Dataset,
    metric: Metric,
    mut make_dev: impl FnMut() -> Box<dyn BlockDevice>,
) -> Vec<Box<dyn AccessMethod>> {
    EngineKind::ALL
        .iter()
        .map(|&kind| {
            let mut clock = SimClock::default();
            build_engine(kind, ds, metric, &mut make_dev, &mut clock)
        })
        .collect()
}

/// Sorts a k-NN result so engines that break exact-distance ties
/// differently remain comparable; distances themselves must be identical.
fn canon(mut hits: Vec<(u32, f64)>) -> Vec<(u32, u64)> {
    hits.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .expect("no NaN distances")
            .then(a.0.cmp(&b.0))
    });
    hits.into_iter().map(|(id, d)| (id, d.to_bits())).collect()
}

fn assert_engines_match_scan(engines: &[Box<dyn AccessMethod>], queries: &[Vec<f32>], tag: &str) {
    let scan = engines
        .iter()
        .find(|e| e.name() == "scan")
        .expect("scan engine present");
    let mut clock = SimClock::default();
    for (qi, q) in queries.iter().enumerate() {
        // k-NN: identical distances (bitwise), ids up to tie order.
        let want_knn = canon(knn(scan.as_ref(), &mut clock, q, 10).0);
        // Range at the 15th-NN distance (inflated so the boundary point
        // survives the key <-> distance round-trip).
        let radius = knn(scan.as_ref(), &mut clock, q, 15)
            .0
            .last()
            .expect("15 hits")
            .1
            * (1.0 + 1e-9);
        let mut want_range = scan
            .run(&mut clock, &Query::Range { point: q, radius })
            .expect("valid query")
            .ids();
        want_range.sort_unstable();
        // Window: a box of half-width 0.15 around the query point.
        let lo: Vec<f32> = q.iter().map(|c| c - 0.15).collect();
        let hi: Vec<f32> = q.iter().map(|c| c + 0.15).collect();
        let win = Mbr::from_bounds(lo, hi);
        let mut want_win = scan
            .run(&mut clock, &Query::Window(&win))
            .expect("valid query")
            .ids();
        want_win.sort_unstable();

        for eng in engines {
            if eng.name() == "scan" {
                continue;
            }
            let got_knn = canon(knn(eng.as_ref(), &mut clock, q, 10).0);
            assert_eq!(got_knn, want_knn, "{tag} {} knn query {qi}", eng.name());
            let mut got_range = eng
                .run(&mut clock, &Query::Range { point: q, radius })
                .expect("valid query")
                .ids();
            got_range.sort_unstable();
            assert_eq!(
                got_range,
                want_range,
                "{tag} {} range query {qi}",
                eng.name()
            );
            let mut got_win = eng
                .run(&mut clock, &Query::Window(&win))
                .expect("valid query")
                .ids();
            got_win.sort_unstable();
            assert_eq!(got_win, want_win, "{tag} {} window query {qi}", eng.name());
        }
    }
}

#[test]
fn all_engines_agree_with_scan_on_every_metric() {
    let (ds, queries) = clustered();
    for metric in metrics() {
        let engines = build_all(&ds, metric, plain_dev);
        assert_engines_match_scan(&engines, &queries, &format!("{metric:?}"));
    }
}

#[test]
fn batch_executor_is_thread_count_invariant_per_engine() {
    let (ds, queries) = clustered();
    let engines = build_all(&ds, Metric::Euclidean, plain_dev);
    for eng in &engines {
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            let mut clock = SimClock::default();
            let results = knn_threaded_hits(eng.as_ref(), &mut clock, &queries, 7, threads);
            runs.push((threads, results, clock.stats(), clock.total_time()));
        }
        let (_, r1, s1, t1) = &runs[0];
        for (threads, r, s, t) in &runs[1..] {
            // Byte-identical results and identical simulated cost,
            // regardless of how the batch was fanned out.
            assert_eq!(r, r1, "{} differs at {threads} threads", eng.name());
            assert_eq!(s, s1, "{} stats differ at {threads} threads", eng.name());
            assert_eq!(t, t1, "{} time differs at {threads} threads", eng.name());
        }
    }
}

#[test]
fn engines_agree_with_scan_under_injected_transient_faults() {
    let (ds, queries) = clustered();
    // Every engine file — the scan oracle's included — sits behind a
    // device stack injecting transient faults on ~5% of operations,
    // absorbed by the retry layer above. A generous attempt budget keeps
    // the chance of an unrecovered fault negligible (0.05^8); the fault
    // schedule is seeded, so the test is fully deterministic either way.
    let retry = RetryPolicy {
        max_attempts: 8,
        ..RetryPolicy::default()
    };
    let mut seed = 0u64;
    let faulty = move || -> Box<dyn BlockDevice> {
        seed += 1;
        DeviceStack::new(Box::new(MemDevice::new(4096)))
            .faults(FaultConfig::transient(seed, 0.05))
            .retry(retry)
            .build()
    };
    let engines = build_all(&ds, Metric::Euclidean, faulty);
    // Sanity: the workload actually exercised the fault path.
    let mut clock = SimClock::default();
    for eng in &engines {
        eng.run(&mut clock, &Query::knn(&queries[0], 5))
            .expect("valid query");
    }
    assert!(clock.stats().io_retries > 0, "faults were never injected");
    assert_engines_match_scan(&engines, &queries, "faulty");
}

/// `q` with its first coordinate NaN, +∞ and −∞ in turn.
fn non_finite(q: &[f32]) -> [Vec<f32>; 3] {
    [f32::NAN, f32::INFINITY, f32::NEG_INFINITY].map(|x| {
        let mut p = q.to_vec();
        p[0] = x;
        p
    })
}

/// Whether `r` is the typed error of a rejected query.
fn invalid(r: &IqResult<Answer>) -> bool {
    matches!(r, Err(IqError::InvalidQuery { .. }))
}

/// Asserts `eng` rejects `query` with [`IqError::InvalidQuery`] alone, in
/// a micro-batch of two and through the threaded executor, and that none
/// of them charged the clock or opened a span. Returns the message.
fn assert_rejected(eng: &dyn AccessMethod, query: &Query, what: &str) -> String {
    let mut clock = SimClock::default();
    clock.enable_tracing();
    let solo = eng.run(&mut clock, query);
    assert!(invalid(&solo), "{what}: run gave {solo:?}");
    let pair = [*query, *query];
    let batch = eng.run_batch(&mut clock, &pair);
    assert!(
        batch.iter().all(invalid),
        "{what}: run_batch gave {batch:?}"
    );
    let threaded = run_threaded(eng, &mut clock, &pair, 2);
    assert!(
        threaded.iter().all(invalid),
        "{what}: threaded {threads:?}",
        threads = threaded
    );
    assert_eq!(clock.stats(), IoStats::default(), "{what}");
    assert_eq!(clock.total_time(), 0.0, "{what}");
    let tree = clock.take_trace().expect("tracing was on");
    assert!(tree.root.children.is_empty(), "{what}: {tree:?}");
    solo.expect_err("rejected").to_string()
}

#[test]
fn knn_boundary_is_shared_by_every_engine() {
    let (ds, queries) = clustered();
    let nothing = Filter::from_fn(ds.len(), |_| false);
    for &kind in &EngineKind::ALL {
        let eng = build_engine(
            kind,
            &ds,
            Metric::Euclidean,
            plain_dev,
            &mut SimClock::default(),
        );
        let name = eng.name();
        // `k = 0` and a filter that matches no id are answered before any
        // engine code runs: no results, an empty trace, nothing charged
        // and no engine span on a tracing clock.
        for (what, k, filter) in [("k = 0", 0, None), ("empty filter", 5, Some(&nothing))] {
            let mut clock = SimClock::default();
            clock.enable_tracing();
            let query = Query::Knn {
                point: &queries[0],
                k,
                filter,
                opts: QueryOptions::EXACT,
            };
            let answer = eng
                .run(&mut clock, &query)
                .expect("a trivial query is valid");
            assert_eq!(answer.hits, Hits::Ranked(Vec::new()), "{name} {what}");
            assert_eq!(answer.trace, QueryTrace::default(), "{name} {what}");
            assert_eq!(clock.total_time(), 0.0, "{name} {what}");
            let tree = clock.take_trace().expect("tracing was on");
            assert!(tree.root.children.is_empty(), "{name} {what}: {tree:?}");
        }
        // A query one coordinate short is rejected with the dimensions in
        // the message, alone and inside a batch (the IQ-tree's micro-batch
        // override).
        let short = &queries[0][..DIM - 1];
        let msg = assert_rejected(eng.as_ref(), &Query::knn(short, 5), name);
        assert!(msg.contains("7 coordinates, index is 8-d"), "{name}: {msg}");
        // So is a knob out of range.
        let query = Query::Knn {
            point: &queries[0],
            k: 5,
            filter: None,
            opts: QueryOptions {
                nprobes: Some(0),
                ..QueryOptions::EXACT
            },
        };
        let msg = assert_rejected(eng.as_ref(), &query, name);
        assert!(msg.contains("nprobes"), "{name}: {msg}");
    }
    // A query point with a NaN or infinite coordinate is no point of the
    // space: it is rejected at no cost and with no span, alone and inside
    // a batch, under every metric.
    for metric in metrics() {
        for eng in build_all(&ds, metric, plain_dev) {
            for q in non_finite(&queries[0]) {
                let what = format!("{metric:?} {} q[0] = {}", eng.name(), q[0]);
                assert_rejected(eng.as_ref(), &Query::knn(&q, 5), &what);
            }
        }
    }
}

#[test]
fn range_and_window_boundary_is_shared_by_every_engine() {
    let (ds, queries) = clustered();
    let whole = Mbr::from_bounds(vec![-1.0; DIM], vec![2.0; DIM]);
    for &kind in &EngineKind::ALL {
        let eng = build_engine(
            kind,
            &ds,
            Metric::Euclidean,
            plain_dev,
            &mut SimClock::default(),
        );
        let name = eng.name();
        // A query one coordinate short is rejected on every engine, a
        // range and a window alike.
        let short = &queries[0][..DIM - 1];
        let range = Query::Range {
            point: short,
            radius: 0.5,
        };
        let msg = assert_rejected(eng.as_ref(), &range, name);
        assert!(msg.contains("index is 8-d"), "{name}: {msg}");
        let short_window = Mbr::from_bounds(vec![0.0; DIM - 1], vec![1.0; DIM - 1]);
        let msg = assert_rejected(eng.as_ref(), &Query::Window(&short_window), name);
        assert!(msg.contains("index is 8-d"), "{name}: {msg}");
        // So is a window with an infinite bound.
        let mut ub = vec![1.0; DIM];
        ub[3] = f32::INFINITY;
        let open = Mbr::from_bounds(vec![0.0; DIM], ub);
        assert_rejected(eng.as_ref(), &Query::Window(&open), name);
        // A valid query runs inside the engine's root span, which carries
        // the radius, the trace's counters and the hit count.
        let mut clock = SimClock::default();
        clock.enable_tracing();
        let range = Query::Range {
            point: &queries[0],
            radius: 0.3,
        };
        let hits = eng.run(&mut clock, &range).expect("valid query");
        let all = eng
            .run(&mut clock, &Query::Window(&whole))
            .expect("valid query");
        assert_eq!(all.len(), ds.len(), "{name}");
        let tree = clock.take_trace().expect("tracing was on");
        let spans: Vec<_> = tree.root.children.iter().collect();
        assert_eq!(spans.len(), 2, "{name}: {tree:?}");
        for (span, answer) in spans.iter().zip([&hits, &all]) {
            assert_eq!(span.name, name);
            let n = answer.len() as u64;
            assert!(span.counters.contains(&("hits".to_string(), n)));
            let runs = ("runs".to_string(), answer.trace.runs);
            assert!(
                answer.trace.runs > 0 && span.counters.contains(&runs),
                "{name}"
            );
        }
        assert!(spans[0].attrs.iter().any(|(k, _)| k == "radius"), "{name}");
    }
    // A negative, NaN or infinite radius is rejected at no cost, under
    // every metric: L2 keys are squared, so −r must never act as r. So is
    // a query point with a NaN or infinite coordinate.
    for metric in metrics() {
        for eng in build_all(&ds, metric, plain_dev) {
            let name = eng.name();
            let q = &queries[0];
            // The 5th-NN distance, inflated past the key round-trip.
            let nearest = eng.run(&mut SimClock::default(), &Query::knn(q, 5));
            let r = nearest.expect("valid query").into_ranked().0[4].1 * (1.0 + 1e-9);
            let range = Query::Range {
                point: q,
                radius: r,
            };
            let within = eng.run(&mut SimClock::default(), &range).expect("valid");
            assert!(within.len() >= 5, "{metric:?} {name}");
            for radius in [-r, f64::NAN, f64::INFINITY] {
                let what = format!("{metric:?} {name}: r {radius}");
                let msg = assert_rejected(eng.as_ref(), &Query::Range { point: q, radius }, &what);
                assert!(msg.contains("radius"), "{what}: {msg}");
            }
            for q in non_finite(q) {
                let what = format!("{metric:?} {name}: q[0] {}", q[0]);
                let range = Query::Range {
                    point: &q,
                    radius: r,
                };
                assert_rejected(eng.as_ref(), &range, &what);
            }
        }
    }
}
