//! Engine-layer conformance: every [`AccessMethod`] — IQ-tree, VA-file,
//! X-tree — must agree *exactly* with the sequential scan on the same
//! clustered workload, for every supported metric and query type, and the
//! shared batch executor must be thread-count-invariant for each of them.
//! A third test drives the baselines through a [`DeviceStack`] injecting
//! transient faults: with the retry layer in the stack, results must still
//! match the scan bit for bit. The last two pin the query boundaries every
//! engine shares: trivial k-NN queries cost nothing, a query of the wrong
//! dimension panics with one message per kind of query on every path,
//! range and window queries run inside the engine's root span, and a
//! negative or NaN radius, or a query point with a NaN or infinite
//! coordinate, matches nothing at no cost under every metric.

use iqtree_repro::data;
use iqtree_repro::engine::{
    knn_batch, knn_batch_traced, AccessMethod, Filter, QueryOptions, QueryTrace,
};
use iqtree_repro::geometry::{Dataset, Mbr, Metric};
use iqtree_repro::obs::TraceNode;
use iqtree_repro::storage::{
    BlockDevice, DeviceStack, FaultConfig, MemDevice, RetryPolicy, SimClock,
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
        let want_knn = canon(scan.knn(&mut clock, q, 10));
        // Range at the 15th-NN distance (inflated so the boundary point
        // survives the key <-> distance round-trip).
        let radius = scan.knn(&mut clock, q, 15).last().expect("15 hits").1 * (1.0 + 1e-9);
        let mut want_range = scan.range(&mut clock, q, radius);
        want_range.sort_unstable();
        // Window: a box of half-width 0.15 around the query point.
        let lo: Vec<f32> = q.iter().map(|c| c - 0.15).collect();
        let hi: Vec<f32> = q.iter().map(|c| c + 0.15).collect();
        let win = Mbr::from_bounds(lo, hi);
        let mut want_win = scan.window(&mut clock, &win);
        want_win.sort_unstable();

        for eng in engines {
            if eng.name() == "scan" {
                continue;
            }
            let got_knn = canon(eng.knn(&mut clock, q, 10));
            assert_eq!(got_knn, want_knn, "{tag} {} knn query {qi}", eng.name());
            let mut got_range = eng.range(&mut clock, q, radius);
            got_range.sort_unstable();
            assert_eq!(
                got_range,
                want_range,
                "{tag} {} range query {qi}",
                eng.name()
            );
            let mut got_win = eng.window(&mut clock, &win);
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
            let results = knn_batch(eng.as_ref(), &mut clock, &queries, 7, threads);
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
        eng.knn(&mut clock, &queries[0], 5);
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

/// Whether `node` or a node below it is named `name`.
fn has_span(node: &TraceNode, name: &str) -> bool {
    node.name == name || node.children.iter().any(|c| has_span(c, name))
}

/// The message of the panic `f` raises, or `None` if it returns.
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|m| m.to_string()))
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
            let (hits, trace) =
                eng.knn_opts_traced(&mut clock, &queries[0], k, filter, &QueryOptions::EXACT);
            assert!(hits.is_empty(), "{name} {what}");
            assert_eq!(trace, QueryTrace::default(), "{name} {what}");
            assert_eq!(clock.total_time(), 0.0, "{name} {what}");
            let tree = clock.take_trace().expect("tracing was on");
            assert!(tree.root.children.is_empty(), "{name} {what}: {tree:?}");
        }
        // A query one coordinate short panics with the boundary's message,
        // alone and inside a batch (the IQ-tree's micro-batch override).
        let short = queries[0][..DIM - 1].to_vec();
        let expect = "query dimensionality mismatch";
        let solo = panic_message(|| {
            eng.knn_opts_traced(
                &mut SimClock::default(),
                &short,
                5,
                None,
                &QueryOptions::EXACT,
            );
        });
        assert!(
            solo.as_deref().is_some_and(|m| m.contains(expect)),
            "{name} solo: {solo:?}"
        );
        let batch = panic_message(|| {
            knn_batch(
                eng.as_ref(),
                &mut SimClock::default(),
                &[short.clone(), short.clone()],
                5,
                1,
            );
        });
        assert!(
            batch.as_deref().is_some_and(|m| m.contains(expect)),
            "{name} batch: {batch:?}"
        );
    }
    // A query point with a NaN or infinite coordinate is no point of the
    // space: it is answered with nothing, at no cost and with no span,
    // alone and inside a batch, under every metric.
    for metric in metrics() {
        for eng in build_all(&ds, metric, plain_dev) {
            let name = eng.name();
            for q in non_finite(&queries[0]) {
                let what = format!("{metric:?} {name} q[0] = {}", q[0]);
                let mut clock = SimClock::default();
                clock.enable_tracing();
                let (hits, trace) =
                    eng.knn_opts_traced(&mut clock, &q, 5, None, &QueryOptions::EXACT);
                assert!(hits.is_empty(), "{what}: {hits:?}");
                assert_eq!(trace, QueryTrace::default(), "{what}");
                let (batch, trace) =
                    knn_batch_traced(eng.as_ref(), &mut clock, &[q.clone(), q.clone()], 5, 1);
                assert!(batch.iter().all(|(h, _)| h.is_empty()), "{what}: {batch:?}");
                assert_eq!(trace, QueryTrace::default(), "{what}");
                assert_eq!(clock.total_time(), 0.0, "{what}");
                assert_eq!(clock.stats().blocks_read, 0, "{what}");
                let tree = clock.take_trace().expect("tracing was on");
                assert!(!has_span(&tree.root, name), "{what}: {tree:?}");
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
        // A query one coordinate short panics with one message per kind
        // of query on every engine.
        let short = queries[0][..DIM - 1].to_vec();
        let range = panic_message(|| {
            eng.range(&mut SimClock::default(), &short, 0.5);
        });
        assert!(
            range
                .as_deref()
                .is_some_and(|m| m.contains("query dimensionality mismatch")),
            "{name} range: {range:?}"
        );
        let short_window = Mbr::from_bounds(vec![0.0; DIM - 1], vec![1.0; DIM - 1]);
        let window = panic_message(|| {
            eng.window(&mut SimClock::default(), &short_window);
        });
        assert!(
            window
                .as_deref()
                .is_some_and(|m| m.contains("window dimensionality mismatch")),
            "{name} window: {window:?}"
        );
        // A valid query runs inside the engine's root span, which carries
        // the radius and the hit count.
        let mut clock = SimClock::default();
        clock.enable_tracing();
        let hits = eng.range(&mut clock, &queries[0], 0.3);
        let all = eng.window(&mut clock, &whole);
        assert_eq!(all.len(), ds.len(), "{name}");
        let tree = clock.take_trace().expect("tracing was on");
        let spans: Vec<_> = tree.root.children.iter().collect();
        assert_eq!(spans.len(), 2, "{name}: {tree:?}");
        for (span, n) in spans.iter().zip([hits.len(), all.len()]) {
            assert_eq!(span.name, name);
            assert!(span.counters.contains(&("hits".to_string(), n as u64)));
        }
        assert!(spans[0].attrs.iter().any(|(k, _)| k == "radius"), "{name}");
    }
    // A negative or NaN radius matches no point and costs nothing, under
    // every metric: L2 keys are squared, so −r must not act as r.
    for metric in metrics() {
        for eng in build_all(&ds, metric, plain_dev) {
            let name = eng.name();
            let q = &queries[0];
            // The 5th-NN distance, inflated past the key round-trip.
            let r = eng.knn(&mut SimClock::default(), q, 5)[4].1 * (1.0 + 1e-9);
            assert!(eng.range(&mut SimClock::default(), q, r).len() >= 5);
            for radius in [-r, f64::NAN] {
                let mut clock = SimClock::default();
                clock.enable_tracing();
                let hits = eng.range(&mut clock, q, radius);
                let tree = clock.take_trace().expect("tracing was on");
                assert!(hits.is_empty(), "{metric:?} {name}: r {radius}: {hits:?}");
                assert_eq!(clock.total_time(), 0.0, "{metric:?} {name}: r {radius}");
                assert_eq!(clock.stats().blocks_read, 0, "{metric:?} {name}");
                assert!(tree.root.children.is_empty(), "{metric:?} {name}: {tree:?}");
            }
            for q in non_finite(q) {
                let mut clock = SimClock::default();
                clock.enable_tracing();
                let hits = eng.range(&mut clock, &q, r);
                let tree = clock.take_trace().expect("tracing was on");
                assert!(
                    hits.is_empty(),
                    "{metric:?} {name}: q[0] {}: {hits:?}",
                    q[0]
                );
                assert_eq!(clock.total_time(), 0.0, "{metric:?} {name}: q[0] {}", q[0]);
                assert_eq!(clock.stats().blocks_read, 0, "{metric:?} {name}");
                assert!(tree.root.children.is_empty(), "{metric:?} {name}: {tree:?}");
            }
        }
    }
}
