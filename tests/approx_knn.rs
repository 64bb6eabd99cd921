//! Approximate k-NN knobs, exercised through the shared executor layer.
//!
//! The load-bearing property is the *exact-mode reduction*: with
//! [`QueryOptions::default`] — and with every knob set to its explicitly
//! neutral value — all four engines must return bit-identical distances to
//! a brute-force oracle, i.e. the executor refactor changed nothing when
//! the knobs are off. On top of that, each knob's contract is checked:
//! ε-termination keeps every returned distance within `(1+ε)×` of the true
//! one, `nprobes`/`refine_factor` truncations are visible in the trace,
//! a tiny time budget flags early termination, and pagination under
//! approximate options still tiles without overlap or gaps.

use iqtree_repro::data;
use iqtree_repro::engine::{AccessMethod, PageSpec, Query, QueryOptions};
use iqtree_repro::geometry::{Dataset, Metric};
use iqtree_repro::storage::{BlockDevice, MemDevice, SimClock};
use iqtree_repro::{build_engine, EngineKind};

const N: usize = 3_000;
const DIM: usize = 8;
const K: usize = 10;

fn workload() -> (Dataset, Vec<Vec<f32>>) {
    let w = iqtree_repro::data::Workload::generate(N, 5, |n| data::cad_like(DIM, n, 4242));
    let queries: Vec<Vec<f32>> = w.queries.iter().map(<[f32]>::to_vec).collect();
    (w.db, queries)
}

fn plain_dev() -> Box<dyn BlockDevice> {
    Box::new(MemDevice::new(4096))
}

fn build_all(ds: &Dataset, metric: Metric) -> Vec<Box<dyn AccessMethod>> {
    EngineKind::ALL
        .iter()
        .map(|&kind| {
            let mut clock = SimClock::default();
            build_engine(kind, ds, metric, plain_dev, &mut clock)
        })
        .collect()
}

/// Brute-force oracle in canonical order (distance, then id), as bits.
fn oracle(ds: &Dataset, metric: Metric, q: &[f32], k: usize) -> Vec<(u32, u64)> {
    let mut all: Vec<(u32, f64)> = (0..ds.len())
        .map(|i| (i as u32, metric.distance(ds.point(i), q)))
        .collect();
    all.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .expect("no NaN distances")
            .then(a.0.cmp(&b.0))
    });
    all.truncate(k);
    all.into_iter().map(|(id, d)| (id, d.to_bits())).collect()
}

fn canon(mut hits: Vec<(u32, f64)>) -> Vec<(u32, u64)> {
    hits.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .expect("no NaN distances")
            .then(a.0.cmp(&b.0))
    });
    hits.into_iter().map(|(id, d)| (id, d.to_bits())).collect()
}

/// Every knob at its explicitly-neutral value (distinct bit patterns from
/// the `None`/`1` defaults, same meaning).
fn neutral_opts() -> QueryOptions {
    QueryOptions {
        epsilon: 0.0,
        nprobes: Some(u64::MAX),
        refine_factor: 1,
        time_budget: Some(f64::INFINITY),
    }
}

/// The exact-mode reduction: default options and explicitly-neutral
/// options both reproduce the brute-force oracle bit for bit, on every
/// engine and every metric, and report no early termination.
#[test]
fn default_and_neutral_options_reduce_to_exact() {
    let (ds, queries) = workload();
    for metric in [Metric::Euclidean, Metric::Maximum, Metric::Manhattan] {
        let engines = build_all(&ds, metric);
        for eng in &engines {
            let mut clock = SimClock::default();
            for (qi, q) in queries.iter().enumerate() {
                let want = oracle(&ds, metric, q, K);
                for (tag, opts) in [
                    ("default", QueryOptions::default()),
                    ("neutral", neutral_opts()),
                ] {
                    let (hits, trace) = eng
                        .run(
                            &mut clock,
                            &Query::Knn {
                                point: q,
                                k: K,
                                filter: None,
                                opts,
                            },
                        )
                        .expect("valid query")
                        .into_ranked();
                    assert_eq!(
                        canon(hits),
                        want,
                        "{} {metric:?} query {qi} under {tag} options",
                        eng.name()
                    );
                    assert_eq!(
                        trace.terminated_early,
                        0,
                        "{} {metric:?} query {qi}: exact search must not flag early termination",
                        eng.name()
                    );
                    assert_eq!(trace.candidates_skipped, 0, "{} query {qi}", eng.name());
                }
            }
        }
    }
}

/// ε-termination contract: every returned distance is within `(1 + ε)` of
/// the true distance at the same rank, on every engine.
#[test]
fn epsilon_bounds_relative_error_at_every_rank() {
    let (ds, queries) = workload();
    let metric = Metric::Euclidean;
    let engines = build_all(&ds, metric);
    for eps in [0.1, 0.5, 2.0] {
        let opts = QueryOptions {
            epsilon: eps,
            ..QueryOptions::default()
        };
        for eng in &engines {
            let mut clock = SimClock::default();
            for (qi, q) in queries.iter().enumerate() {
                let true_knn = oracle(&ds, metric, q, K);
                let (hits, _) = eng
                    .run(
                        &mut clock,
                        &Query::Knn {
                            point: q,
                            k: K,
                            filter: None,
                            opts,
                        },
                    )
                    .expect("valid query")
                    .into_ranked();
                let got = canon(hits);
                assert_eq!(got.len(), K, "{} query {qi}", eng.name());
                for (rank, ((_, gd), (_, td))) in got.iter().zip(&true_knn).enumerate() {
                    let (gd, td) = (f64::from_bits(*gd), f64::from_bits(*td));
                    assert!(
                        gd <= td * (1.0 + eps) * (1.0 + 1e-9),
                        "{} eps={eps} query {qi} rank {rank}: got {gd} vs true {td}",
                        eng.name()
                    );
                }
            }
        }
    }
}

/// `nprobes` truncation is visible in the trace and still returns `k`
/// results on the index engines (the candidates it does probe hold more
/// than `k` points).
#[test]
fn nprobes_cap_skips_candidates_and_flags_early_termination() {
    let (ds, queries) = workload();
    let metric = Metric::Euclidean;
    let opts = QueryOptions {
        nprobes: Some(1),
        ..QueryOptions::default()
    };
    for kind in [EngineKind::IqTree, EngineKind::XTree, EngineKind::VaFile] {
        let mut clock = SimClock::default();
        let eng = build_engine(kind, &ds, metric, plain_dev, &mut clock);
        let mut skipped_somewhere = false;
        for q in &queries {
            let (_, trace) = eng
                .run(
                    &mut clock,
                    &Query::Knn {
                        point: q,
                        k: K,
                        filter: None,
                        opts,
                    },
                )
                .expect("valid query")
                .into_ranked();
            if trace.candidates_skipped > 0 {
                skipped_somewhere = true;
                assert_eq!(trace.terminated_early, 1, "{}", eng.name());
            }
        }
        assert!(
            skipped_somewhere,
            "{}: one probe cannot cover the whole workload",
            eng.name()
        );
    }
}

/// `refine_factor` caps exact look-ups at `k × refine_factor` on the
/// refinement-based engines.
#[test]
fn refine_factor_caps_exact_lookups() {
    let (ds, queries) = workload();
    let metric = Metric::Euclidean;
    let rf = 2u32;
    let opts = QueryOptions {
        refine_factor: rf,
        ..QueryOptions::default()
    };
    for kind in [EngineKind::IqTree, EngineKind::VaFile] {
        let mut clock = SimClock::default();
        let eng = build_engine(kind, &ds, metric, plain_dev, &mut clock);
        for (qi, q) in queries.iter().enumerate() {
            let (hits, trace) = eng
                .run(
                    &mut clock,
                    &Query::Knn {
                        point: q,
                        k: K,
                        filter: None,
                        opts,
                    },
                )
                .expect("valid query")
                .into_ranked();
            assert!(
                trace.refinements <= (K as u64) * u64::from(rf),
                "{} query {qi}: {} refinements",
                eng.name(),
                trace.refinements
            );
            assert_eq!(hits.len(), K, "{} query {qi}", eng.name());
        }
    }
}

/// A vanishing time budget stops every engine almost immediately and is
/// reported as early termination; a generous one changes nothing.
#[test]
fn time_budget_flags_early_termination() {
    let (ds, queries) = workload();
    let metric = Metric::Euclidean;
    let engines = build_all(&ds, metric);
    let tiny = QueryOptions {
        time_budget: Some(1e-9),
        ..QueryOptions::default()
    };
    let generous = QueryOptions {
        time_budget: Some(1e9),
        ..QueryOptions::default()
    };
    let q = &queries[0];
    for eng in &engines {
        let mut clock = SimClock::default();
        let (_, trace) = eng
            .run(
                &mut clock,
                &Query::Knn {
                    point: q,
                    k: K,
                    filter: None,
                    opts: tiny,
                },
            )
            .expect("valid query")
            .into_ranked();
        assert_eq!(
            trace.terminated_early,
            1,
            "{}: a 1ns budget must terminate early",
            eng.name()
        );
        let mut clock = SimClock::default();
        let (hits, trace) = eng
            .run(
                &mut clock,
                &Query::Knn {
                    point: q,
                    k: K,
                    filter: None,
                    opts: generous,
                },
            )
            .expect("valid query")
            .into_ranked();
        assert_eq!(trace.terminated_early, 0, "{}", eng.name());
        assert_eq!(canon(hits), oracle(&ds, metric, q, K), "{}", eng.name());
    }
}

/// Disjoint offset windows under *approximate* options still tile the
/// computed list without overlap or gaps: the approximate result is
/// deterministic for a fixed `(q, k, opts)`.
#[test]
fn pagination_tiles_under_approximate_options() {
    let (ds, queries) = workload();
    let metric = Metric::Euclidean;
    let mut clock = SimClock::default();
    let eng = build_engine(EngineKind::IqTree, &ds, metric, plain_dev, &mut clock);
    let opts = QueryOptions {
        epsilon: 0.5,
        nprobes: Some(4),
        ..QueryOptions::default()
    };
    let k = 20usize;
    for q in queries.iter().take(3) {
        let query = Query::Knn {
            point: q,
            k,
            filter: None,
            opts,
        };
        let mut page_of = |page: PageSpec| {
            let answer = eng.run(&mut clock, &query).expect("valid query");
            page.slice(answer.into_ranked().0)
        };
        let full = page_of(PageSpec::top(k));
        let mut tiled = Vec::new();
        let step = 5usize;
        for offset in (0..k).step_by(step) {
            let page = PageSpec {
                k,
                offset,
                limit: Some(step),
            };
            tiled.extend(page_of(page));
        }
        assert_eq!(tiled, full, "offset windows must tile the full list");
    }
}
