//! Real-dataset scenario suite: the checked-in fixtures under
//! `tests/fixtures/` (a SIFT-style fvecs file and the same points as an
//! attribute-labeled CSV) are ingested through `iq-data` and queried
//! through every engine, with attribute-filtered k-NN and pagination
//! checked bit-for-bit against the filter-then-scan oracle — on clean
//! devices and behind a fault-injecting stack.
//!
//! The filtered contract under test is the Lance-style one: `k` counts
//! results *after* filtering, every returned distance is exact, and
//! `limit`/`offset` slice the canonically ordered (distance, then id)
//! result list so disjoint offsets paginate without overlap or gaps.

mod common;

use common::knn;

use iqtree_repro::data::{self, Predicate, VectorDataset};
use iqtree_repro::engine::{AccessMethod, Filter, PageSpec, Query, QueryOptions};
use iqtree_repro::geometry::{Dataset, Metric};
use iqtree_repro::storage::{
    BlockDevice, DeviceStack, FaultConfig, MemDevice, RetryPolicy, SimClock,
};
use iqtree_repro::{build_engine, EngineKind};
use std::path::Path;

fn fixture(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The ingested fixture: 600 8-d CAD-style points with `label` (id mod 5)
/// and `weight` ((id * 37) mod 100) attribute columns.
fn ingested() -> VectorDataset {
    data::read_auto(&fixture("cad600_8d.csv")).expect("ingest csv fixture")
}

/// Query points for the suite — fixture points re-used as queries keeps
/// the suite free of any RNG while still hitting dense regions.
fn queries(ds: &Dataset) -> Vec<Vec<f32>> {
    [3usize, 127, 304, 451, 598]
        .into_iter()
        .map(|i| ds.point(i).to_vec())
        .collect()
}

/// The predicates of the filtered workload, spanning loose to tight
/// selectivity over both attribute columns.
fn predicates() -> Vec<&'static str> {
    vec!["label in 1,3", "weight range 10..60", "label = 0"]
}

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

fn plain_dev() -> Box<dyn BlockDevice> {
    Box::new(MemDevice::new(4096))
}

/// Canonical form of a k-NN result: ordered by (distance, id), distances
/// compared bitwise.
fn canon(mut hits: Vec<(u32, f64)>) -> Vec<(u32, u64)> {
    hits.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .expect("no NaN distances")
            .then(a.0.cmp(&b.0))
    });
    hits.into_iter().map(|(id, d)| (id, d.to_bits())).collect()
}

#[test]
fn fvecs_and_csv_fixtures_ingest_to_the_same_points() {
    let from_csv = ingested();
    let from_fvecs = data::read_auto(&fixture("cad600_8d.fvecs")).expect("ingest fvecs fixture");
    assert_eq!(from_csv.points.len(), 600);
    assert_eq!(from_csv.points.dim(), 8);
    assert_eq!(from_fvecs.points.len(), from_csv.points.len());
    assert_eq!(from_fvecs.points.dim(), from_csv.points.dim());
    for i in 0..from_csv.points.len() {
        assert_eq!(
            from_fvecs.points.point(i),
            from_csv.points.point(i),
            "point {i} differs between the fvecs and csv fixtures"
        );
    }
    // The fvecs file carries no attributes; the CSV fixture carries the
    // two columns the filtered workloads use.
    assert!(from_fvecs.attrs.names().is_empty());
    assert_eq!(from_csv.attrs.names(), ["label", "weight"]);
    assert_eq!(from_csv.attrs.len(), 600);
    assert_eq!(from_csv.attrs.row(7), vec![2, 59]); // 7 % 5, (7 * 37) % 100
}

/// The tentpole check: on the ingested real-format dataset, all four
/// engines return identical filtered k-NN results — distances bitwise
/// equal to the filter-then-scan oracle — for every metric, predicate
/// and k, and `k` counts post-filter results.
fn assert_filtered_conformance(
    vd: &VectorDataset,
    make_dev: impl FnMut() -> Box<dyn BlockDevice> + Clone,
    tag: &str,
) {
    let qs = queries(&vd.points);
    for metric in [Metric::Euclidean, Metric::Maximum, Metric::Manhattan] {
        let engines = build_all(&vd.points, metric, make_dev.clone());
        let scan = engines
            .iter()
            .find(|e| e.name() == "scan")
            .expect("scan engine present");
        for expr in predicates() {
            let filter = Predicate::parse(expr)
                .expect("predicate parses")
                .compile(&vd.attrs)
                .expect("predicate compiles");
            assert!(filter.matching() > 0, "{tag}: `{expr}` matches nothing");
            for &k in &[1usize, 5, 20] {
                for (qi, q) in qs.iter().enumerate() {
                    let mut clock = SimClock::default();
                    // The scan's filtered k-NN *is* filter-then-scan: one
                    // sweep, predicate applied before distance ranking.
                    let want = canon(
                        scan.run(
                            &mut clock,
                            &Query::Knn {
                                point: q,
                                k,
                                filter: Some(&filter),
                                opts: QueryOptions::EXACT,
                            },
                        )
                        .expect("valid query")
                        .into_ranked()
                        .0,
                    );
                    assert_eq!(
                        want.len(),
                        k.min(filter.matching()),
                        "{tag} {metric:?} `{expr}` k={k}: k counts post-filter results"
                    );
                    // Every result must actually satisfy the predicate.
                    for &(id, _) in &want {
                        assert!(filter.matches(id));
                    }
                    for eng in &engines {
                        if eng.name() == "scan" {
                            continue;
                        }
                        let got = canon(
                            eng.run(
                                &mut clock,
                                &Query::Knn {
                                    point: q,
                                    k,
                                    filter: Some(&filter),
                                    opts: QueryOptions::EXACT,
                                },
                            )
                            .expect("valid query")
                            .into_ranked()
                            .0,
                        );
                        assert_eq!(
                            got,
                            want,
                            "{tag} {} {metric:?} `{expr}` k={k} query {qi}",
                            eng.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn filtered_knn_matches_filter_then_scan_oracle_on_clean_devices() {
    assert_filtered_conformance(&ingested(), plain_dev, "clean");
}

#[test]
fn filtered_knn_matches_filter_then_scan_oracle_under_injected_faults() {
    let vd = ingested();
    // Every engine file — the oracle's included — sits behind a stack
    // injecting transient faults on ~5% of operations, absorbed by the
    // retry layer above it. Deterministic: the schedule is seeded.
    let retry = RetryPolicy {
        max_attempts: 8,
        ..RetryPolicy::default()
    };
    let seed = std::cell::Cell::new(0u64);
    let faulty = move || -> Box<dyn BlockDevice> {
        seed.set(seed.get() + 1);
        // 10% per-op: the fixture is small (few blocks per engine file),
        // so a higher rate than the big conformance suite's 5% keeps the
        // expected number of injected faults comfortably positive.
        DeviceStack::new(Box::new(MemDevice::new(4096)))
            .faults(FaultConfig::transient(seed.get(), 0.1))
            .retry(retry)
            .build()
    };
    // Sanity: the stack actually injects (and absorbs) faults.
    let engines = build_all(&vd.points, Metric::Euclidean, faulty.clone());
    let mut clock = SimClock::default();
    let filter = Filter::from_fn(vd.points.len(), |id| id % 2 == 0);
    for eng in &engines {
        for q in queries(&vd.points) {
            eng.run(
                &mut clock,
                &Query::Knn {
                    point: &q,
                    k: 20,
                    filter: Some(&filter),
                    opts: QueryOptions::EXACT,
                },
            )
            .expect("valid query");
        }
    }
    assert!(clock.stats().io_retries > 0, "faults were never injected");
    assert_filtered_conformance(&vd, faulty, "faulty");
}

/// Pagination: `limit`/`offset` windows slice the same canonically ordered
/// universe on every engine — disjoint offsets tile the full top-k list
/// exactly, with no overlap, gap or reordering, clean and faulty alike.
#[test]
fn pagination_tiles_the_filtered_result_on_every_engine() {
    let vd = ingested();
    let filter = Predicate::parse("weight range 10..60")
        .expect("parses")
        .compile(&vd.attrs)
        .expect("compiles");
    let q = vd.points.point(127).to_vec();
    const K: usize = 24;
    for eng in build_all(&vd.points, Metric::Euclidean, plain_dev) {
        let mut clock = SimClock::default();
        let query = Query::Knn {
            point: &q,
            k: K,
            filter: Some(&filter),
            opts: QueryOptions::EXACT,
        };
        let mut page_of = |page: PageSpec| {
            let answer = eng.run(&mut clock, &query).expect("valid query");
            page.slice(answer.into_ranked().0)
        };
        let full = page_of(PageSpec::top(K));
        assert_eq!(full.len(), K.min(filter.matching()), "{}", eng.name());
        // Strictly canonically ordered: ascending distance, ties by id.
        for w in full.windows(2) {
            assert!(
                w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                "{} result not canonically ordered",
                eng.name()
            );
        }
        let mut tiled = Vec::new();
        for offset in (0..K).step_by(7) {
            let page = page_of(PageSpec {
                k: K,
                offset,
                limit: Some(7),
            });
            assert!(page.len() <= 7);
            tiled.extend(page);
        }
        assert_eq!(tiled, full, "{} pages do not tile the top-{K}", eng.name());
        // An offset past the end yields an empty page, not an error.
        let empty = page_of(PageSpec {
            k: K,
            offset: K + 1,
            limit: None,
        });
        assert!(empty.is_empty(), "{}", eng.name());
    }
}

/// An unfiltered paginated query equals a filtered one whose filter
/// matches everything, and `None` is exactly the plain k-NN.
#[test]
fn trivial_filters_reduce_to_plain_knn() {
    let vd = ingested();
    let q = vd.points.point(3).to_vec();
    let all = Filter::from_fn(vd.points.len(), |_| true);
    for eng in build_all(&vd.points, Metric::Manhattan, plain_dev) {
        let mut clock = SimClock::default();
        let plain = canon(knn(eng.as_ref(), &mut clock, &q, 12).0);
        let via_none = canon(knn(eng.as_ref(), &mut clock, &q, 12).0);
        let via_all = canon(
            eng.run(
                &mut clock,
                &Query::Knn {
                    point: &q,
                    k: 12,
                    filter: Some(&all),
                    opts: QueryOptions::EXACT,
                },
            )
            .expect("valid query")
            .into_ranked()
            .0,
        );
        assert_eq!(via_none, plain, "{}", eng.name());
        assert_eq!(via_all, plain, "{}", eng.name());
        // Empty filter: no results, regardless of k.
        let none = Filter::from_fn(vd.points.len(), |_| false);
        assert!(eng
            .run(
                &mut clock,
                &Query::Knn {
                    point: &q,
                    k: 12,
                    filter: Some(&none),
                    opts: QueryOptions::EXACT
                }
            )
            .expect("valid query")
            .is_empty());
    }
}
