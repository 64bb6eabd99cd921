//! SIMD-dispatch conformance: every engine must return bit-identical
//! results and simulated time — and the IQ-tree the same planned page
//! runs — whether the quantized-domain scan kernels run on the detected
//! SIMD tier or pinned to the scalar fallback (the eq 5 plan kernel has
//! one build, so its page runs must not move either), and the
//! multi-query batch
//! path must agree with the single-query path query by query. CI runs
//! this suite twice — once as-is and once with `IQ_FORCE_SCALAR=1` in the
//! environment — so both the runtime override and the env escape hatch
//! are on record.

mod common;

use common::{knn, knn_threaded_hits};
use iqtree_repro::data;
use iqtree_repro::engine::{Query, QueryOptions};
use iqtree_repro::geometry::{Dataset, Metric};
use iqtree_repro::quantize::{kernel_name, set_kernel_override, Kernel};
use iqtree_repro::storage::{BlockDevice, MemDevice, SimClock};
use iqtree_repro::{build_engine, EngineKind};

const N: usize = 4_000;
const DIM: usize = 7;
const K: usize = 9;

fn clustered() -> (Dataset, Vec<Vec<f32>>) {
    let w = iqtree_repro::data::Workload::generate(N, 12, |n| data::color_like(DIM, n, 29));
    let queries: Vec<Vec<f32>> = w.queries.iter().map(<[f32]>::to_vec).collect();
    (w.db, queries)
}

fn plain_dev() -> Box<dyn BlockDevice> {
    Box::new(MemDevice::new(4096))
}

/// Canonical order for k-NN results: engines may break exact-distance
/// ties differently, the distances themselves must match bitwise.
fn canon(mut hits: Vec<(u32, f64)>) -> Vec<(u64, u32)> {
    hits.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .expect("no NaN distances")
            .then(a.0.cmp(&b.0))
    });
    hits.into_iter().map(|(id, d)| (d.to_bits(), id)).collect()
}

/// Runs every query type on every engine and returns one big canonical
/// transcript, so two dispatch tiers can be compared wholesale. Besides
/// the answers it records each engine's total simulated time and, for
/// the IQ-tree, the page runs its Section 2.1 plan issued and the pages
/// it processed per query: a kernel that diverged between tiers would
/// move those while keeping the answers.
fn transcript(ds: &Dataset, queries: &[Vec<f32>]) -> Vec<Vec<(u64, u32)>> {
    let mut out = Vec::new();
    for kind in EngineKind::ALL {
        let mut clock = SimClock::default();
        let engine = build_engine(kind, ds, Metric::Euclidean, &mut plain_dev, &mut clock);
        for q in queries {
            out.push(canon(knn(engine.as_ref(), &mut clock, q, K).0));
            let radius = knn(engine.as_ref(), &mut clock, q, 14)
                .0
                .last()
                .expect("14 hits")
                .1;
            let mut ids: Vec<u32> = engine
                .run(
                    &mut clock,
                    &Query::Range {
                        point: q,
                        radius: radius * (1.0 + 1e-9),
                    },
                )
                .expect("valid query")
                .ids();
            ids.sort_unstable();
            out.push(ids.into_iter().map(|id| (0, id)).collect());
            if kind == EngineKind::IqTree {
                let opts = QueryOptions::default();
                let (_, trace) = engine
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
                out.push(vec![(trace.runs, 0), (trace.pages_processed, 1)]);
            }
        }
        out.push(vec![(clock.total_time().to_bits(), 0)]);
    }
    out
}

/// The scalar fallback and the detected SIMD tier must be observationally
/// equivalent: identical distances (bitwise) and identical result sets on
/// every engine, every query type. Override twiddling is process-global,
/// so both tiers run inside this one test.
#[test]
fn scalar_and_simd_dispatch_agree_bit_for_bit() {
    let (ds, queries) = clustered();

    let detected = set_kernel_override(None);
    let fast = transcript(&ds, &queries);

    set_kernel_override(Some(Kernel::Scalar));
    assert_eq!(kernel_name(), "scalar");
    let slow = transcript(&ds, &queries);
    set_kernel_override(None);

    assert_eq!(fast.len(), slow.len());
    for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
        assert_eq!(
            f, s,
            "transcript row {i} differs between {detected:?} and scalar"
        );
    }
}

/// The multi-query micro-batch path must agree with the single-query
/// path on every engine: same distances bitwise, same ids up to tie
/// order, whatever dispatch tier the environment selected (CI repeats
/// this under `IQ_FORCE_SCALAR=1`).
#[test]
fn batched_queries_agree_with_single_query_path() {
    let (ds, queries) = clustered();
    for kind in EngineKind::ALL {
        let mut clock = SimClock::default();
        let engine = build_engine(kind, &ds, Metric::Euclidean, &mut plain_dev, &mut clock);
        let batched = knn_threaded_hits(engine.as_ref(), &mut clock, &queries, K, 2);
        assert_eq!(batched.len(), queries.len());
        for (q, got) in queries.iter().zip(batched) {
            let want = canon(knn(engine.as_ref(), &mut clock, q, K).0);
            assert_eq!(
                canon(got),
                want,
                "engine {} diverges on batch",
                engine.name()
            );
        }
    }
}

/// When `IQ_FORCE_SCALAR` is set in the environment, runtime detection
/// must land on the scalar kernel (the CI scalar leg relies on this; in
/// a normal run the test only checks the gauge name is well-formed).
#[test]
fn env_var_forces_scalar_detection() {
    let forced = std::env::var("IQ_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
    set_kernel_override(None);
    if forced {
        assert_eq!(kernel_name(), "scalar");
    } else {
        assert!(["avx2", "scalar"].contains(&kernel_name()));
    }
}
