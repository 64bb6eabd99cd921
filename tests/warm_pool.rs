//! Section 2.1 prices a read by what the device charges for it. A buffer
//! pool that holds a block serves it for free, so a run around a resident
//! pivot saves no seek: a lone query reads such a pivot alone and plans
//! nothing. Over a pool that holds every block, a scheduled tree must
//! therefore answer exactly like the same files opened with
//! `scheduled_io: false` — same answers, same `QueryTrace`, same simulated
//! time — and build no eq 5 distribution, for exact and approximate
//! queries alike. The residency check must pass through the observation
//! layers the global metrics registry inserts above the pool. A pool that
//! holds nothing yet plans the runs a tree without a pool plans.

mod common;

use common::knn;

use iqtree_repro::data::{self, Workload};
use iqtree_repro::engine::{AccessMethod, Query, QueryOptions, QueryTrace};
use iqtree_repro::geometry::{Dataset, Metric};
use iqtree_repro::storage::{BlockDevice, FileDevice, IoStats, SimClock};
use iqtree_repro::tree::{IqTree, IqTreeOptions};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

const FILES: [&str; 3] = ["dir.bin", "quant.bin", "exact.bin"];
const BLOCK: usize = 2048;
const DIM: usize = 16;
const K: usize = 10;
/// More frames than any level file of the test index has blocks.
const FRAMES: usize = 4_096;

const APPROX: QueryOptions = QueryOptions {
    nprobes: Some(4),
    refine_factor: 2,
    ..QueryOptions::EXACT
};

/// The global metrics registry is process-wide, and a tree opened while
/// it is on gains observation layers. A test that turns it on and every
/// test that opens trees hold this lock, so no tree is opened halfway.
static REGISTRY: Mutex<()> = Mutex::new(());

fn registry_lock() -> MutexGuard<'static, ()> {
    REGISTRY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iqtree-warm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn workload() -> Workload {
    Workload::generate(12_000, 6, |n| data::cad_like(DIM, n, 41))
}

/// Builds an index over `ds` into three files under `dir` and drops it.
fn build_files(dir: &Path, ds: &Dataset) {
    let mut clock = SimClock::default();
    let mut names = FILES.iter();
    let tree = IqTree::build(
        ds,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || {
            let path = dir.join(names.next().expect("three files"));
            Box::new(FileDevice::create(&path, BLOCK).expect("create index file"))
                as Box<dyn BlockDevice>
        },
        &mut clock,
    );
    drop(tree);
}

fn open(dir: &Path, opts: IqTreeOptions) -> IqTree {
    let dev = |f: &str| {
        Box::new(FileDevice::open(&dir.join(f), BLOCK).expect("open index file"))
            as Box<dyn BlockDevice>
    };
    let mut clock = SimClock::default();
    IqTree::open(
        DIM,
        Metric::Euclidean,
        opts,
        dev(FILES[0]),
        dev(FILES[1]),
        dev(FILES[2]),
        &mut clock,
    )
    .expect("index opens")
}

/// Opens the files behind a pool and fills it: every level-2 and exact
/// block through a full export, the directory through one query.
fn open_warm(dir: &Path, scheduled_io: bool, q: &[f32]) -> IqTree {
    let tree = open(
        dir,
        IqTreeOptions {
            scheduled_io,
            cache_blocks: Some(FRAMES),
            ..IqTreeOptions::default()
        },
    );
    let mut clock = SimClock::default();
    tree.export_points(&mut clock)
        .expect("export fills the pool");
    knn(&tree, &mut clock, q, K);
    tree
}

/// One traced lone query: its answers, trace, simulated seconds, clock
/// statistics and the eq 5 distributions its plan built.
#[derive(Debug, PartialEq)]
struct Run {
    hits: Vec<(u32, f64)>,
    trace: QueryTrace,
    sim_s: f64,
    io: IoStats,
    plan_builds: u64,
}

fn run(tree: &IqTree, q: &[f32], opts: &QueryOptions) -> Run {
    let mut clock = SimClock::default();
    clock.enable_tracing();
    let (hits, trace) = tree
        .run(
            &mut clock,
            &Query::Knn {
                point: q,
                k: K,
                filter: None,
                opts: *opts,
            },
        )
        .expect("valid query")
        .into_ranked();
    let (sim_s, io) = (clock.total_time(), clock.stats());
    let spans = clock.take_trace().expect("tracing was on");
    Run {
        hits,
        trace,
        sim_s,
        io,
        plan_builds: spans.root.counter_total("plan.builds"),
    }
}

#[test]
fn a_resident_pivot_plans_no_run() {
    let _registry = registry_lock();
    let dir = temp_dir("resident");
    let w = workload();
    build_files(&dir, &w.db);
    let warm_up = w.queries.point(0);
    let scheduled = open_warm(&dir, true, warm_up);
    let flat = open_warm(&dir, false, warm_up);
    // The same files with no pool plan runs: the check below is not void.
    let cold = open(&dir, IqTreeOptions::default());
    let mut planned = 0;
    for q in w.queries.iter() {
        for opts in [QueryOptions::EXACT, APPROX] {
            let got = run(&scheduled, q, &opts);
            assert_eq!(got.plan_builds, 0, "{opts:?}: a resident pivot was planned");
            assert_eq!(got.io.seeks, 0, "{opts:?}: the warm pool missed");
            assert_eq!(got, run(&flat, q, &opts), "{opts:?}");
            planned += run(&cold, q, &opts).plan_builds;
        }
    }
    assert!(planned > 0, "no query planned a run without a pool");

    // With the global registry on, every level gains observation layers,
    // one of them above the pool; they must forward the residency check.
    let registry = iqtree_repro::obs::global();
    registry.set_enabled(true);
    let observed = open_warm(&dir, true, warm_up);
    let runs: Vec<_> = w
        .queries
        .iter()
        .flat_map(|q| {
            [
                run(&observed, q, &QueryOptions::EXACT),
                run(&observed, q, &APPROX),
            ]
        })
        .collect();
    registry.set_enabled(false);
    let plain: Vec<_> = w
        .queries
        .iter()
        .flat_map(|q| {
            [
                run(&scheduled, q, &QueryOptions::EXACT),
                run(&scheduled, q, &APPROX),
            ]
        })
        .collect();
    assert_eq!(
        runs, plain,
        "observation layers changed the pages a query took"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Residency is asked per block, not of the whole pool: before anything
/// is resident, a lone query over a pool plans exactly the runs it plans
/// without one, and a pool warmed by one query still answers every exact
/// query as the pool-less tree does.
#[test]
fn a_cold_pool_plans_as_no_pool() {
    let _registry = registry_lock();
    let dir = temp_dir("cold");
    let w = workload();
    build_files(&dir, &w.db);
    let plain = open(&dir, IqTreeOptions::default());
    for q in w.queries.iter() {
        let pooled = open(
            &dir,
            IqTreeOptions {
                cache_blocks: Some(FRAMES),
                ..IqTreeOptions::default()
            },
        );
        let (first, base) = (
            run(&pooled, q, &QueryOptions::EXACT),
            run(&plain, q, &QueryOptions::EXACT),
        );
        assert_eq!(first.hits, base.hits);
        assert_eq!(first.trace, base.trace);
        assert_eq!(first.plan_builds, base.plan_builds);
        for other in w.queries.iter() {
            assert_eq!(
                run(&pooled, other, &QueryOptions::EXACT).hits,
                run(&plain, other, &QueryOptions::EXACT).hits
            );
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
