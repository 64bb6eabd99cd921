//! Malformed queries get typed errors on every engine. Random wrong
//! dimensions, NaN and infinite coordinates, bad radii, non-finite windows
//! and out-of-range knobs go to all four engines, alone through `run` and
//! mixed with valid queries in a batch (`run_batch` and the threaded
//! executor). Every malformed query gets `IqError::InvalidQuery`, nothing
//! panics, a rejected query is charged nothing, and each valid query of a
//! batch is answered as it is alone.

use iqtree_repro::engine::{run_threaded, AccessMethod, Answer, Hits, Query, QueryOptions};
use iqtree_repro::engines::{build_engine, EngineKind};
use iqtree_repro::geometry::{Dataset, Mbr, Metric};
use iqtree_repro::storage::{IoStats, IqError, IqResult, MemDevice, SimClock};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::OnceLock;

const DIM: usize = 5;

/// The four engines over one small uniform data set, built once.
fn engines() -> &'static [Box<dyn AccessMethod>] {
    static ENGINES: OnceLock<Vec<Box<dyn AccessMethod>>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(5);
        let flat: Vec<f32> = (0..1_500 * DIM).map(|_| rng.gen()).collect();
        let ds = Dataset::from_flat(DIM, flat);
        EngineKind::ALL
            .iter()
            .map(|&kind| {
                let dev = || Box::new(MemDevice::new(1024)) as _;
                build_engine(kind, &ds, Metric::Euclidean, dev, &mut SimClock::default())
            })
            .collect()
    })
}

/// What a [`Query`] borrows, owned.
#[derive(Debug)]
enum Case {
    Knn(Vec<f32>, usize, QueryOptions),
    Range(Vec<f32>, f64),
    Window(Mbr),
}

impl Case {
    fn query(&self) -> Query<'_> {
        match self {
            Case::Knn(point, k, opts) => Query::Knn {
                point,
                k: *k,
                filter: None,
                opts: *opts,
            },
            Case::Range(point, radius) => Query::Range {
                point,
                radius: *radius,
            },
            Case::Window(w) => Query::Window(w),
        }
    }
}

fn point(rng: &mut StdRng, dim: usize) -> Vec<f32> {
    (0..dim).map(|_| rng.gen()).collect()
}

fn window(rng: &mut StdRng, dim: usize) -> Mbr {
    let lo = point(rng, dim);
    let hi = lo.iter().map(|&x| x + rng.gen_range(0.0f32..0.6)).collect();
    Mbr::from_bounds(lo, hi)
}

/// A well-formed query of a random kind; k-NN queries are exact, so a
/// batched one is answered as it is alone.
fn valid(rng: &mut StdRng) -> Case {
    match rng.gen_range(0..3) {
        0 => Case::Knn(point(rng, DIM), rng.gen_range(0..12), QueryOptions::EXACT),
        1 => Case::Range(point(rng, DIM), rng.gen_range(0.0..0.4)),
        _ => Case::Window(window(rng, DIM)),
    }
}

/// A malformed query of a random kind: each draw breaks one rule.
fn malformed(rng: &mut StdRng) -> Case {
    let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3usize)];
    match rng.gen_range(0..5) {
        // A wrong dimension, for any kind of query.
        0 => {
            let dim = [0, 1, DIM - 1, DIM + 1, 3 * DIM][rng.gen_range(0..5usize)];
            match rng.gen_range(0..3) {
                0 => Case::Knn(point(rng, dim), 3, QueryOptions::EXACT),
                1 => Case::Range(point(rng, dim), 0.2),
                // `Mbr` has at least one dimension.
                _ => Case::Window(window(rng, dim.max(1))),
            }
        }
        // A NaN or infinite coordinate.
        1 => {
            let mut p = point(rng, DIM);
            p[rng.gen_range(0..DIM)] = bad;
            if rng.gen() {
                Case::Knn(p, 3, QueryOptions::EXACT)
            } else {
                Case::Range(p, 0.2)
            }
        }
        // A radius that is negative, NaN or infinite.
        2 => {
            let radius = [
                -rng.gen_range(1e-9f64..2.0),
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ][rng.gen_range(0..4usize)];
            Case::Range(point(rng, DIM), radius)
        }
        // A window with a non-finite bound (`Mbr` admits no NaN bound and
        // no lower bound above its upper one, but the empty box).
        3 => {
            let w = window(rng, DIM);
            let (mut lo, mut hi) = (w.lbs().to_vec(), w.ubs().to_vec());
            let i = rng.gen_range(0..DIM);
            match rng.gen_range(0..3) {
                0 => lo[i] = f32::NEG_INFINITY,
                1 => hi[i] = f32::INFINITY,
                _ => return Case::Window(Mbr::empty(DIM)),
            }
            Case::Window(Mbr::from_bounds(lo, hi))
        }
        // A knob out of range.
        _ => {
            let d = QueryOptions::EXACT;
            let opts = match rng.gen_range(0..4) {
                0 => QueryOptions {
                    epsilon: [-rng.gen_range(1e-6f64..1.0), f64::NAN, f64::INFINITY]
                        [rng.gen_range(0..3usize)],
                    ..d
                },
                1 => QueryOptions {
                    nprobes: Some(0),
                    ..d
                },
                2 => QueryOptions {
                    refine_factor: 0,
                    ..d
                },
                _ => QueryOptions {
                    time_budget: Some([0.0, -1.0, f64::NAN][rng.gen_range(0..3usize)]),
                    ..d
                },
            };
            Case::Knn(point(rng, DIM), rng.gen_range(1..12), opts)
        }
    }
}

/// An answer's hits in one order, whatever order the engine found them in.
fn canon(answer: &Answer) -> Hits {
    match &answer.hits {
        Hits::Ranked(h) => {
            let mut h = h.clone();
            h.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            Hits::Ranked(h)
        }
        Hits::Ids(h) => {
            let mut h = h.clone();
            h.sort_unstable();
            Hits::Ids(h)
        }
    }
}

fn rejected(r: &IqResult<Answer>) -> bool {
    matches!(r, Err(IqError::InvalidQuery { .. }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Alone, every malformed query is rejected with a typed error and
    /// charges nothing.
    fn prop_malformed_queries_are_rejected_alone(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cases: Vec<Case> = (0..12).map(|_| malformed(&mut rng)).collect();
        for eng in engines() {
            for case in &cases {
                let mut clock = SimClock::default();
                let got = eng.run(&mut clock, &case.query());
                prop_assert!(rejected(&got), "{} {case:?}: {got:?}", eng.name());
                prop_assert_eq!(clock.stats(), IoStats::default());
                prop_assert_eq!(clock.total_time(), 0.0);
            }
        }
    }

    /// In a batch that mixes malformed and valid queries, each malformed
    /// one gets its own typed error and each valid one the hits it gets
    /// alone, through `run_batch` (one micro-batch) and the threaded
    /// executor (several).
    fn prop_a_mixed_batch_answers_its_valid_queries(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cases: Vec<(bool, Case)> = (0..20)
            .map(|_| {
                let bad = rng.gen_bool(0.4);
                (bad, if bad { malformed(&mut rng) } else { valid(&mut rng) })
            })
            .collect();
        let queries: Vec<Query> = cases.iter().map(|(_, c)| c.query()).collect();
        for eng in engines() {
            let name = eng.name();
            let alone: Vec<IqResult<Answer>> = queries
                .iter()
                .map(|q| eng.run(&mut SimClock::default(), q))
                .collect();
            let micro = eng.run_batch(&mut SimClock::default(), &queries[..8]);
            let threaded = run_threaded(eng.as_ref(), &mut SimClock::default(), &queries, 2);
            prop_assert_eq!(micro.len(), 8);
            prop_assert_eq!(threaded.len(), queries.len());
            for ((bad, case), want) in cases.iter().zip(&alone) {
                prop_assert_eq!(*bad, rejected(want), "{name} {case:?}: {want:?}");
            }
            for (got, want) in micro.iter().zip(&alone).chain(threaded.iter().zip(&alone)) {
                match (got, want) {
                    (Ok(g), Ok(w)) => prop_assert_eq!(canon(g), canon(w), "{name}"),
                    _ => prop_assert!(rejected(got) && rejected(want), "{name}: {got:?}"),
                }
            }
        }
    }
}
