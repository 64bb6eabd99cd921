//! Engine layer: one query interface over every access method.
//!
//! The paper's evaluation (Sections 4–5) is comparative — IQ-tree against
//! VA-file, X-tree and sequential scan — so the repo runs all four behind a
//! single [`AccessMethod`] trait: `&self` queries (any number of threads
//! may share one index), per-query [`SimClock`] accounting, and a unified
//! [`QueryTrace`] so figure runners, the CLI and the conformance tests
//! iterate `&dyn AccessMethod` instead of special-casing each backend.
//!
//! A query is one borrowed [`Query`] — k-NN, range or window — and every
//! engine answers it through one method, [`AccessMethod::run`], with an
//! [`IqResult`]`<`[`Answer`]`>`: the hits and the trace of what the search
//! did, or [`IqError::InvalidQuery`](iq_storage::IqError::InvalidQuery)
//! for a query the index cannot answer. The engines have no other query
//! methods.
//!
//! The crate also hosts the pieces every method used to duplicate:
//!
//! * [`answer`] — the one boundary every query passes: validation, the
//!   trivial-query early return and the engine's root trace span,
//! * [`TopK`] — the bounded best-list for k-NN searches (NaN-rejecting),
//! * [`executor`] — the shared bound-driven query loop ([`Executor`],
//!   [`drive`], [`refine_ascending`]) and the [`QueryOptions`]
//!   approximation knobs (ε, `nprobes`, `refine_factor`, time budget),
//!   implemented once for all engines,
//! * [`run_threaded`] — the deterministic multi-threaded batch executor
//!   (answers and accumulated clock statistics are identical for every
//!   thread count, including 1).

#![forbid(unsafe_code)]

pub mod executor;
mod filter;
mod query;
mod topk;
mod trace;

pub use executor::{drive, refine_ascending, CandidateHeap, Executor, OrdKey, QueryOptions};
pub use filter::{Filter, PageSpec};
pub use query::{Answer, Hits, Query, Region};
pub use topk::TopK;
pub use trace::QueryTrace;

use iq_geometry::Metric;
use iq_obs::CostPrediction;
use iq_storage::{IqResult, SimClock};

/// A disk-resident multidimensional index answering similarity queries.
///
/// All queries take `&self` plus a caller-owned [`SimClock`]: the clock
/// models one disk arm and is inherently per-query state, while the index
/// itself is immutable during reads. Implementations must be `Send + Sync`
/// so a single index can serve concurrent queries (see [`run_threaded`]).
pub trait AccessMethod: Send + Sync {
    /// Short stable identifier (`"iqtree"`, `"vafile"`, `"xtree"`,
    /// `"scan"`) used by the CLI, bench tables and JSON output.
    fn name(&self) -> &'static str;

    /// Dimensionality of the indexed points.
    fn dim(&self) -> usize;

    /// Number of indexed points.
    fn len(&self) -> usize;

    /// Whether the index holds no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The distance metric queries are answered under.
    fn metric(&self) -> Metric;

    /// Answers one query: its hits and the [`QueryTrace`] of what the
    /// search did, or [`IqError::InvalidQuery`](iq_storage::IqError) when
    /// [`Query::validate`] rejects it, with nothing charged to `clock`.
    ///
    /// A k-NN query returns [`Hits::Ranked`]: the `k` nearest neighbors
    /// among the points matching its filter, by increasing distance (ties
    /// broken arbitrarily). `k` counts results after filtering: the method
    /// keeps drawing candidates until `k` post-filter results are exact,
    /// or every matching point has been considered, or an approximation
    /// knob cuts the search short (reported via
    /// `QueryTrace::terminated_early`). A range or window query returns
    /// [`Hits::Ids`] in no particular order.
    ///
    /// Every engine implements this by handing its searches to
    /// [`answer`]; a k-NN search is a candidate *producer* into the shared
    /// bound-driven [`Executor`]. So validation, pruning, ε-termination,
    /// `nprobes` truncation, partial refinement and the time budget behave
    /// identically across methods — and under [`QueryOptions::EXACT`] each
    /// engine is bit-for-bit identical to a sequential scan.
    fn run(&self, clock: &mut SimClock, query: &Query) -> IqResult<Answer>;

    /// Answers a micro-batch of queries sharing this index in one call,
    /// one result per query, in query order; a rejected query gets its own
    /// error and the others are still answered.
    ///
    /// The default runs the queries one by one through [`run_per_query`],
    /// so batch accounting is identical to a serial cold run. An engine
    /// may override this to share reads across the batch, as the IQ-tree
    /// does: a block one query has read then costs the others nothing.
    /// Exact answers are those of [`AccessMethod::run`]; under
    /// approximation knobs a batched query may schedule its pages
    /// differently, so its answer may differ from the lone query's while
    /// keeping each knob's guarantee.
    ///
    /// Callers must keep micro-batches at or below [`MAX_MICRO_BATCH`];
    /// [`run_threaded`] does this automatically.
    fn run_batch(&self, clock: &mut SimClock, queries: &[Query]) -> Vec<IqResult<Answer>> {
        run_per_query(clock, queries, |clock, query| self.run(clock, query))
    }

    /// [`AccessMethod::run`] of one k-NN query, as an `(hits, trace)`
    /// pair. Kept for perfbench until a `[benchmark]` PR moves it to
    /// `run`.
    ///
    /// # Panics
    /// Panics with the error's message when the query is rejected.
    fn knn_opts_traced(
        &self,
        clock: &mut SimClock,
        q: &[f32],
        k: usize,
        filter: Option<&Filter>,
        opts: &QueryOptions,
    ) -> TracedResult {
        let query = Query::Knn {
            point: q,
            k,
            filter,
            opts: *opts,
        };
        self.run(clock, &query)
            .unwrap_or_else(|e| panic!("{e}"))
            .into_ranked()
    }

    /// Cost-model prediction for a `k`-NN query under `opts`, if this
    /// method has one.
    ///
    /// Methods with an analytic cost model (the IQ-tree, eqs 2–23)
    /// override this so observability tooling and planners can compare
    /// predictions against the observed [`QueryTrace`] / clock — and see
    /// how the approximation knobs (`nprobes` page truncation, the
    /// `refine_factor` cap, the time budget) shrink the predicted cost.
    /// The default says "no model".
    fn cost_prediction(&self, k: usize, opts: &QueryOptions) -> Option<CostPrediction> {
        let _ = (k, opts);
        None
    }
}

/// The boundary every query passes before engine code runs: each engine's
/// [`AccessMethod::run`] hands its two searches to this function — `knn`
/// for a k-NN query, `region` for a range or window query — and so does
/// every query of the IQ-tree's micro-batch walk.
///
/// It rejects a query [`Query::validate`] rejects, then answers a trivial
/// query — an empty index, `k == 0` or a filter matching no point — with
/// no hits and an empty trace; neither touches `clock`. Any other query
/// runs its search inside the engine's root trace span, named
/// [`AccessMethod::name`] and annotated with the query's parameters (`k`,
/// every non-neutral knob and the filter's match count; or the radius);
/// the query's last phase ends inside it, and it closes with the trace's
/// non-zero counters and, for a range or window query, the number of hits.
pub fn answer<M: AccessMethod + ?Sized>(
    method: &M,
    clock: &mut SimClock,
    query: &Query,
    knn: impl FnOnce(&mut SimClock, &[f32], usize, Option<&Filter>, &QueryOptions) -> TracedResult,
    region: impl FnOnce(&mut SimClock, &Region) -> (Vec<u32>, QueryTrace),
) -> IqResult<Answer> {
    query.validate(method.dim())?;
    let trivial = matches!(query, Query::Knn { k, filter, .. }
        if *k == 0 || filter.is_some_and(|f| f.matching() == 0));
    if trivial || method.is_empty() {
        return Ok(Answer::empty(query));
    }
    let tracing = clock.tracing();
    if tracing {
        clock.span_begin(method.name());
        annotate(clock, query);
    }
    let ids = |(hits, trace)| Answer {
        hits: Hits::Ids(hits),
        trace,
    };
    let out = match *query {
        Query::Knn {
            point,
            k,
            filter,
            ref opts,
        } => {
            let (hits, trace) = knn(clock, point, k, filter, opts);
            Answer {
                hits: Hits::Ranked(hits),
                trace,
            }
        }
        Query::Range { point, radius } => {
            let metric = method.metric();
            let ball = Region::Ball {
                center: point,
                key: metric.distance_to_key(radius),
                metric,
            };
            ids(region(clock, &ball))
        }
        Query::Window(w) => ids(region(clock, &Region::Window(w))),
    };
    clock.phase_end();
    if tracing {
        for (name, v) in out.trace.fields() {
            clock.span_count(name, v);
        }
        if let Hits::Ids(ids) = &out.hits {
            clock.span_count("hits", ids.len() as u64);
        }
        clock.span_end();
    }
    Ok(out)
}

/// Labels the engine root span of `query` on a tracing clock: `k`, every
/// non-neutral approximation knob and the filter's match count, or the
/// radius.
fn annotate(clock: &mut SimClock, query: &Query) {
    match *query {
        Query::Knn {
            k, filter, opts, ..
        } => {
            clock.span_attr("k", &k);
            if opts.epsilon > 0.0 {
                clock.span_attr("epsilon", &opts.epsilon);
            }
            if let Some(m) = opts.nprobes {
                clock.span_attr("nprobes", &m);
            }
            if opts.refine_factor >= 2 {
                clock.span_attr("refine_factor", &opts.refine_factor);
            }
            if let Some(b) = opts.time_budget {
                clock.span_attr("time_budget", &b);
            }
            if let Some(f) = filter {
                clock.span_attr("filter_matches", &f.matching());
            }
        }
        Query::Range { radius, .. } => clock.span_attr("radius", &radius),
        Query::Window(_) => {}
    }
}

/// How every [`AccessMethod::run_batch`] runs its batch: the queries one
/// by one through `run`, each against a fresh reset clone of `clock`
/// absorbed back in query order, so time budgets, phase times and trace
/// spans stay per query. A rejected query leaves `clock` untouched.
pub fn run_per_query(
    clock: &mut SimClock,
    queries: &[Query],
    mut run: impl FnMut(&mut SimClock, &Query) -> IqResult<Answer>,
) -> Vec<IqResult<Answer>> {
    queries
        .iter()
        .map(|q| {
            let mut c = clock.clone();
            c.reset();
            let out = run(&mut c, q);
            if out.is_ok() {
                clock.absorb(&c);
            }
            out
        })
        .collect()
}

/// Upper bound on the number of queries [`run_threaded`] hands to one
/// [`AccessMethod::run_batch`] call: engines may assume micro-batches
/// never exceed it. It bounds what an engine buffers for one micro-batch
/// (the IQ-tree keeps every block its queries read).
pub const MAX_MICRO_BATCH: usize = 8;

/// Per-micro-batch outcome inside the batch executor: the results of each
/// query in the micro-batch, and the clock that paid for them.
type BatchSlot = Option<(Vec<IqResult<Answer>>, SimClock)>;

/// One k-NN query's `(hits, trace)` pair.
pub type TracedResult = (Vec<(u32, f64)>, QueryTrace);

/// Answers every query in `queries` against `method`, fanning the batch
/// out over `threads` OS threads that share the index; one result per
/// query, in query order.
///
/// The queries are cut, in order, into micro-batches of at most
/// [`MAX_MICRO_BATCH`], each answered by one [`AccessMethod::run_batch`]
/// call on a fresh clone of `clock` (reset to zero). An engine that
/// shares reads inside a micro-batch (the IQ-tree) charges a query only
/// for the blocks it reads itself: one an earlier query of its
/// micro-batch read costs nothing, so per-query costs are not those of a
/// serial cold run. The other engines charge each query exactly as a
/// serial cold run. The micro-batch clocks are then folded back into
/// `clock` in query order via [`SimClock::absorb`]; a micro-batch whose
/// every query was rejected leaves it untouched. Since the cut does not
/// depend on `threads`, answers and accumulated statistics (and thus any
/// per-query `time_budget` deadline) are identical for every thread
/// count, including `1`.
pub fn run_threaded<M: AccessMethod + ?Sized>(
    method: &M,
    clock: &mut SimClock,
    queries: &[Query],
    threads: usize,
) -> Vec<IqResult<Answer>> {
    let mut template = clock.clone();
    template.reset();
    let template = &template;
    // Micro-batches are formed in query order with a fixed size, so the
    // partition — and therefore every engine's amortization opportunity
    // and clock accounting — is independent of `threads`. Threads then
    // pick up whole micro-batches.
    let batches: Vec<&[Query]> = queries.chunks(MAX_MICRO_BATCH).collect();
    let mut slots: Vec<BatchSlot> = Vec::new();
    slots.resize_with(batches.len(), || None);
    let chunk = batches.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let mut workers = Vec::new();
        for (bs, outs) in batches.chunks(chunk).zip(slots.chunks_mut(chunk)) {
            workers.push(s.spawn(move || {
                for (qs, out) in bs.iter().zip(outs.iter_mut()) {
                    let mut c = template.clone();
                    let res = method.run_batch(&mut c, qs);
                    debug_assert_eq!(res.len(), qs.len(), "one result per query");
                    *out = Some((res, c));
                }
            }));
        }
        // A worker that panics re-raises its own message in the caller,
        // not the scope's generic one.
        for w in workers {
            w.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        }
    });
    let mut results = Vec::with_capacity(queries.len());
    for (res, c) in slots.into_iter().flatten() {
        if res.iter().any(Result::is_ok) {
            clock.absorb(&c);
        }
        results.extend(res);
    }
    results
}

/// [`run_threaded`] over k-NN queries that share `k`, `filter` and
/// `opts`, as `(hits, trace)` pairs plus the per-field sum of the traces.
/// Kept for perfbench until a `[benchmark]` PR moves it to `run`.
///
/// # Panics
/// Panics with the error's message when a query is rejected.
pub fn knn_batch_opts_traced<M: AccessMethod + ?Sized>(
    method: &M,
    clock: &mut SimClock,
    queries: &[Vec<f32>],
    k: usize,
    threads: usize,
    filter: Option<&Filter>,
    opts: &QueryOptions,
) -> (Vec<TracedResult>, QueryTrace) {
    let queries: Vec<Query> = queries
        .iter()
        .map(|q| Query::Knn {
            point: q,
            k,
            filter,
            opts: *opts,
        })
        .collect();
    let mut aggregate = QueryTrace::default();
    let results = run_threaded(method, clock, &queries, threads)
        .into_iter()
        .map(|r| {
            let out = r.unwrap_or_else(|e| panic!("{e}")).into_ranked();
            aggregate.merge(&out.1);
            out
        })
        .collect();
    (results, aggregate)
}

// `&dyn AccessMethod` and boxed methods must stay usable across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<dyn AccessMethod>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use iq_geometry::Mbr;
    use iq_storage::IqError;

    /// A toy in-memory method, enough to exercise the executor.
    struct Flat {
        dim: usize,
        pts: Vec<Vec<f32>>,
    }

    impl AccessMethod for Flat {
        fn name(&self) -> &'static str {
            "flat"
        }
        fn dim(&self) -> usize {
            self.dim
        }
        fn len(&self) -> usize {
            self.pts.len()
        }
        fn metric(&self) -> Metric {
            Metric::Euclidean
        }
        fn run(&self, clock: &mut SimClock, query: &Query) -> IqResult<Answer> {
            answer(
                self,
                clock,
                query,
                |clock, q, k, filter, _| {
                    clock.charge_dist_evals(self.dim, self.pts.len() as u64);
                    let mut top = TopK::new(k);
                    for (i, p) in self.pts.iter().enumerate() {
                        if filter.is_none_or(|f| f.matches(i as u32)) {
                            top.insert(Metric::Euclidean.distance_key(p, q), i as u32);
                        }
                    }
                    let trace = QueryTrace {
                        pages_processed: 1,
                        refinements: k as u64,
                        ..QueryTrace::default()
                    };
                    (top.into_results(Metric::Euclidean), trace)
                },
                |_, region| {
                    let ids = (0..self.pts.len() as u32)
                        .filter(|&i| region.holds(&self.pts[i as usize]))
                        .collect();
                    (ids, QueryTrace::default())
                },
            )
        }
    }

    fn flat(n: usize) -> Flat {
        Flat {
            dim: 2,
            pts: (0..n).map(|i| vec![i as f32, (i * 7 % n) as f32]).collect(),
        }
    }

    fn knn(
        m: &Flat,
        clock: &mut SimClock,
        q: &[f32],
        k: usize,
        f: Option<&Filter>,
    ) -> Vec<(u32, f64)> {
        let query = Query::Knn {
            point: q,
            k,
            filter: f,
            opts: QueryOptions::EXACT,
        };
        m.run(clock, &query).expect("valid query").into_ranked().0
    }

    fn batch(n: usize) -> Vec<Vec<f32>> {
        (0..n).map(|i| vec![i as f32, (i * 3) as f32]).collect()
    }

    #[test]
    fn batch_is_thread_count_invariant() {
        let m = flat(400);
        let points = batch(37);
        let queries: Vec<Query> = points.iter().map(|q| Query::knn(q, 5)).collect();
        let mut c1 = SimClock::default();
        let r1 = run_threaded(&m, &mut c1, &queries, 1);
        for threads in [2, 3, 8] {
            let mut c = SimClock::default();
            let r = run_threaded(&m, &mut c, &queries, threads);
            assert_eq!(r, r1, "{threads} threads");
            assert_eq!(c.stats(), c1.stats(), "{threads} threads");
            assert_eq!(c.io_time(), c1.io_time(), "{threads} threads");
        }
    }

    #[test]
    fn traced_batch_returns_per_query_and_aggregated_traces() {
        let m = flat(100);
        let queries: Vec<Vec<f32>> = (0..9).map(|i| vec![i as f32, i as f32]).collect();
        let mut c1 = SimClock::default();
        let (per_query, agg) =
            knn_batch_opts_traced(&m, &mut c1, &queries, 4, 1, None, &QueryOptions::EXACT);
        assert_eq!(per_query.len(), queries.len());
        let mut expect = QueryTrace::default();
        for (res, trace) in &per_query {
            assert_eq!(res.len(), 4);
            assert_eq!(trace.pages_processed, 1);
            assert_eq!(trace.refinements, 4);
            expect.merge(trace);
        }
        assert_eq!(agg, expect, "aggregate is the per-field sum");
        for threads in [2, 5] {
            let mut c = SimClock::default();
            let (pq, a) =
                knn_batch_opts_traced(&m, &mut c, &queries, 4, threads, None, &QueryOptions::EXACT);
            assert_eq!(pq, per_query, "{threads} threads");
            assert_eq!(a, agg, "{threads} threads");
            assert_eq!(c.stats(), c1.stats(), "{threads} threads");
        }
    }

    #[test]
    fn default_run_batch_matches_per_query_calls() {
        let m = flat(150);
        let points = batch(MAX_MICRO_BATCH + 3);
        let queries: Vec<Query> = points.iter().map(|q| Query::knn(q, 6)).collect();
        let mut mc = SimClock::default();
        let multi = m.run_batch(&mut mc, &queries);
        let mut sc = SimClock::default();
        for (q, got) in queries.iter().zip(&multi) {
            let mut c = sc.clone();
            c.reset();
            let want = m.run(&mut c, q);
            sc.absorb(&c);
            assert_eq!(*got, want);
        }
        assert_eq!(mc.stats(), sc.stats());
        assert_eq!(mc.total_time(), sc.total_time());
    }

    #[test]
    fn a_rejected_query_in_a_batch_gets_its_own_error() {
        let m = flat(50);
        let short = [1.0f32];
        let good = [3.0f32, 1.0];
        let queries = [
            Query::knn(&good, 2),
            Query::knn(&short, 2),
            Query::knn(&good, 2),
        ];
        let mut clock = SimClock::default();
        let got = run_threaded(&m, &mut clock, &queries, 2);
        assert!(
            matches!(&got[1], Err(IqError::InvalidQuery { .. })),
            "{got:?}"
        );
        let want = m.run(&mut SimClock::default(), &queries[0]);
        assert_eq!(got[0], want);
        assert_eq!(got[2], want);
        // A batch of rejected queries leaves the clock as it was.
        let mut clock = SimClock::default();
        let got = run_threaded(&m, &mut clock, &queries[1..2], 1);
        assert!(got[0].is_err());
        assert_eq!(clock.total_time(), 0.0);
    }

    #[test]
    fn cost_prediction_defaults_to_none() {
        let m = flat(10);
        assert!(m.cost_prediction(3, &QueryOptions::default()).is_none());
    }

    #[test]
    fn batch_works_through_dyn_trait_object() {
        let m = flat(50);
        let dynm: &dyn AccessMethod = &m;
        let mut clock = SimClock::default();
        let r = run_threaded(dynm, &mut clock, &[Query::knn(&[0.0, 0.0], 3)], 4);
        let (hits, _) = r[0].clone().expect("valid query").into_ranked();
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].0, 0);
    }

    #[test]
    fn empty_batch_returns_empty() {
        let m = flat(10);
        let mut clock = SimClock::default();
        assert!(run_threaded(&m, &mut clock, &[], 4).is_empty());
    }

    #[test]
    fn region_queries_return_ids_and_trace_their_hits() {
        let m = flat(10);
        let mut clock = SimClock::default();
        clock.enable_tracing();
        let range = m
            .run(
                &mut clock,
                &Query::Range {
                    point: &[3.0, 1.0],
                    radius: 0.5,
                },
            )
            .expect("valid query");
        assert_eq!(range.hits, Hits::Ids(vec![3]));
        let all = Mbr::from_bounds(vec![-1.0; 2], vec![20.0; 2]);
        assert_eq!(
            m.run(&mut clock, &Query::Window(&all))
                .expect("valid")
                .len(),
            10
        );
        let tree = clock.take_trace().expect("tracing");
        let hits: Vec<_> = tree
            .root
            .children
            .iter()
            .map(|s| s.counters.clone())
            .collect();
        assert_eq!(
            hits,
            [
                vec![("hits".to_string(), 1)],
                vec![("hits".to_string(), 10)]
            ]
        );
    }

    /// Filter-then-scan oracle over the Flat test method.
    fn oracle(m: &Flat, q: &[f32], k: usize, f: &Filter) -> Vec<(u32, f64)> {
        let mut all: Vec<(u32, f64)> = m
            .pts
            .iter()
            .enumerate()
            .filter(|&(i, _)| f.matches(i as u32))
            .map(|(i, p)| (i as u32, Metric::Euclidean.distance(p, q)))
            .collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN").then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn filtered_knn_matches_filter_then_scan_oracle() {
        let m = flat(200);
        let mut clock = SimClock::default();
        for (label, f) in [
            ("sparse", Filter::from_fn(200, |id| id % 17 == 0)),
            ("half", Filter::from_fn(200, |id| id % 2 == 0)),
            ("dense", Filter::from_fn(200, |id| id % 10 != 0)),
        ] {
            for k in [1usize, 5, 30] {
                let q = vec![13.0f32, 40.0];
                let got = knn(&m, &mut clock, &q, k, Some(&f));
                let want = oracle(&m, &q, k, &f);
                assert_eq!(got.len(), want.len(), "{label} k={k}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.1.to_bits(), w.1.to_bits(), "{label} k={k}");
                }
                assert!(got.iter().all(|&(id, _)| f.matches(id)), "{label} k={k}");
            }
        }
    }

    #[test]
    fn tiny_filter_returns_fewer_than_k() {
        let m = flat(50);
        let mut clock = SimClock::default();
        let f = Filter::from_ids(50, [49u32]);
        let got = knn(&m, &mut clock, &[0.0, 0.0], 5, Some(&f));
        assert_eq!(got.len(), 1, "only one point matches");
        assert_eq!(got[0].0, 49);
    }

    #[test]
    fn empty_filter_returns_empty() {
        let m = flat(50);
        let mut clock = SimClock::default();
        let f = Filter::from_fn(50, |_| false);
        assert!(knn(&m, &mut clock, &[0.0, 0.0], 5, Some(&f)).is_empty());
        assert_eq!(clock.total_time(), 0.0);
    }

    #[test]
    fn pagination_slices_the_same_universe() {
        let m = flat(120);
        let mut clock = SimClock::default();
        let f = Filter::from_fn(120, |id| id % 3 != 0);
        let q = vec![31.0f32, 77.0];
        let full = PageSpec::top(20).slice(knn(&m, &mut clock, &q, 20, Some(&f)));
        assert_eq!(full.len(), 20);
        // Disjoint offset windows tile the full list exactly.
        let mut stitched = Vec::new();
        for offset in (0..20).step_by(7) {
            let page = PageSpec {
                k: 20,
                offset,
                limit: Some(7),
            };
            stitched.extend(page.slice(knn(&m, &mut clock, &q, page.k, Some(&f))));
        }
        assert_eq!(stitched, full);
        // Offset past the end is empty, not an error.
        let past = PageSpec {
            k: 20,
            offset: 25,
            limit: None,
        };
        assert!(past.slice(full).is_empty());
    }
}
