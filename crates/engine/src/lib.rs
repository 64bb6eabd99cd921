//! Engine layer: one query interface over every access method.
//!
//! The paper's evaluation (Sections 4–5) is comparative — IQ-tree against
//! VA-file, X-tree and sequential scan — so the repo runs all four behind a
//! single [`AccessMethod`] trait: `&self` queries (any number of threads
//! may share one index), per-query [`SimClock`] accounting, and a unified
//! [`QueryTrace`] so figure runners, the CLI and the conformance tests
//! iterate `&dyn AccessMethod` instead of special-casing each backend. The
//! trait is the engines' only query surface: they have no inherent k-NN
//! methods.
//!
//! The crate also hosts the pieces every method used to duplicate:
//!
//! * [`knn_query`], [`range_query`] and [`window_query`] — the one
//!   boundary each kind of query passes: the dimension check, the
//!   trivial-query early return and the engine's root trace span,
//! * [`TopK`] — the bounded best-list for k-NN searches (NaN-rejecting),
//! * [`executor`] — the shared bound-driven query loop ([`Executor`],
//!   [`drive`], [`refine_ascending`]) and the [`QueryOptions`]
//!   approximation knobs (ε, `nprobes`, `refine_factor`, time budget),
//!   implemented once for all engines,
//! * [`knn_batch`] — the deterministic multi-threaded batch executor
//!   (results and accumulated clock statistics are identical for every
//!   thread count, including 1).

#![forbid(unsafe_code)]

pub mod executor;
mod filter;
mod topk;
mod trace;

pub use executor::{drive, refine_ascending, CandidateHeap, Executor, OrdKey, QueryOptions};
pub use filter::{knn_paginated, knn_paginated_opts, Filter, PageSpec};
pub use topk::TopK;
pub use trace::QueryTrace;

use iq_geometry::{Mbr, Metric};
use iq_obs::CostPrediction;
use iq_storage::SimClock;

/// A disk-resident multidimensional index answering exact similarity
/// queries.
///
/// All queries take `&self` plus a caller-owned [`SimClock`]: the clock
/// models one disk arm and is inherently per-query state, while the index
/// itself is immutable during reads. Implementations must be `Send + Sync`
/// so a single index can serve concurrent queries (see [`knn_batch`]).
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

    /// Exact nearest neighbor of `q`, as `(id, distance)`.
    fn nearest(&self, clock: &mut SimClock, q: &[f32]) -> Option<(u32, f64)> {
        self.knn(clock, q, 1).pop()
    }

    /// The `k` exact nearest neighbors of `q`, ordered by increasing
    /// distance (ties broken arbitrarily).
    fn knn(&self, clock: &mut SimClock, q: &[f32], k: usize) -> Vec<(u32, f64)> {
        self.knn_traced(clock, q, k).0
    }

    /// The full k-NN entry point every other query method funnels into:
    /// the `k` nearest neighbors of `q` *among the points matching
    /// `filter`* (`None` = unfiltered), searched under the approximation
    /// knobs in `opts` ([`QueryOptions::default`] = exact), with the
    /// [`QueryTrace`] of what the search did.
    ///
    /// `k` counts results after filtering: the method keeps drawing
    /// candidates until `k` post-filter results are exact, or every
    /// matching point has been considered, or an approximation knob cuts
    /// the search short (reported via `QueryTrace::terminated_early`).
    ///
    /// Every engine implements this by handing its search to
    /// [`knn_query`]; the search is a candidate *producer* into the
    /// shared bound-driven [`Executor`]. So the input check, pruning,
    /// ε-termination, `nprobes` truncation, partial refinement and the
    /// time budget behave identically across methods — and with default
    /// options each engine is bit-for-bit identical to a sequential scan.
    ///
    /// # Panics
    /// Panics if `q.len() != self.dim()` (see [`knn_query`]).
    fn knn_opts_traced(
        &self,
        clock: &mut SimClock,
        q: &[f32],
        k: usize,
        filter: Option<&Filter>,
        opts: &QueryOptions,
    ) -> (Vec<(u32, f64)>, QueryTrace);

    /// Like [`AccessMethod::knn`], additionally returning a
    /// [`QueryTrace`] of what the search did. Methods without a
    /// filter-and-refine structure report the fields that apply to them
    /// (a sequential scan processes every "page" and refines nothing).
    fn knn_traced(
        &self,
        clock: &mut SimClock,
        q: &[f32],
        k: usize,
    ) -> (Vec<(u32, f64)>, QueryTrace) {
        self.knn_opts_traced(clock, q, k, None, &QueryOptions::EXACT)
    }

    /// Exact k-NN among the points matching `filter`:
    /// [`AccessMethod::knn_opts_traced`] under default options, without
    /// the trace.
    fn knn_filtered(
        &self,
        clock: &mut SimClock,
        q: &[f32],
        k: usize,
        filter: Option<&Filter>,
    ) -> Vec<(u32, f64)> {
        self.knn_opts_traced(clock, q, k, filter, &QueryOptions::EXACT)
            .0
    }

    /// Answers a micro-batch of queries sharing this index in one call:
    /// for each `queries[i]`, the `k` nearest neighbors among points
    /// matching `filter` under `opts`, with that query's trace, in query
    /// order.
    ///
    /// The default runs the queries one by one through
    /// [`knn_multi_per_query`], each against a fresh reset clone of
    /// `clock` absorbed back in query order, so batch accounting is
    /// identical to a serial cold run. An engine may override this to
    /// share reads across the batch — the IQ-tree runs every query
    /// through its single-query walk over one micro-batch read buffer, so
    /// a block one query has read costs the others nothing (simulated
    /// costs legitimately drop). Exact answers are those of
    /// [`AccessMethod::knn_opts_traced`]; under approximation knobs a
    /// batched query may schedule its pages differently (the IQ-tree
    /// plans no Section 2.1 page runs inside a batch: it decodes pages
    /// one at a time, after one Figure 1 fetch of its known page set
    /// unless `nprobes` or a time budget caps it), so its answer may
    /// differ from the lone query's while keeping each knob's guarantee.
    ///
    /// Callers must keep micro-batches at or below
    /// [`MAX_MICRO_BATCH`]; [`knn_batch`] does this automatically.
    fn knn_multi_opts_traced(
        &self,
        clock: &mut SimClock,
        queries: &[&[f32]],
        k: usize,
        filter: Option<&Filter>,
        opts: &QueryOptions,
    ) -> Vec<TracedResult> {
        knn_multi_per_query(clock, queries, |clock, q| {
            self.knn_opts_traced(clock, q, k, filter, opts)
        })
    }

    /// All points within `radius` of `q` under the index metric
    /// (unordered ids; none for a negative or NaN radius, or a query point
    /// with a NaN or infinite coordinate). Every engine implements this by
    /// handing its search to [`range_query`].
    ///
    /// # Panics
    /// Panics if `q.len() != self.dim()`.
    fn range(&self, clock: &mut SimClock, q: &[f32], radius: f64) -> Vec<u32>;

    /// All points inside the query window (unordered ids). Every engine
    /// implements this by handing its search to [`window_query`].
    ///
    /// # Panics
    /// Panics if `window.dim() != self.dim()`.
    fn window(&self, clock: &mut SimClock, window: &Mbr) -> Vec<u32>;

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

/// The boundary every k-NN query passes before engine code runs. Each
/// engine's [`AccessMethod::knn_opts_traced`] hands its search to this
/// function, and so does every query of the IQ-tree's micro-batch walk.
///
/// It checks that `q` has `method.dim()` coordinates, then answers a
/// trivial query — `k == 0`, an empty index, a `filter` matching no point,
/// or a query point with a NaN or infinite coordinate, which is no point
/// of the space — with no results and an empty trace, without touching
/// `clock`. Any other query runs `search` inside the engine's root trace
/// span, named [`AccessMethod::name`] and annotated with `k`, every
/// non-neutral knob and the filter's match count; the span closes with the
/// returned trace's counters.
///
/// # Panics
/// Panics if `q.len() != method.dim()`.
pub fn knn_query<M: AccessMethod + ?Sized>(
    method: &M,
    clock: &mut SimClock,
    q: &[f32],
    k: usize,
    filter: Option<&Filter>,
    opts: &QueryOptions,
    search: impl FnOnce(&mut SimClock) -> TracedResult,
) -> TracedResult {
    assert_eq!(q.len(), method.dim(), "query dimensionality mismatch");
    if k == 0
        || method.is_empty()
        || filter.is_some_and(|f| f.matching() == 0)
        || q.iter().any(|x| !x.is_finite())
    {
        return (Vec::new(), QueryTrace::default());
    }
    query_span_begin(clock, method.name(), k, filter, opts);
    let out = search(clock);
    query_span_end(clock, &out.1);
    out
}

/// The boundary every range query passes before engine code runs: each
/// engine's [`AccessMethod::range`] hands its search to this function.
///
/// It checks that `q` has `method.dim()` coordinates, then answers a
/// query on an empty index, with a radius that is negative or NaN, or with
/// a point that has a NaN or infinite coordinate, with no ids, without
/// touching `clock`. Any other query runs `search` inside the engine's
/// root trace span, named [`AccessMethod::name`] and annotated with the
/// radius and, on close, the number of hits.
///
/// # Panics
/// Panics if `q.len() != method.dim()`.
pub fn range_query<M: AccessMethod + ?Sized>(
    method: &M,
    clock: &mut SimClock,
    q: &[f32],
    radius: f64,
    search: impl FnOnce(&mut SimClock) -> Vec<u32>,
) -> Vec<u32> {
    assert_eq!(q.len(), method.dim(), "query dimensionality mismatch");
    // Under L2 the engines compare squared keys, so a negative radius
    // would otherwise match the points within its absolute value.
    if radius.is_nan() || radius < 0.0 || q.iter().any(|x| !x.is_finite()) {
        return Vec::new();
    }
    in_root_span(
        method,
        clock,
        |clock| clock.span_attr("radius", &radius),
        search,
    )
}

/// The boundary every window query passes before engine code runs: each
/// engine's [`AccessMethod::window`] hands its search to this function.
/// Like [`range_query`]: one dimension check, no I/O on an empty index,
/// and the engine's root trace span, annotated with the number of hits.
///
/// # Panics
/// Panics if `window.dim() != method.dim()`.
pub fn window_query<M: AccessMethod + ?Sized>(
    method: &M,
    clock: &mut SimClock,
    window: &Mbr,
    search: impl FnOnce(&mut SimClock) -> Vec<u32>,
) -> Vec<u32> {
    assert_eq!(window.dim(), method.dim(), "window dimensionality mismatch");
    in_root_span(method, clock, |_| {}, search)
}

/// The shared tail of [`range_query`] and [`window_query`]: no ids and no
/// I/O on an empty index, otherwise `search` inside the engine's root
/// span, which `annotate` labels when the clock is tracing. The query's
/// last phase ends before the span closes, so every phase lands inside.
fn in_root_span<M: AccessMethod + ?Sized>(
    method: &M,
    clock: &mut SimClock,
    annotate: impl FnOnce(&mut SimClock),
    search: impl FnOnce(&mut SimClock) -> Vec<u32>,
) -> Vec<u32> {
    if method.is_empty() {
        return Vec::new();
    }
    let tracing = clock.tracing();
    if tracing {
        clock.span_begin(method.name());
        annotate(clock);
    }
    let hits = search(clock);
    clock.phase_end();
    if tracing {
        clock.span_count("hits", hits.len() as u64);
        clock.span_end();
    }
    hits
}

/// Opens the engine root span of one query on a tracing clock: the span
/// is named after the engine and annotated with `k`, every non-neutral
/// approximation knob and the filter's match count. A no-op (one branch)
/// when the clock is not tracing.
fn query_span_begin(
    clock: &mut SimClock,
    engine: &str,
    k: usize,
    filter: Option<&Filter>,
    opts: &QueryOptions,
) {
    if !clock.tracing() {
        return;
    }
    clock.span_begin(engine);
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

/// Closes the engine root span opened by [`query_span_begin`], first
/// recording every non-zero [`QueryTrace`] counter on it. A no-op when
/// the clock is not tracing.
fn query_span_end(clock: &mut SimClock, trace: &QueryTrace) {
    if !clock.tracing() {
        return;
    }
    for (name, v) in trace.fields() {
        clock.span_count(name, v);
    }
    clock.span_end();
}

/// How every [`AccessMethod::knn_multi_opts_traced`] runs its batch: the
/// queries one by one through `run`, each against a fresh reset clone of
/// `clock` absorbed back in query order, so time budgets, phase times and
/// trace spans stay per query.
pub fn knn_multi_per_query(
    clock: &mut SimClock,
    queries: &[&[f32]],
    mut run: impl FnMut(&mut SimClock, &[f32]) -> TracedResult,
) -> Vec<TracedResult> {
    queries
        .iter()
        .map(|q| {
            let mut c = clock.clone();
            c.reset();
            let out = run(&mut c, q);
            clock.absorb(&c);
            out
        })
        .collect()
}

/// Upper bound on the number of queries [`knn_batch`] hands to one
/// [`AccessMethod::knn_multi_opts_traced`] call: engines may assume
/// micro-batches never exceed it. It bounds what an engine buffers for
/// one micro-batch (the IQ-tree keeps every block its queries read).
pub const MAX_MICRO_BATCH: usize = 8;

/// Per-micro-batch outcome inside the batch executor: the traced results
/// of each query in the micro-batch, and the clock that paid for them.
type BatchSlot = Option<(Vec<TracedResult>, SimClock)>;

/// One query's `(results, trace)` pair as returned by
/// [`knn_batch_traced`].
pub type TracedResult = (Vec<(u32, f64)>, QueryTrace);

/// Answers every query in `queries` with a `k`-NN search against `method`,
/// fanning the batch out over `threads` OS threads that share the index.
///
/// The queries are cut, in order, into micro-batches of at most
/// [`MAX_MICRO_BATCH`], each answered by one
/// [`AccessMethod::knn_multi_opts_traced`] call on a fresh clone of
/// `clock` (reset to zero). An engine that shares reads inside a
/// micro-batch (the IQ-tree) charges a query only for the blocks it reads
/// itself: one an earlier query of its micro-batch read costs nothing, so
/// per-query costs are not those of a serial cold run. The other engines
/// charge each query exactly as a serial cold run. The micro-batch clocks
/// are then folded back into `clock` in query order via
/// [`SimClock::absorb`]. Since the cut does not depend on `threads`,
/// results and accumulated statistics are identical for every thread
/// count, including `1`.
pub fn knn_batch<M: AccessMethod + ?Sized>(
    method: &M,
    clock: &mut SimClock,
    queries: &[Vec<f32>],
    k: usize,
    threads: usize,
) -> Vec<Vec<(u32, f64)>> {
    knn_batch_traced(method, clock, queries, k, threads)
        .0
        .into_iter()
        .map(|(res, _)| res)
        .collect()
}

/// Like [`knn_batch`], but keeps the work reports: returns each query's
/// `(results, trace)` in query order plus the aggregate of all traces
/// (per-field sums via [`QueryTrace::merge`]). Determinism is the same as
/// [`knn_batch`]: results, traces and clock statistics are identical for
/// every thread count.
pub fn knn_batch_traced<M: AccessMethod + ?Sized>(
    method: &M,
    clock: &mut SimClock,
    queries: &[Vec<f32>],
    k: usize,
    threads: usize,
) -> (Vec<TracedResult>, QueryTrace) {
    knn_batch_opts_traced(
        method,
        clock,
        queries,
        k,
        threads,
        None,
        &QueryOptions::EXACT,
    )
}

/// The full batch entry point: queries are grouped into micro-batches of
/// at most [`MAX_MICRO_BATCH`] (in query order) and each micro-batch runs
/// [`AccessMethod::knn_multi_opts_traced`] with the same `filter` and
/// approximation `opts`, micro-batches fanned out over `threads` OS
/// threads. Clock accounting and determinism are as in [`knn_batch`] —
/// micro-batch formation and the per-micro-batch simulated clocks (and
/// thus any `time_budget` deadline, which is per-query) are independent
/// of the thread count.
pub fn knn_batch_opts_traced<M: AccessMethod + ?Sized>(
    method: &M,
    clock: &mut SimClock,
    queries: &[Vec<f32>],
    k: usize,
    threads: usize,
    filter: Option<&Filter>,
    opts: &QueryOptions,
) -> (Vec<TracedResult>, QueryTrace) {
    if queries.is_empty() {
        return (Vec::new(), QueryTrace::default());
    }
    let mut template = clock.clone();
    template.reset();
    let template = &template;
    // Micro-batches are formed in query order with a fixed size, so the
    // partition — and therefore every engine's amortization opportunity
    // and clock accounting — is independent of `threads`. Threads then
    // pick up whole micro-batches.
    let batches: Vec<&[Vec<f32>]> = queries.chunks(MAX_MICRO_BATCH).collect();
    let mut slots: Vec<BatchSlot> = Vec::new();
    slots.resize_with(batches.len(), || None);
    let chunk = batches.len().div_ceil(threads.max(1));
    std::thread::scope(|s| {
        let workers: Vec<_> = batches
            .chunks(chunk)
            .zip(slots.chunks_mut(chunk))
            .map(|(bs, outs)| {
                s.spawn(move || {
                    for (qs, out) in bs.iter().zip(outs.iter_mut()) {
                        let refs: Vec<&[f32]> = qs.iter().map(Vec::as_slice).collect();
                        let mut c = template.clone();
                        let res = method.knn_multi_opts_traced(&mut c, &refs, k, filter, opts);
                        debug_assert_eq!(res.len(), qs.len(), "one result per query");
                        *out = Some((res, c));
                    }
                })
            })
            .collect();
        // A query that panics (say, on a wrong dimension) re-raises its
        // own message in the caller, not the scope's generic one.
        for w in workers {
            if let Err(panic) = w.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    let mut results = Vec::with_capacity(queries.len());
    let mut aggregate = QueryTrace::default();
    for slot in slots {
        let (res, c) = slot.expect("every spawned chunk fills its slots");
        clock.absorb(&c);
        for (r, trace) in res {
            aggregate.merge(&trace);
            results.push((r, trace));
        }
    }
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
        fn knn_opts_traced(
            &self,
            clock: &mut SimClock,
            q: &[f32],
            k: usize,
            filter: Option<&Filter>,
            opts: &QueryOptions,
        ) -> (Vec<(u32, f64)>, QueryTrace) {
            knn_query(self, clock, q, k, filter, opts, |clock| {
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
            })
        }
        fn range(&self, clock: &mut SimClock, q: &[f32], radius: f64) -> Vec<u32> {
            range_query(self, clock, q, radius, |_| {
                (0..self.pts.len() as u32)
                    .filter(|&i| Metric::Euclidean.distance(&self.pts[i as usize], q) <= radius)
                    .collect()
            })
        }
        fn window(&self, clock: &mut SimClock, window: &Mbr) -> Vec<u32> {
            window_query(self, clock, window, |_| {
                (0..self.pts.len() as u32)
                    .filter(|&i| window.contains_point(&self.pts[i as usize]))
                    .collect()
            })
        }
    }

    fn flat(n: usize) -> Flat {
        Flat {
            dim: 2,
            pts: (0..n).map(|i| vec![i as f32, (i * 7 % n) as f32]).collect(),
        }
    }

    #[test]
    fn batch_is_thread_count_invariant() {
        let m = flat(400);
        let queries: Vec<Vec<f32>> = (0..37).map(|i| vec![i as f32, (i * 3) as f32]).collect();
        let mut c1 = SimClock::default();
        let r1 = knn_batch(&m, &mut c1, &queries, 5, 1);
        for threads in [2, 3, 8] {
            let mut c = SimClock::default();
            let r = knn_batch(&m, &mut c, &queries, 5, threads);
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
        let (per_query, agg) = knn_batch_traced(&m, &mut c1, &queries, 4, 1);
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
            let (pq, a) = knn_batch_traced(&m, &mut c, &queries, 4, threads);
            assert_eq!(pq, per_query, "{threads} threads");
            assert_eq!(a, agg, "{threads} threads");
            assert_eq!(c.stats(), c1.stats(), "{threads} threads");
        }
    }

    #[test]
    fn default_multi_query_matches_per_query_calls() {
        let m = flat(150);
        let queries: Vec<Vec<f32>> = (0..MAX_MICRO_BATCH + 3)
            .map(|i| vec![i as f32, (i * 5) as f32])
            .collect();
        let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let mut mc = SimClock::default();
        let multi = m.knn_multi_opts_traced(&mut mc, &refs, 6, None, &QueryOptions::EXACT);
        let mut sc = SimClock::default();
        for (q, got) in queries.iter().zip(&multi) {
            let mut c = sc.clone();
            c.reset();
            let want = m.knn_opts_traced(&mut c, q, 6, None, &QueryOptions::EXACT);
            sc.absorb(&c);
            assert_eq!(*got, want);
        }
        assert_eq!(mc.stats(), sc.stats());
        assert_eq!(mc.total_time(), sc.total_time());
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
        let r = knn_batch(dynm, &mut clock, &[vec![0.0, 0.0]], 3, 4);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].len(), 3);
        assert_eq!(r[0][0].0, 0);
    }

    #[test]
    fn empty_batch_returns_empty() {
        let m = flat(10);
        let mut clock = SimClock::default();
        assert!(knn_batch(&m, &mut clock, &[], 3, 4).is_empty());
    }

    #[test]
    fn default_nearest_delegates_to_knn() {
        let m = flat(10);
        let mut clock = SimClock::default();
        let nn = m.nearest(&mut clock, &[3.1, 1.0]).expect("non-empty");
        assert_eq!(nn.0, 3);
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
                let got = m.knn_filtered(&mut clock, &q, k, Some(&f));
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
        let got = m.knn_filtered(&mut clock, &[0.0, 0.0], 5, Some(&f));
        assert_eq!(got.len(), 1, "only one point matches");
        assert_eq!(got[0].0, 49);
    }

    #[test]
    fn empty_filter_returns_empty() {
        let m = flat(50);
        let mut clock = SimClock::default();
        let f = Filter::from_fn(50, |_| false);
        assert!(m
            .knn_filtered(&mut clock, &[0.0, 0.0], 5, Some(&f))
            .is_empty());
    }

    #[test]
    fn none_filter_is_plain_knn() {
        let m = flat(60);
        let mut clock = SimClock::default();
        let a = m.knn(&mut clock, &[7.0, 3.0], 6);
        let b = m.knn_filtered(&mut clock, &[7.0, 3.0], 6, None);
        assert_eq!(a, b);
    }

    #[test]
    fn pagination_slices_the_same_universe() {
        let m = flat(120);
        let mut clock = SimClock::default();
        let f = Filter::from_fn(120, |id| id % 3 != 0);
        let q = vec![31.0f32, 77.0];
        let full = knn_paginated(&m, &mut clock, &q, Some(&f), &PageSpec::top(20));
        assert_eq!(full.len(), 20);
        // Disjoint offset windows tile the full list exactly.
        let mut stitched = Vec::new();
        for offset in (0..20).step_by(7) {
            let page = knn_paginated(
                &m,
                &mut clock,
                &q,
                Some(&f),
                &PageSpec {
                    k: 20,
                    offset,
                    limit: Some(7),
                },
            );
            stitched.extend(page);
        }
        assert_eq!(stitched, full);
        // Offset past the end is empty, not an error.
        let past = knn_paginated(
            &m,
            &mut clock,
            &q,
            Some(&f),
            &PageSpec {
                k: 20,
                offset: 25,
                limit: None,
            },
        );
        assert!(past.is_empty());
    }
}
