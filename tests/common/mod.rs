//! Helpers shared by the integration tests: single queries and k-NN
//! batches through the engine layer, answered as `(hits, trace)` pairs.

#![allow(dead_code)]

use iqtree_repro::engine::{
    run_threaded, AccessMethod, Filter, Query, QueryOptions, QueryTrace, TracedResult,
};
use iqtree_repro::geometry::Mbr;
use iqtree_repro::storage::SimClock;

/// The exact, unfiltered `k` nearest neighbors of `q`.
pub fn knn<M: AccessMethod + ?Sized>(
    method: &M,
    clock: &mut SimClock,
    q: &[f32],
    k: usize,
) -> TracedResult {
    method
        .run(clock, &Query::knn(q, k))
        .expect("valid query")
        .into_ranked()
}

/// The ids, ascending, and the trace of a range or window query.
fn region<M: AccessMethod + ?Sized>(
    method: &M,
    clock: &mut SimClock,
    query: &Query,
) -> (Vec<u32>, QueryTrace) {
    let answer = method.run(clock, query).expect("valid query");
    let mut ids = answer.ids();
    ids.sort_unstable();
    (ids, answer.trace)
}

/// Every point within `radius` of `point`: [`region`].
pub fn range<M: AccessMethod + ?Sized>(
    method: &M,
    clock: &mut SimClock,
    point: &[f32],
    radius: f64,
) -> (Vec<u32>, QueryTrace) {
    region(method, clock, &Query::Range { point, radius })
}

/// Every point inside `w`: [`region`].
pub fn window<M: AccessMethod + ?Sized>(
    method: &M,
    clock: &mut SimClock,
    w: &Mbr,
) -> (Vec<u32>, QueryTrace) {
    region(method, clock, &Query::Window(w))
}

/// One k-NN query per point, all sharing `k`, `filter` and `opts`.
pub fn knn_queries<'a, P: AsRef<[f32]>>(
    points: &'a [P],
    k: usize,
    filter: Option<&'a Filter>,
    opts: QueryOptions,
) -> Vec<Query<'a>> {
    points
        .iter()
        .map(|p| Query::Knn {
            point: p.as_ref(),
            k,
            filter,
            opts,
        })
        .collect()
}

/// The exact `k` nearest neighbors of every point through the threaded
/// executor on `threads` threads.
pub fn knn_threaded<M: AccessMethod + ?Sized, P: AsRef<[f32]>>(
    method: &M,
    clock: &mut SimClock,
    points: &[P],
    k: usize,
    threads: usize,
) -> Vec<TracedResult> {
    let queries = knn_queries(points, k, None, QueryOptions::EXACT);
    run_threaded(method, clock, &queries, threads)
        .into_iter()
        .map(|r| r.expect("valid query").into_ranked())
        .collect()
}

/// The hits of [`knn_threaded`], without the traces.
pub fn knn_threaded_hits<M: AccessMethod + ?Sized, P: AsRef<[f32]>>(
    method: &M,
    clock: &mut SimClock,
    points: &[P],
    k: usize,
    threads: usize,
) -> Vec<Vec<(u32, f64)>> {
    knn_threaded(method, clock, points, k, threads)
        .into_iter()
        .map(|(hits, _)| hits)
        .collect()
}

/// The per-field sum of the traces of a batch.
pub fn total(batch: &[TracedResult]) -> QueryTrace {
    let mut sum = QueryTrace::default();
    for (_, trace) in batch {
        sum.merge(trace);
    }
    sum
}

/// The k-NN of every point as one micro-batch of
/// [`AccessMethod::run_batch`].
pub fn knn_micro_batch<M: AccessMethod + ?Sized, P: AsRef<[f32]>>(
    method: &M,
    clock: &mut SimClock,
    points: &[P],
    k: usize,
    filter: Option<&Filter>,
    opts: QueryOptions,
) -> Vec<TracedResult> {
    let queries = knn_queries(points, k, filter, opts);
    method
        .run_batch(clock, &queries)
        .into_iter()
        .map(|r| r.expect("valid query").into_ranked())
        .collect()
}
