//! Sequential-scan baseline.
//!
//! The reference technique of the paper's evaluation: the exact coordinates
//! of all points live in one flat file that every query reads front to back
//! with a single seek. In very high dimensions this is the bar an index has
//! to clear (cf. \[7\] in the paper); the IQ-tree is designed to beat it by
//! scanning *compressed* approximations instead.

#![forbid(unsafe_code)]

use iq_engine::{answer, AccessMethod, Answer, Executor, Query, QueryOptions, QueryTrace, Region};
use iq_geometry::{Dataset, Metric};
use iq_obs::CostPrediction;
use iq_storage::{sweep_records, BlockDevice, IqResult, SimClock, Sweep};

/// A flat file of exact points, searched by full scans.
///
/// # Example
///
/// ```
/// use iq_engine::{AccessMethod, Query};
/// use iq_geometry::{Dataset, Metric};
/// use iq_storage::{MemDevice, SimClock};
/// use iq_scan::SeqScan;
///
/// let ds = Dataset::from_flat(2, vec![0.1, 0.1, 0.9, 0.9]);
/// let mut clock = SimClock::default();
/// let scan = SeqScan::build(&ds, Metric::Euclidean, Box::new(MemDevice::new(512)), &mut clock);
/// let (hits, _) = scan.run(&mut clock, &Query::knn(&[0.0, 0.0], 1))?.into_ranked();
/// assert_eq!(hits[0].0, 0);
/// # Ok::<(), iq_storage::IqError>(())
/// ```
pub struct SeqScan {
    dim: usize,
    metric: Metric,
    n: usize,
    dev: Box<dyn BlockDevice>,
}

impl SeqScan {
    /// Builds the scan file by writing all points sequentially to `dev`.
    pub fn build(
        ds: &Dataset,
        metric: Metric,
        mut dev: Box<dyn BlockDevice>,
        clock: &mut SimClock,
    ) -> Self {
        // Plain flat file: `dim` little-endian f32s per point, ids implicit
        // in position. No checksums — this baseline models the raw scan the
        // paper compares against.
        let mut bytes = Vec::with_capacity(ds.len() * ds.dim() * 4);
        for p in ds.iter() {
            for c in p {
                bytes.extend_from_slice(&c.to_le_bytes());
            }
        }
        dev.append(clock, &bytes).expect("append scan file");
        Self {
            dim: ds.dim(),
            metric,
            n: ds.len(),
            dev,
        }
    }

    /// Scans the file once, invoking `visit(id, coords)` for every point,
    /// stopping between block reads once the clock reaches `deadline`
    /// (simulated seconds): one [`sweep_records`] over the file, whose
    /// records are the points. Returns what the sweep covered; a chunk
    /// that stays unreadable loses its points.
    ///
    /// Takes `&self`: the scan file is immutable after [`SeqScan::build`],
    /// so any number of threads may query it concurrently, each with its
    /// own clock.
    fn scan(
        &self,
        clock: &mut SimClock,
        deadline: f64,
        mut visit: impl FnMut(u32, &[f32]),
    ) -> Sweep {
        // The whole sweep is one filter pass over exact data; there is no
        // separate planning or refinement to attribute time to.
        clock.phase_begin(iq_obs::Phase::Filter);
        let pb = self.dim * 4;
        let mut coords = vec![0.0f32; self.dim];
        let swept = sweep_records(
            self.dev.as_ref(),
            clock,
            pb,
            self.n,
            deadline,
            |first, points| {
                for (j, p) in points.chunks_exact(pb).enumerate() {
                    for (c, x) in coords.iter_mut().zip(p.chunks_exact(4)) {
                        *c = f32::from_le_bytes(x.try_into().expect("4 bytes"));
                    }
                    visit((first + j) as u32, &coords);
                }
            },
        );
        // CPU cost: one distance-like evaluation per visited point.
        clock.charge_dist_evals(self.dim, swept.visited);
        clock.phase_end();
        swept
    }
}

impl AccessMethod for SeqScan {
    fn name(&self) -> &'static str {
        "scan"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.n
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    /// The single scan search loop: one sequential sweep offering every
    /// (matching) exact point to the shared [`Executor`]. With a filter
    /// this is the filter-then-scan oracle the other engines' filtered
    /// searches are tested against. The scan has no approximation level,
    /// so `epsilon`, `nprobes` and `refine_factor` cannot shorten it —
    /// only `time_budget` does (the sweep stops between chunk reads,
    /// returning the best answer so far). A range or window query sweeps
    /// the whole file, keeping the points in its region. The trace
    /// reports one run, the blocks swept as `pages_processed` and the
    /// points of chunks that stayed unreadable as `points_skipped`.
    fn run(&self, clock: &mut SimClock, query: &Query) -> IqResult<Answer> {
        let metric = self.metric;
        answer(
            self,
            clock,
            query,
            |clock, q, k, filter, opts| {
                let mut exec = Executor::new(metric, k, opts, clock);
                let deadline = opts
                    .time_budget
                    .map_or(f64::INFINITY, |b| clock.total_time() + b);
                let swept = self.scan(clock, deadline, |id, p| {
                    if filter.is_none_or(|f| f.matches(id)) {
                        exec.offer(metric.distance_key(p, q), id);
                    }
                });
                exec.trace = sweep_trace(&swept);
                exec.skip_candidates(self.n as u64 - swept.visited - swept.lost);
                clock.phase_begin(iq_obs::Phase::TopK);
                exec.into_results(metric)
            },
            |clock, region: &Region| {
                let mut out = Vec::new();
                let swept = self.scan(clock, f64::INFINITY, |id, p| {
                    if region.holds(p) {
                        out.push(id);
                    }
                });
                (out, sweep_trace(&swept))
            },
        )
    }

    /// A sequential scan's cost is fully analytic: every query reads the
    /// whole file in one sweep (`cost_is_one_sequential_scan` pins this),
    /// so the prediction is exact apart from a `time_budget` clip. There
    /// is no refinement level — all pages are filter pages.
    fn cost_prediction(&self, _k: usize, opts: &QueryOptions) -> Option<CostPrediction> {
        let disk = iq_storage::DiskModel::default();
        let blocks = disk.blocks_for(self.n * self.dim * 4) as f64;
        let mut io_seconds = disk.scan_cost(blocks as u64);
        let mut pages = blocks;
        if let Some(b) = opts.time_budget {
            if io_seconds > b {
                // The sweep stops at block granularity once the budget is
                // spent: scale the page count by the readable fraction.
                pages = (blocks * b / io_seconds).floor().max(0.0);
                io_seconds = b;
            }
        }
        Some(CostPrediction {
            pages,
            io_seconds,
            filter_pages: pages,
            refine_pages: 0.0,
        })
    }
}

/// The trace of one sweep over the scan file.
fn sweep_trace(swept: &Sweep) -> QueryTrace {
    QueryTrace {
        pages_processed: swept.blocks,
        runs: 1,
        points_skipped: swept.lost,
        ..QueryTrace::default()
    }
}

// Queries take `&self`; a scan shared across threads must stay usable.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SeqScan>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use iq_engine::Hits;
    use iq_storage::{CpuModel, DiskModel, MemDevice};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn knn(scan: &SeqScan, clock: &mut SimClock, q: &[f32], k: usize) -> Vec<(u32, f64)> {
        scan.run(clock, &Query::knn(q, k))
            .expect("valid query")
            .into_ranked()
            .0
    }

    fn make(n: usize, dim: usize, seed: u64) -> (Dataset, SeqScan, SimClock) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        let mut row = vec![0.0f32; dim];
        for _ in 0..n {
            row.fill_with(|| rng.gen());
            ds.push(&row);
        }
        let mut clock = SimClock::new(DiskModel::default(), CpuModel::free());
        let scan = SeqScan::build(
            &ds,
            Metric::Euclidean,
            Box::new(MemDevice::new(8192)),
            &mut clock,
        );
        clock.reset();
        (ds, scan, clock)
    }

    fn brute_nn(ds: &Dataset, q: &[f32]) -> (u32, f64) {
        let m = Metric::Euclidean;
        (0..ds.len())
            .map(|i| (i as u32, m.distance(ds.point(i), q)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
            .expect("non-empty")
    }

    #[test]
    fn nearest_matches_brute_force() {
        let (ds, scan, mut clock) = make(500, 7, 1);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let q: Vec<f32> = (0..7).map(|_| rng.gen()).collect();
            let (id, d) = knn(&scan, &mut clock, &q, 1)[0];
            let (bid, bd) = brute_nn(&ds, &q);
            assert_eq!(id, bid);
            assert!((d - bd).abs() < 1e-9);
        }
    }

    #[test]
    fn knn_is_sorted_and_correct() {
        let (ds, scan, mut clock) = make(300, 4, 2);
        let q = vec![0.5f32; 4];
        let knn = knn(&scan, &mut clock, &q, 10);
        assert_eq!(knn.len(), 10);
        assert!(knn.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(knn[0].0, brute_nn(&ds, &q).0);
        // Every returned distance <= distance of any point not returned.
        let max_ret = knn.last().expect("10 items").1;
        let in_set: std::collections::HashSet<u32> = knn.iter().map(|x| x.0).collect();
        for i in 0..ds.len() {
            if !in_set.contains(&(i as u32)) {
                assert!(Metric::Euclidean.distance(ds.point(i), &q) >= max_ret - 1e-9);
            }
        }
    }

    #[test]
    fn range_query_matches_filter() {
        let (ds, scan, mut clock) = make(400, 5, 3);
        let q = vec![0.4f32; 5];
        let r = 0.5;
        let query = Query::Range {
            point: &q,
            radius: r,
        };
        let answer = scan.run(&mut clock, &query).expect("valid query");
        let Hits::Ids(mut got) = answer.hits else {
            panic!("a range query returns ids");
        };
        got.sort_unstable();
        let mut expect: Vec<u32> = (0..ds.len() as u32)
            .filter(|&i| Metric::Euclidean.distance(ds.point(i as usize), &q) <= r)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn cost_is_one_sequential_scan() {
        let (_, scan, mut clock) = make(2_000, 16, 4);
        knn(&scan, &mut clock, &[0.1f32; 16], 1);
        let d = DiskModel::default();
        let blocks = d.blocks_for(2_000 * 16 * 4);
        assert_eq!(clock.stats().seeks, 1);
        assert_eq!(clock.stats().blocks_read, blocks);
        assert!((clock.io_time() - d.scan_cost(blocks)).abs() < 1e-9);
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let (ds, scan, mut clock) = make(5, 3, 5);
        let knn = knn(&scan, &mut clock, &[0.0, 0.0, 0.0], 50);
        assert_eq!(knn.len(), ds.len());
    }

    #[test]
    fn straddling_points_decode_correctly() {
        // dim 5 -> 20 bytes/point; block 64 -> points straddle boundaries.
        let mut ds = Dataset::new(5);
        for i in 0..50 {
            ds.push(&[i as f32; 5]);
        }
        let mut clock = SimClock::default();
        let scan = SeqScan::build(
            &ds,
            Metric::Euclidean,
            Box::new(MemDevice::new(64)),
            &mut clock,
        );
        let (id, d) = knn(&scan, &mut clock, &[17.2f32; 5], 1)[0];
        assert_eq!(id, 17);
        assert!(d > 0.0);
    }

    #[test]
    fn points_larger_than_a_block_scan_under_a_time_budget() {
        // 800-byte points in 512-byte blocks: under a time budget the
        // sweep reads one block at a time, so a point spans up to three
        // reads.
        let mut ds = Dataset::new(200);
        for i in 0..10 {
            ds.push(&[i as f32; 200]);
        }
        let mut clock = SimClock::default();
        let scan = SeqScan::build(
            &ds,
            Metric::Euclidean,
            Box::new(MemDevice::new(512)),
            &mut clock,
        );
        let opts = QueryOptions {
            time_budget: Some(1e6),
            ..QueryOptions::EXACT
        };
        let query = Query::Knn {
            point: &[3.2; 200],
            k: 3,
            filter: None,
            opts,
        };
        let (hits, trace) = scan.run(&mut clock, &query).expect("valid").into_ranked();
        let ids: Vec<u32> = hits.iter().map(|h| h.0).collect();
        assert_eq!(ids, [3, 4, 2]);
        assert_eq!(trace.pages_processed, scan.dev.num_blocks());
    }
}
