//! VA-file baseline (vector-approximation file, Weber/Schek/Blott,
//! VLDB '98).
//!
//! The VA-file is "an index structure that actually is not an index
//! structure" (paper, Section 5): it keeps a bit-compressed version of all
//! points in one flat file plus the exact points in a second flat file, in
//! identical order. A query scans the approximation file sequentially,
//! derives a lower and an upper distance bound per point from its grid-cell
//! box, and fetches the exact coordinates only for points whose lower bound
//! does not exceed the best upper bound found (two-phase NN search).
//!
//! Unlike the IQ-tree's *page-local* grids, the VA-file uses one *global*
//! grid with a fixed, manually chosen number of bits per dimension — the
//! tuning knob the paper sweeps from 2 to 8 bits and picks the best of.

#![forbid(unsafe_code)]

use iq_cost::refine::RefineParams;
use iq_engine::{
    answer, refine_ascending, AccessMethod, Answer, Executor, Filter, Query, QueryOptions,
    QueryTrace, Region, TopK,
};
use iq_geometry::{Dataset, Mbr, Metric};
use iq_obs::{CostPrediction, Phase};
use iq_quantize::simd::unpack_block;
use iq_quantize::{BitWriter, CellMatch, DistTable, ExactPageCodec, GridQuantizer, WindowTable};
use iq_storage::{
    read_to_vec_retry, sweep_records, BlockBuffer, BlockDevice, DiskModel, IqResult, SimClock,
};

/// Predicts the average NN query cost of a VA-file at `bits` per
/// dimension, using the IQ-tree's cost model (the data space plays the
/// role of one big "page" with a global grid): one sequential sweep of the
/// approximation file, two bound evaluations per point, plus the expected
/// refinements priced as random accesses.
///
/// This ports the paper's headline advantage — "it automatically adapts
/// the compression rate" — to the VA-file, replacing its manual 2–8 bit
/// sweep (Section 4.2).
pub fn predict_cost(
    disk: &DiskModel,
    cpu: &iq_storage::CpuModel,
    dim: usize,
    n: usize,
    fractal_dim: f64,
    data_sides: &[f32],
    bits: u32,
) -> f64 {
    let entry_bytes = (dim * bits as usize).div_ceil(8);
    let scan_blocks = disk.blocks_for(n * entry_bytes);
    let scan = disk.scan_cost(scan_blocks) + cpu.dist_cost(dim, 2 * n as u64);
    let params = RefineParams::fractal(Metric::Euclidean, dim, fractal_dim, n);
    let refinements = iq_cost::expected_refinements(&params, data_sides, n, bits);
    scan + refinements * (disk.t_seek + disk.t_xfer) + refinements * cpu.dist_cost(dim, 1)
}

/// The model-chosen number of bits per dimension for a data set: evaluates
/// [`predict_cost`] over 1..=16 and returns the argmin.
pub fn auto_bits(
    disk: &DiskModel,
    cpu: &iq_storage::CpuModel,
    ds: &Dataset,
    fractal_dim: f64,
) -> u32 {
    let mbr = Mbr::of_points(ds.dim(), ds.iter());
    let sides = mbr.sides();
    (1..=16u32)
        .min_by(|&a, &b| {
            let ca = predict_cost(disk, cpu, ds.dim(), ds.len(), fractal_dim, &sides, a);
            let cb = predict_cost(disk, cpu, ds.dim(), ds.len(), fractal_dim, &sides, b);
            ca.partial_cmp(&cb).expect("costs are never NaN")
        })
        .expect("non-empty bits range")
}

/// A VA-file over a fixed data set.
///
/// # Example
///
/// ```
/// use iq_engine::{AccessMethod, Query};
/// use iq_geometry::{Dataset, Metric};
/// use iq_storage::{MemDevice, SimClock};
/// use iq_vafile::VaFile;
///
/// let ds = Dataset::from_flat(2, (0..100).map(|i| i as f32 / 100.0).collect());
/// let mut clock = SimClock::default();
/// let va = VaFile::build(
///     &ds,
///     Metric::Euclidean,
///     4, // bits per dimension
///     Box::new(MemDevice::new(512)),
///     Box::new(MemDevice::new(512)),
///     &mut clock,
/// );
/// let (hits, _) = va.run(&mut clock, &Query::knn(&[0.51, 0.52], 1))?.into_ranked();
/// assert!(hits[0].1 < 0.1);
/// # Ok::<(), iq_storage::IqError>(())
/// ```
pub struct VaFile {
    dim: usize,
    metric: Metric,
    bits: u32,
    n: usize,
    mbr: Mbr,
    entry_bytes: usize,
    codec: ExactPageCodec,
    approx: Box<dyn BlockDevice>,
    exact: Box<dyn BlockDevice>,
}

impl VaFile {
    /// Builds the approximation and exact files for `ds` with `bits` bits
    /// per dimension (the paper sweeps 2–8).
    ///
    /// # Panics
    /// Panics if `ds` is empty or `bits` is outside `1..=16`.
    pub fn build(
        ds: &Dataset,
        metric: Metric,
        bits: u32,
        mut approx: Box<dyn BlockDevice>,
        mut exact: Box<dyn BlockDevice>,
        clock: &mut SimClock,
    ) -> Self {
        assert!(!ds.is_empty(), "cannot build a VA-file over an empty set");
        assert!(
            (1..=16).contains(&bits),
            "bits per dimension must be in 1..=16"
        );
        let dim = ds.dim();
        let mbr = Mbr::of_points(dim, ds.iter());
        let grid = GridQuantizer::new(&mbr, bits);
        let entry_bytes = (dim * bits as usize).div_ceil(8);

        let mut approx_bytes = Vec::with_capacity(ds.len() * entry_bytes);
        for p in ds.iter() {
            let mut w = BitWriter::new();
            for (i, &x) in p.iter().enumerate() {
                w.write(grid.cell_of(i, x), bits);
            }
            let packed = w.into_bytes();
            debug_assert_eq!(packed.len(), entry_bytes);
            approx_bytes.extend_from_slice(&packed);
        }
        approx
            .append(clock, &approx_bytes)
            .expect("append approximation file");

        let codec = ExactPageCodec::new(dim);
        let rows = ds.iter().enumerate().map(|(i, p)| (i as u32, p));
        exact
            .append(clock, &codec.encode(rows))
            .expect("append exact file");

        Self {
            dim,
            metric,
            bits,
            n: ds.len(),
            mbr,
            entry_bytes,
            codec,
            approx,
            exact,
        }
    }

    /// Bits per dimension of the global grid.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Size of the approximation file in blocks (what the filter phase
    /// scans).
    pub fn approx_blocks(&self) -> u64 {
        self.approx.num_blocks()
    }

    /// Builds the per-query distance table over the global grid: `dim ×
    /// 2^bits` lower/upper bound contributions, so the scan does `dim`
    /// lookups per point instead of per-point geometry. (For very fine
    /// grids the table stays lazy and folds contributions on the fly —
    /// same results either way.)
    fn dist_table(&self, q: &[f32]) -> DistTable {
        let mut t = DistTable::new();
        t.build_bounds(&self.mbr, self.bits, self.metric, q, self.n);
        t
    }

    /// The approximation-file sweep every query shares: one
    /// [`sweep_records`] over the file, each batch of whole entries
    /// unpacked in one SIMD pass and handed to `visit(first_id, cells)`
    /// (`dim` cell numbers per entry, for points `first_id..`). Charges
    /// `evals_per_point` distance evaluations for every point visited and
    /// returns the number of points lost to a chunk that stayed
    /// unreadable; those are never visited.
    fn sweep(
        &self,
        clock: &mut SimClock,
        evals_per_point: u64,
        mut visit: impl FnMut(usize, &[u32]),
    ) -> usize {
        let entry = self.entry_bytes;
        let mut cells: Vec<u32> = Vec::new();
        let swept = sweep_records(
            self.approx.as_ref(),
            clock,
            entry,
            self.n,
            f64::INFINITY,
            |first, entries| {
                cells.clear();
                cells.resize(entries.len() / entry * self.dim, 0);
                unpack_block(entries, entry, 0, self.bits, self.dim, &mut cells);
                visit(first, &cells);
            },
        );
        clock.charge_dist_evals(self.dim, evals_per_point * swept.visited);
        swept.lost as usize
    }

    /// Phase 1: scans the approximation file and produces per-point lower
    /// bounds plus the pruning threshold δ (the k-th smallest upper bound),
    /// all in the metric's comparable key space, and the number of points
    /// the sweep lost. When a `filter` is pushed down, non-matching points
    /// are dropped during the sweep: they get a `NAN` lower bound (never a
    /// candidate) and contribute nothing to δ, so the threshold is the
    /// k-th smallest *matching* upper bound. Lost points get a `NAN` lower
    /// bound too.
    ///
    /// Takes `&self` (like all query paths): both files are immutable after
    /// [`VaFile::build`], so concurrent queries share the structure freely.
    fn filter_phase(
        &self,
        clock: &mut SimClock,
        q: &[f32],
        k: usize,
        filter: Option<&Filter>,
    ) -> (Vec<f64>, f64, usize) {
        let table = self.dist_table(q);
        let mut lower = Vec::with_capacity(self.n);
        // The k smallest upper bounds seen so far (δ is their max).
        let mut best_ub = TopK::new(k);
        let mut lo_keys: Vec<f64> = Vec::new();
        let mut hi_keys: Vec<f64> = Vec::new();
        // Two bound evaluations per scanned point.
        let lost = self.sweep(clock, 2, |first, cells| {
            table.bounds_keys(cells, &mut lo_keys, &mut hi_keys);
            lower.resize(first, f64::NAN);
            for (j, (&lo, &hi)) in lo_keys.iter().zip(&hi_keys).enumerate() {
                let id = (first + j) as u32;
                if filter.is_none_or(|f| f.matches(id)) {
                    lower.push(lo);
                    best_ub.insert(hi, id);
                } else {
                    lower.push(f64::NAN);
                }
            }
        });
        lower.resize(self.n, f64::NAN);
        // δ = the k-th smallest upper bound; +∞ while fewer than k points
        // exist (then every lower bound passes anyway, since lb <= ub).
        (lower, best_ub.bound(), lost)
    }

    /// Fetches the exact coordinates of point `i` into `out` through the
    /// query's exact-block buffer: a random access into the exact file,
    /// retried on transient faults, only for blocks the buffer lacks (as
    /// the IQ-tree refines). Charges one distance evaluation and returns
    /// `true`, or returns `false` when the entry stays unreadable or does
    /// not decode.
    fn fetch_exact_into(
        &self,
        clock: &mut SimClock,
        blocks: &mut BlockBuffer,
        i: usize,
        out: &mut [f32],
    ) -> bool {
        let (first, _, off) = self.codec.entry_span(i, self.exact.block_size());
        let read = |first, n| read_to_vec_retry(self.exact.as_ref(), clock, first, n);
        let ok = blocks
            .span(first, off, self.codec.entry_bytes(), read)
            .and_then(|bytes| self.codec.try_decode_entry_into(bytes, out))
            .is_ok();
        if ok {
            clock.charge_dist_evals(self.dim, 1);
        }
        ok
    }

    /// The two-phase search. The `filter` (if any) is pushed into the
    /// approximation sweep, so δ and the candidate set derive only from
    /// matching points and `k` counts post-filter results — no top-up
    /// rounds are ever needed. Phase 2 is the shared executor's
    /// [`refine_ascending`] sweep, which owns pruning, ε-termination, the
    /// `refine_factor` cap and the time budget; `nprobes` truncates the
    /// sorted candidate list first (IVF-style: only the m best
    /// approximations are ever refined).
    ///
    /// The trace reports the approximation sweep ([`QueryTrace::runs`] =
    /// 1, `pages_processed` = blocks scanned), the candidates surviving
    /// the filter (`approx_enqueued`), the exact points read and compared
    /// (`refinements`) and those that stayed unreadable
    /// (`points_skipped`, which also counts the points of an
    /// approximation chunk the sweep lost). Refinements read through one
    /// exact-block buffer per query, so each exact block is read at most
    /// once.
    fn search_knn(
        &self,
        clock: &mut SimClock,
        q: &[f32],
        k: usize,
        filter: Option<&Filter>,
        opts: &QueryOptions,
    ) -> (Vec<(u32, f64)>, QueryTrace) {
        let metric = self.metric;
        let mut exec = Executor::new(metric, k, opts, clock);
        exec.trace.pages_processed = self.approx.num_blocks();
        exec.trace.runs = 1;
        clock.phase_begin(Phase::Filter);
        let (lower, delta, lost) = self.filter_phase(clock, q, k, filter);
        exec.trace.points_skipped += lost as u64;

        // Candidates that the filter could not prune, by increasing lower
        // bound. Filtered-out and lost points carry a NaN lower bound,
        // which fails `lb <= delta` even when δ is +∞, so they never
        // become candidates.
        clock.phase_begin(Phase::Plan);
        let mut cand: Vec<(f64, u32)> = lower
            .iter()
            .enumerate()
            .filter(|&(_, &lb)| lb <= delta)
            .map(|(i, &lb)| (lb, i as u32))
            .collect();
        cand.sort_unstable_by(|a, b| a.partial_cmp(b).expect("`lb <= delta` admits no NaN"));
        exec.trace.approx_enqueued = cand.len() as u64;
        if let Some(m) = opts.nprobes {
            if (cand.len() as u64) > m {
                exec.skip_candidates(cand.len() as u64 - m);
                cand.truncate(m as usize);
            }
        }

        // Phase 2: refine in lower-bound order until the k-th best exact
        // distance undercuts the next lower bound (or a knob fires).
        clock.phase_begin(Phase::Refine);
        let mut blocks = BlockBuffer::new(self.exact.block_size());
        let mut p = vec![0.0f32; self.dim];
        refine_ascending(&mut exec, clock, &cand, |clock, _, id| {
            self.fetch_exact_into(clock, &mut blocks, id as usize, &mut p)
                .then(|| metric.distance_key(&p, q))
        });
        clock.phase_begin(Phase::TopK);
        exec.into_results(metric)
    }

    /// The range and window search: one scan of the approximation file
    /// classifies each cell box against `region`. A box inside the region
    /// is a hit without fetching its exact coordinates; only boxes
    /// straddling its boundary are refined through the exact file and
    /// kept when their point lies in the region. A range query charges
    /// both cell bounds of every box, a window query one flag fold. The
    /// trace reports the sweep as the k-NN trace does, the straddling
    /// boxes as `approx_enqueued`, their exact reads as `refinements` and
    /// the points lost to an unreadable chunk or entry as
    /// `points_skipped`.
    fn search_region(&self, clock: &mut SimClock, region: &Region) -> (Vec<u32>, QueryTrace) {
        clock.phase_begin(Phase::Filter);
        let mut out = Vec::new();
        let mut to_verify: Vec<u32> = Vec::new();
        let mut keep = |id: usize, m: CellMatch| match m {
            CellMatch::Inside => out.push(id as u32),
            CellMatch::Partial => to_verify.push(id as u32),
            CellMatch::Disjoint => {}
        };
        let lost = match *region {
            Region::Ball { center, key, .. } => {
                let table = self.dist_table(center);
                let mut lo_keys: Vec<f64> = Vec::new();
                let mut hi_keys: Vec<f64> = Vec::new();
                // Two bound evaluations per scanned point, as in the k-NN
                // filter.
                self.sweep(clock, 2, |first, cells| {
                    table.bounds_keys(cells, &mut lo_keys, &mut hi_keys);
                    for (j, (&lo, &hi)) in lo_keys.iter().zip(&hi_keys).enumerate() {
                        let m = match (lo <= key, hi <= key) {
                            (false, _) => CellMatch::Disjoint,
                            (true, true) => CellMatch::Inside,
                            (true, false) => CellMatch::Partial,
                        };
                        keep(first + j, m);
                    }
                })
            }
            Region::Window(window) => {
                let mut wtable = WindowTable::new();
                wtable.build(&self.mbr, self.bits, window, self.n);
                let mut matches: Vec<CellMatch> = Vec::new();
                self.sweep(clock, 1, |first, cells| {
                    wtable.classify_batch(cells, &mut matches);
                    for (j, &m) in matches.iter().enumerate() {
                        keep(first + j, m);
                    }
                })
            }
        };
        clock.phase_begin(Phase::Refine);
        let mut trace = QueryTrace {
            pages_processed: self.approx.num_blocks(),
            runs: 1,
            approx_enqueued: to_verify.len() as u64,
            points_skipped: lost as u64,
            ..QueryTrace::default()
        };
        let mut blocks = BlockBuffer::new(self.exact.block_size());
        let mut p = vec![0.0f32; self.dim];
        for &id in &to_verify {
            if !self.fetch_exact_into(clock, &mut blocks, id as usize, &mut p) {
                trace.points_skipped += 1;
                continue;
            }
            trace.refinements += 1;
            if region.holds(&p) {
                out.push(id);
            }
        }
        (out, trace)
    }
}

impl AccessMethod for VaFile {
    fn name(&self) -> &'static str {
        "vafile"
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

    /// k-NN by the two-phase search, range and window by one classifying
    /// sweep of the approximation file.
    fn run(&self, clock: &mut SimClock, query: &Query) -> IqResult<Answer> {
        answer(
            self,
            clock,
            query,
            |clock, q, k, filter, opts| self.search_knn(clock, q, k, filter, opts),
            |clock, region| self.search_region(clock, region),
        )
    }

    /// The [`predict_cost`] model evaluated against this file's actual
    /// grid: one sequential sweep of the approximation file plus the
    /// expected k-NN refinements (uniformity assumption over the data
    /// MBR), charged as the distinct exact blocks they touch, each a
    /// random access. `refine_factor` and `nprobes` cap
    /// the refinement term; a `time_budget` clips the total.
    fn cost_prediction(&self, k: usize, opts: &QueryOptions) -> Option<CostPrediction> {
        let disk = DiskModel::default();
        let approx_blocks = self.approx.num_blocks();
        let params = RefineParams::uniform(self.metric, self.dim, self.n);
        let mut refine_pages = iq_cost::expected_refinements_knn(
            &params,
            &self.mbr.sides(),
            self.n,
            self.bits,
            k.max(1),
        );
        if opts.refine_factor >= 2 {
            refine_pages = refine_pages.min(k.max(1) as f64 * f64::from(opts.refine_factor));
        }
        if let Some(m) = opts.nprobes {
            refine_pages = refine_pages.min(m as f64);
        }
        let pages = approx_blocks as f64;
        // A query reads each exact block once.
        let exact_blocks = u32::try_from(self.exact.num_blocks()).unwrap_or(u32::MAX);
        let refine_blocks = iq_cost::expected_distinct_blocks(exact_blocks, refine_pages);
        let mut io_seconds =
            disk.scan_cost(approx_blocks) + refine_blocks * (disk.t_seek + disk.t_xfer);
        if let Some(b) = opts.time_budget {
            io_seconds = io_seconds.min(b);
        }
        Some(CostPrediction {
            pages,
            io_seconds,
            filter_pages: pages,
            refine_pages,
        })
    }
}

// Queries take `&self`; a VA-file shared across threads must stay usable.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<VaFile>();
};

#[cfg(test)]
mod model_tests {
    use super::*;
    use iq_storage::CpuModel;

    #[test]
    fn predicted_cost_is_u_shaped() {
        // Too few bits -> refinement storm; too many -> bigger scan. The
        // minimum sits strictly inside the sweep range for a typical
        // configuration.
        let disk = DiskModel::default();
        let cpu = CpuModel::default();
        let sides = vec![1.0f32; 16];
        let costs: Vec<f64> = (1..=16)
            .map(|b| predict_cost(&disk, &cpu, 16, 100_000, 16.0, &sides, b))
            .collect();
        let argmin = costs
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
            .expect("non-empty")
            .0
            + 1;
        assert!(
            costs[0] > costs[argmin - 1],
            "1 bit must be worse than the optimum"
        );
        assert!(
            costs[15] > costs[argmin - 1],
            "16 bits must be worse than the optimum"
        );
        assert!(
            (2..=10).contains(&argmin),
            "optimum at {argmin} bits: {costs:?}"
        );
    }

    #[test]
    fn auto_bits_close_to_swept_best() {
        use iq_storage::{MemDevice, SimClock};
        let ds = iq_data_like(40_000, 12);
        let disk = DiskModel::default();
        let cpu = CpuModel::default();
        let auto = auto_bits(&disk, &cpu, &ds, 12.0);
        // Measure the true best over the paper's sweep.
        let mut best = (u32::MAX, f64::INFINITY);
        let queries: Vec<Vec<f32>> = (0..5).map(|i| vec![0.1 + 0.17 * i as f32; 12]).collect();
        for bits in 2..=8 {
            let mut clock = SimClock::new(disk, cpu);
            let va = VaFile::build(
                &ds,
                Metric::Euclidean,
                bits,
                Box::new(MemDevice::new(disk.block_size)),
                Box::new(MemDevice::new(disk.block_size)),
                &mut clock,
            );
            let mut total = 0.0;
            for q in &queries {
                clock.reset();
                va.run(&mut clock, &Query::knn(q, 1)).expect("valid query");
                total += clock.total_time();
            }
            if total < best.1 {
                best = (bits, total);
            }
        }
        assert!(
            (i64::from(auto) - i64::from(best.0)).unsigned_abs() <= 2,
            "model chose {auto}, swept best {}",
            best.0
        );
    }

    fn iq_data_like(n: usize, dim: usize) -> Dataset {
        // Deterministic pseudo-uniform points without a rand dependency in
        // this test helper.
        let mut ds = Dataset::with_capacity(dim, n);
        let mut x = 0.5f64;
        let mut row = vec![0.0f32; dim];
        for _ in 0..n {
            for r in &mut row {
                x = (x * 997.0 + 0.123_456_7).fract();
                *r = x as f32;
            }
            ds.push(&row);
        }
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_storage::{CpuModel, DiskModel, MemDevice};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn make(n: usize, dim: usize, bits: u32, seed: u64) -> (Dataset, VaFile, SimClock) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        let mut row = vec![0.0f32; dim];
        for _ in 0..n {
            row.fill_with(|| rng.gen());
            ds.push(&row);
        }
        let mut clock = SimClock::new(DiskModel::default(), CpuModel::free());
        let va = VaFile::build(
            &ds,
            Metric::Euclidean,
            bits,
            Box::new(MemDevice::new(8192)),
            Box::new(MemDevice::new(8192)),
            &mut clock,
        );
        clock.reset();
        (ds, va, clock)
    }

    fn brute_knn(ds: &Dataset, q: &[f32], k: usize) -> Vec<(u32, f64)> {
        let m = Metric::Euclidean;
        let mut all: Vec<(u32, f64)> = (0..ds.len())
            .map(|i| (i as u32, m.distance(ds.point(i), q)))
            .collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"));
        all.truncate(k);
        all
    }

    #[test]
    fn nearest_matches_brute_force() {
        for bits in [2u32, 4, 8] {
            let (ds, va, mut clock) = make(600, 6, bits, 1);
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..15 {
                let q: Vec<f32> = (0..6).map(|_| rng.gen()).collect();
                let (id, d) = va
                    .run(&mut clock, &Query::knn(&q, 1))
                    .expect("valid query")
                    .into_ranked()
                    .0[0];
                let expect = brute_knn(&ds, &q, 1)[0];
                assert!((d - expect.1).abs() < 1e-9, "bits={bits}");
                assert_eq!(
                    Metric::Euclidean.distance(ds.point(id as usize), &q),
                    d,
                    "bits={bits}"
                );
            }
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let (ds, va, mut clock) = make(400, 5, 4, 2);
        let q = vec![0.3f32; 5];
        let got = va
            .run(&mut clock, &Query::knn(&q, 7))
            .expect("valid query")
            .into_ranked()
            .0;
        let expect = brute_knn(&ds, &q, 7);
        assert_eq!(got.len(), 7);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g.1 - e.1).abs() < 1e-9);
        }
    }

    #[test]
    fn range_matches_brute_force() {
        let (ds, va, mut clock) = make(500, 4, 5, 3);
        let q = vec![0.5f32; 4];
        let r = 0.4;
        let mut got = va
            .run(
                &mut clock,
                &Query::Range {
                    point: &q,
                    radius: r,
                },
            )
            .expect("valid query")
            .ids();
        got.sort_unstable();
        let mut expect: Vec<u32> = (0..ds.len() as u32)
            .filter(|&i| Metric::Euclidean.distance(ds.point(i as usize), &q) <= r)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn more_bits_fewer_refinements() {
        // With a finer grid the filter prunes better, so phase 2 touches
        // fewer exact points -> fewer seeks.
        let (_, va2, mut c2) = make(3_000, 8, 2, 4);
        let (_, va8, mut c8) = make(3_000, 8, 8, 4);
        let q = vec![0.42f32; 8];
        va2.run(&mut c2, &Query::knn(&q, 1)).expect("valid query");
        va8.run(&mut c8, &Query::knn(&q, 1)).expect("valid query");
        assert!(
            c8.stats().seeks <= c2.stats().seeks,
            "8-bit: {} seeks, 2-bit: {} seeks",
            c8.stats().seeks,
            c2.stats().seeks
        );
    }

    #[test]
    fn approx_file_smaller_than_exact() {
        let (_, va, _) = make(2_000, 8, 4, 5);
        assert!(va.approx_blocks() < va.exact.num_blocks());
        // 4 bits vs 32 bits: the approximation file is ~8x smaller.
        assert!(va.exact.num_blocks() / va.approx_blocks() >= 7);
    }

    #[test]
    fn filter_phase_scans_sequentially() {
        let (_, va, mut clock) = make(5_000, 8, 4, 6);
        va.run(&mut clock, &Query::knn(&[0.5f32; 8], 1))
            .expect("valid query");
        // The approx scan is one seek; phase 2 adds a few random accesses.
        let stats = clock.stats();
        assert!(stats.seeks >= 1);
        assert!(stats.blocks_read >= va.approx_blocks());
    }

    #[test]
    fn window_and_range_sweep_the_approximation_file_once() {
        let (_, va, mut clock) = make(5_000, 8, 4, 6);
        // Far outside the data: every cell box is disjoint, so neither
        // query verifies a point and only the one sweep is paid.
        assert!(va
            .run(
                &mut clock,
                &Query::Range {
                    point: &[10.0f32; 8],
                    radius: 0.1
                }
            )
            .expect("valid query")
            .is_empty());
        assert_eq!(clock.stats().seeks, 1, "range");
        assert_eq!(clock.stats().blocks_read, va.approx_blocks(), "range");
        clock.reset();
        let w = Mbr::from_bounds(vec![5.0; 8], vec![6.0; 8]);
        assert!(va
            .run(&mut clock, &Query::Window(&w))
            .expect("valid query")
            .is_empty());
        assert_eq!(clock.stats().seeks, 1, "window");
        assert_eq!(clock.stats().blocks_read, va.approx_blocks(), "window");
    }

    #[test]
    fn maximum_metric_works() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut ds = Dataset::new(4);
        let mut row = [0.0f32; 4];
        for _ in 0..300 {
            row.fill_with(|| rng.gen());
            ds.push(&row);
        }
        let mut clock = SimClock::default();
        let va = VaFile::build(
            &ds,
            Metric::Maximum,
            4,
            Box::new(MemDevice::new(4096)),
            Box::new(MemDevice::new(4096)),
            &mut clock,
        );
        let q = [0.7f32, 0.1, 0.5, 0.9];
        let (id, d) = va
            .run(&mut clock, &Query::knn(&q, 1))
            .expect("valid query")
            .into_ranked()
            .0[0];
        let expect = (0..ds.len())
            .map(|i| (i as u32, Metric::Maximum.distance(ds.point(i), &q)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
            .expect("non-empty");
        assert_eq!(id, expect.0);
        assert!((d - expect.1).abs() < 1e-9);
    }
}
