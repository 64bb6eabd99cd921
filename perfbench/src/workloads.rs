//! The three workloads: inputs, set-up on real index files, and the
//! timed closed loop (one client; the batch workload fans each request
//! out over two threads inside the library).

use crate::data::{self, SplitMix, K};
use crate::spans::Spans;
use crate::walstore::{TimedWal, WalTotals};
use iq_data::{generate, Workload};
use iq_engine::{knn_batch_opts_traced, AccessMethod, QueryOptions, QueryTrace};
use iq_geometry::{Dataset, Metric};
use iq_obs::PhaseTimes;
use iq_storage::{BlockDevice, FileDevice, FileWal, IoStats, MmapFileDevice, SimClock};
use iq_tree::{IqTree, IqTreeOptions};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Physical block size of every level file (the CLI's default).
pub const BLOCK: usize = 8192;
/// Level files in directory, quantized, exact order.
pub const FILES: [&str; 3] = ["dir.bin", "quant.bin", "exact.bin"];
/// Queries per `knn_batch_opts_traced` request: two micro-batches of
/// `MAX_MICRO_BATCH` = 8, one per thread.
pub const BATCH: usize = 16;
pub const BATCH_THREADS: usize = 2;
/// The approximate knobs of `cad-stream-approx`.
pub const APPROX: QueryOptions = QueryOptions {
    nprobes: Some(4),
    refine_factor: 2,
    ..QueryOptions::EXACT
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    CadBatch,
    CadStreamApprox,
    UniformUpdateMix,
}

impl Kind {
    pub const ALL: [Kind; 3] = [
        Kind::CadBatch,
        Kind::CadStreamApprox,
        Kind::UniformUpdateMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::CadBatch => "cad-batch",
            Kind::CadStreamApprox => "cad-stream-approx",
            Kind::UniformUpdateMix => "uniform-update-mix",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Queries in one timed request.
    pub fn queries_per_request(self) -> usize {
        match self {
            Kind::CadBatch => BATCH,
            _ => 1,
        }
    }

    pub fn options(self) -> QueryOptions {
        match self {
            Kind::CadStreamApprox => APPROX,
            _ => QueryOptions::EXACT,
        }
    }
}

/// Input sizes. The full sizes are the benchmark; `small` is the quick
/// mode its own test runs.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub n: usize,
    pub dim: usize,
    /// Distinct queries, cycled through in order, so that every request
    /// (every round on the update workload) repeats through the run.
    pub pool: usize,
    /// CAD points held back from the database, which the queries are
    /// drawn from: the same for both CAD workloads, so they share one
    /// database and one index.
    pub held: usize,
    /// Queries (rounds on the update workload) over which every count and
    /// simulated time is taken, so those repeat exactly for a seed. A run
    /// goes on past its seconds until the window is complete.
    pub window: usize,
    /// Commits between checkpoints on the update workload.
    pub checkpoint_every: u64,
}

impl Sizes {
    pub fn of(kind: Kind, small: bool) -> Sizes {
        let (n, dim, pool, window) = match (kind, small) {
            (Kind::UniformUpdateMix, false) => (100_000, 8, 256, 512),
            (Kind::UniformUpdateMix, true) => (10_000, 8, 64, 64),
            (Kind::CadStreamApprox, false) => (200_000, 16, 1_024, 1_024),
            (_, false) => (200_000, 16, 2_048, 2_048),
            (_, true) => (20_000, 16, 64, 64),
        };
        Sizes {
            n,
            dim,
            pool,
            held: if small { 256 } else { 8_192 },
            window,
            checkpoint_every: if small { 32 } else { 256 },
        }
    }
}

/// The CAD database is one fixed `cad_like` set, as the paper's CAD data
/// is one fixed collection: its ten random class means would otherwise
/// move the cost of a query by about 15% from seed to seed. `--seed`
/// picks the queries from points held back from that set.
const CAD_DATA_SEED: u64 = 7;
/// Generated points, queries and (for the read-only workloads) their
/// correct answers.
pub struct Inputs {
    pub seed: u64,
    pub metric: Metric,
    pub db: Dataset,
    pub queries: Vec<Vec<f32>>,
    pub truth: Vec<Vec<(u32, f64)>>,
}

impl Inputs {
    pub fn make(kind: Kind, seed: u64, sizes: &Sizes) -> Inputs {
        let metric = Metric::Euclidean;
        let (db, queries): (Dataset, Vec<Vec<f32>>) = match kind {
            Kind::UniformUpdateMix => {
                let all = generate::uniform(sizes.dim, sizes.n + sizes.pool, seed);
                let w = Workload::split(all, sizes.pool);
                (w.db, w.queries.iter().map(<[f32]>::to_vec).collect())
            }
            _ => {
                let held = sizes.held;
                let all = generate::cad_like(sizes.dim, sizes.n + held, CAD_DATA_SEED);
                let w = Workload::split(all, held);
                // A seeded partial shuffle picks `pool` of the held-back points.
                let mut rng = SplitMix::new(seed);
                let mut order: Vec<usize> = (0..held).collect();
                for i in 0..sizes.pool {
                    let j = i + rng.below(held - i);
                    order.swap(i, j);
                }
                let queries = order[..sizes.pool]
                    .iter()
                    .map(|&i| w.queries.point(i).to_vec())
                    .collect();
                (w.db, queries)
            }
        };
        // The update workload changes the point set, so its answers are
        // worked out against a shadow copy as the run goes.
        let truth = match kind {
            Kind::UniformUpdateMix => Vec::new(),
            _ => data::truth_table(metric, &db, &queries, BATCH_THREADS),
        };
        Inputs {
            seed,
            metric,
            db,
            queries,
            truth,
        }
    }
}

/// An index set up on files, ready for the timed loop.
pub struct Index {
    pub tree: IqTree,
    pub dir: PathBuf,
    pub build_s: f64,
    pub open_s: f64,
    /// Filling the buffer pool (`cad-stream-approx` only).
    pub fill_s: f64,
    pub wal: Option<Arc<Mutex<WalTotals>>>,
}

impl Index {
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.open_s + self.fill_s
    }

    /// Total bytes of the three level files.
    pub fn file_bytes(&self) -> u64 {
        FILES
            .iter()
            .map(|f| std::fs::metadata(self.dir.join(f)).map_or(0, |m| m.len()))
            .sum()
    }
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> String {
    format!("{what} {}: {e}", path.display())
}

/// Builds the index into `dir` on `FileDevice`s, drops it, and opens it
/// again the way the workload reads it.
pub fn set_up(
    kind: Kind,
    inputs: &Inputs,
    dir: &Path,
    mut spans: Option<&mut Spans>,
) -> Result<Index, String> {
    std::fs::create_dir_all(dir).map_err(|e| io_err("create", dir, e))?;
    let mut devs = Vec::with_capacity(FILES.len());
    for f in FILES {
        let path = dir.join(f);
        devs.push(FileDevice::create(&path, BLOCK).map_err(|e| io_err("create", &path, e))?);
    }
    let mut devs = devs.into_iter();
    let mut clock = SimClock::default();
    let t0 = Instant::now();
    let tree = IqTree::build(
        &inputs.db,
        inputs.metric,
        IqTreeOptions::default(),
        || Box::new(devs.next().expect("three level files")) as Box<dyn BlockDevice>,
        &mut clock,
    );
    let build_s = t0.elapsed().as_secs_f64();
    if let Some(s) = spans.as_deref_mut() {
        s.record("IqTree::build", 0, t0, clock.total_time(), None);
    }
    drop(tree);

    // `cad-stream-approx` reads through mmap behind a buffer pool that
    // holds every block of the largest level; the others read the files.
    let stream = kind == Kind::CadStreamApprox;
    let cache_blocks = stream.then(|| {
        FILES
            .iter()
            .map(|f| std::fs::metadata(dir.join(f)).map_or(0, |m| m.len()) / BLOCK as u64)
            .max()
            .unwrap_or(0)
            .max(1) as usize
    });
    let open_dev = |f: &str| -> Result<Box<dyn BlockDevice>, String> {
        let path = dir.join(f);
        Ok(if stream {
            Box::new(MmapFileDevice::open(&path, BLOCK).map_err(|e| io_err("mmap", &path, e))?)
        } else {
            Box::new(FileDevice::open(&path, BLOCK).map_err(|e| io_err("open", &path, e))?)
        })
    };
    let opts = IqTreeOptions {
        cache_blocks,
        ..IqTreeOptions::default()
    };
    let mut clock = SimClock::default();
    let t0 = Instant::now();
    let (d, q, e) = (
        open_dev(FILES[0])?,
        open_dev(FILES[1])?,
        open_dev(FILES[2])?,
    );
    let tree = IqTree::open(inputs.db.dim(), inputs.metric, opts, d, q, e, &mut clock)
        .map_err(|e| format!("open index: {e}"))?;
    let open_s = t0.elapsed().as_secs_f64();
    if let Some(s) = spans.as_deref_mut() {
        s.record("IqTree::open", 0, t0, clock.total_time(), None);
    }

    let mut index = Index {
        tree,
        dir: dir.to_path_buf(),
        build_s,
        open_s,
        fill_s: 0.0,
        wal: None,
    };
    match kind {
        Kind::CadStreamApprox => {
            // Fill the pool: every quantized and exact block through a
            // full export, the directory through one query.
            let mut clock = SimClock::default();
            let t0 = Instant::now();
            index
                .tree
                .export_points(&mut clock)
                .map_err(|e| format!("fill buffer pool: {e}"))?;
            index.tree.knn_opts_traced(
                &mut clock,
                &inputs.queries[0],
                K,
                None,
                &QueryOptions::EXACT,
            );
            index.fill_s = t0.elapsed().as_secs_f64();
            if let Some(s) = spans.as_deref_mut() {
                s.record("IqTree::export_points", 0, t0, clock.total_time(), None);
            }
        }
        Kind::UniformUpdateMix => {
            let path = dir.join("wal.bin");
            let file = FileWal::open(&path).map_err(|e| io_err("open", &path, e))?;
            let (store, totals) = TimedWal::new(file);
            let t0 = Instant::now();
            index.tree.attach_wal(Box::new(store));
            index.open_s += t0.elapsed().as_secs_f64();
            if let Some(s) = spans {
                s.record("IqTree::attach_wal", 0, t0, 0.0, None);
            }
            index.wal = Some(totals);
        }
        Kind::CadBatch => {}
    }
    Ok(index)
}

/// Counts and simulated times over the first `Sizes::window` queries (or
/// rounds): for a given seed these repeat exactly.
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub queries: u64,
    pub sim_s: f64,
    pub io_s: f64,
    pub cpu_s: f64,
    pub phases: PhaseTimes,
    pub io: IoStats,
    pub trace: QueryTrace,
    /// Results returned, for the refinement yield.
    pub results: u64,
    pub recall_sum: f64,
    pub commits: u64,
    pub wal: WalTotals,
    /// Orphaned exact blocks found just before each checkpoint.
    pub wasted_blocks: Vec<u64>,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub queries: u64,
    /// Wall seconds inside the timed library calls (answer checks run
    /// outside them).
    pub busy_s: f64,
    /// Per request: 16 queries on `cad-batch`, one query elsewhere.
    pub latencies: Vec<f64>,
    /// `busy_s` as it stood after each request (and, on the update
    /// workload, after the rest of its round), from which each one's busy time is read.
    pub busy_at: Vec<f64>,
    pub queries_per_request: u64,
    /// Distinct requests (rounds on the update workload): request `i`
    /// repeats request `i % distinct`, with the same queries.
    pub distinct: usize,
    /// Per committed insert or delete.
    pub update_lat: Vec<f64>,
    /// Per committed insert or delete, minus its WAL append and sync time.
    pub update_apply: Vec<f64>,
    pub checkpoint_lat: Vec<f64>,
    /// WAL totals over the whole run (timing), per op counts use `window`.
    pub wal: WalTotals,
    pub commits: u64,
    pub window: Window,
}

/// How long a timed loop runs: `seconds`, and then on until the counting
/// window is complete and at least `min_requests` requests (rounds on the
/// update workload) were timed.
#[derive(Clone, Copy, Debug)]
pub struct Until {
    pub seconds: f64,
    pub window: u64,
    pub min_requests: u64,
}

impl Until {
    fn running(&self, start: Instant, window_done: u64, requests: u64) -> bool {
        start.elapsed().as_secs_f64() < self.seconds
            || window_done < self.window
            || requests < self.min_requests
    }
}

/// Runs the workload's closed loop, checking every answer.
pub fn run(
    kind: Kind,
    inputs: &Inputs,
    index: &mut Index,
    sizes: &Sizes,
    until: Until,
    spans: Option<&mut Spans>,
) -> Outcome {
    match kind {
        Kind::UniformUpdateMix => run_update_mix(inputs, index, sizes, until, spans),
        _ => run_reads(kind, inputs, index, until, spans),
    }
}

/// A fresh per-call clock; traced runs also record the library's trace.
fn call_clock(traced: bool) -> SimClock {
    let mut c = SimClock::default();
    if traced {
        c.enable_tracing();
    }
    c
}

fn fold_window(w: &mut Window, clock: &SimClock, trace: &QueryTrace, queries: u64) {
    w.queries += queries;
    w.sim_s += clock.total_time();
    w.io_s += clock.io_time();
    w.cpu_s += clock.cpu_time();
    w.phases.merge(&clock.phase_times());
    w.io.merge(&clock.stats());
    w.trace.merge(trace);
}

fn run_reads(
    kind: Kind,
    inputs: &Inputs,
    index: &Index,
    until: Until,
    mut spans: Option<&mut Spans>,
) -> Outcome {
    let traced = spans.is_some();
    let opts = kind.options();
    let per_req = kind.queries_per_request();
    let mut out = Outcome {
        queries_per_request: per_req as u64,
        distinct: inputs.queries.len() / per_req,
        ..Outcome::default()
    };
    let start = Instant::now();
    let mut req = 0u64;
    while until.running(start, out.window.queries, req) {
        let first = (req as usize * per_req) % inputs.queries.len();
        let qs = &inputs.queries[first..first + per_req];
        let mut clock = call_clock(traced);
        let t0 = Instant::now();
        let (results, agg) = if kind == Kind::CadBatch {
            knn_batch_opts_traced(&index.tree, &mut clock, qs, K, BATCH_THREADS, None, &opts)
        } else {
            let r = index
                .tree
                .knn_opts_traced(&mut clock, &qs[0], K, None, &opts);
            let t = r.1;
            (vec![r], t)
        };
        let lat = t0.elapsed().as_secs_f64();
        out.busy_s += lat;
        out.latencies.push(lat);
        out.queries += per_req as u64;
        if let Some(s) = spans.as_deref_mut() {
            let name = if kind == Kind::CadBatch {
                "knn_batch_opts_traced"
            } else {
                "AccessMethod::knn_opts_traced"
            };
            let tree = clock.take_trace();
            s.record(name, req, t0, clock.total_time(), tree);
        }
        let in_window = out.window.queries < until.window;
        for (i, (res, _)) in results.into_iter().enumerate() {
            let want = &inputs.truth[first + i];
            out.attempted += 1;
            let ok = if opts.is_exact() {
                data::exact_matches(&res, want)
            } else {
                data::approx_is_sound(inputs.metric, &inputs.db, &qs[i], &res)
            };
            if !ok {
                out.failed += 1;
            }
            if in_window {
                out.window.results += res.len() as u64;
                out.window.recall_sum += data::recall(&res, want);
            }
        }
        if in_window {
            fold_window(&mut out.window, &clock, &agg, per_req as u64);
        }
        out.busy_at.push(out.busy_s);
        req += 1;
    }
    out
}

/// The live point set, kept beside the index to check its answers.
struct Shadow {
    dim: usize,
    ids: Vec<u32>,
    coords: Vec<f32>,
}

impl Shadow {
    fn point(&self, j: usize) -> &[f32] {
        &self.coords[j * self.dim..(j + 1) * self.dim]
    }

    fn push(&mut self, id: u32, p: &[f32]) {
        self.ids.push(id);
        self.coords.extend_from_slice(p);
    }

    fn swap_remove(&mut self, j: usize) -> (u32, Vec<f32>) {
        let p = self.point(j).to_vec();
        let last = self.ids.len() - 1;
        let id = self.ids.swap_remove(j);
        if j != last {
            let (head, tail) = self.coords.split_at_mut(last * self.dim);
            head[j * self.dim..(j + 1) * self.dim].copy_from_slice(tail);
        }
        self.coords.truncate(last * self.dim);
        (id, p)
    }

    fn iter(&self) -> impl Iterator<Item = (u32, &[f32])> + '_ {
        self.ids
            .iter()
            .copied()
            .zip(self.coords.chunks_exact(self.dim))
    }
}

fn wal_totals(index: &Index) -> WalTotals {
    index
        .wal
        .as_ref()
        .map(|w| *w.lock().expect("wal totals lock poisoned"))
        .unwrap_or_default()
}

/// One insert or delete of the update workload.
enum Update<'a> {
    Insert(u32, &'a [f32]),
    Delete(u32, &'a [f32]),
}

/// Runs one committed update, timed, and returns whether it succeeded.
fn commit(
    out: &mut Outcome,
    index: &mut Index,
    clock: &mut SimClock,
    spans: Option<&mut Spans>,
    req: u64,
    op: Update,
) -> bool {
    let before = wal_totals(index);
    clock.reset();
    let t0 = Instant::now();
    let (name, ok) = match op {
        Update::Insert(id, p) => ("IqTree::insert", index.tree.insert(clock, id, p).is_ok()),
        Update::Delete(id, p) => (
            "IqTree::delete",
            matches!(index.tree.delete(clock, id, p), Ok(true)),
        ),
    };
    let lat = t0.elapsed().as_secs_f64();
    let wal = wal_totals(index).since(&before);
    if let Some(s) = spans {
        s.record(name, req, t0, clock.total_time(), None);
    }
    out.attempted += 1;
    out.busy_s += lat;
    out.update_lat.push(lat);
    out.update_apply.push(lat - wal.append_s - wal.sync_s);
    out.commits += 1;
    if !ok {
        out.failed += 1;
    }
    ok
}

fn run_update_mix(
    inputs: &Inputs,
    index: &mut Index,
    sizes: &Sizes,
    until: Until,
    mut spans: Option<&mut Spans>,
) -> Outcome {
    let traced = spans.is_some();
    let dim = inputs.db.dim();
    let mut shadow = Shadow {
        dim,
        ids: (0..inputs.db.len() as u32).collect(),
        coords: inputs.db.as_flat().to_vec(),
    };
    let mut rng = SplitMix::new(inputs.seed);
    let mut next_id = inputs.db.len() as u32;
    let mut out = Outcome {
        queries_per_request: 1,
        distinct: inputs.queries.len(),
        ..Outcome::default()
    };
    let window = until.window;
    let mut update_clock = SimClock::default();
    let wal0 = wal_totals(index);
    let (mut round, mut req) = (0u64, 0u64);
    let start = Instant::now();
    while until.running(start, round, round) {
        let in_window = round < window;

        let p: Vec<f32> = (0..dim).map(|_| rng.unit_f32()).collect();
        let op = Update::Insert(next_id, &p);
        if commit(
            &mut out,
            index,
            &mut update_clock,
            spans.as_deref_mut(),
            req,
            op,
        ) {
            shadow.push(next_id, &p);
        }
        next_id += 1;
        req += 1;

        let (did, dp) = shadow.swap_remove(rng.below(shadow.ids.len()));
        let op = Update::Delete(did, &dp);
        if !commit(
            &mut out,
            index,
            &mut update_clock,
            spans.as_deref_mut(),
            req,
            op,
        ) {
            // Keep the shadow equal to what the index still holds.
            shadow.push(did, &dp);
        }
        req += 1;

        let q = &inputs.queries[round as usize % inputs.queries.len()];
        let mut clock = call_clock(traced);
        let t0 = Instant::now();
        let (res, trace) = index
            .tree
            .knn_opts_traced(&mut clock, q, K, None, &QueryOptions::EXACT);
        let lat = t0.elapsed().as_secs_f64();
        out.busy_s += lat;
        out.latencies.push(lat);
        out.queries += 1;
        if let Some(s) = spans.as_deref_mut() {
            let tree = clock.take_trace();
            s.record(
                "AccessMethod::knn_opts_traced",
                req,
                t0,
                clock.total_time(),
                tree,
            );
        }
        req += 1;
        let want = data::brute_knn(inputs.metric, shadow.iter(), q, K);
        out.attempted += 1;
        if in_window {
            out.window.results += res.len() as u64;
            out.window.recall_sum += data::recall(&res, &want);
            fold_window(&mut out.window, &clock, &trace, 1);
        }
        if !data::exact_matches(&res, &want) {
            out.failed += 1;
        }

        // Two commits a round and an even interval: this lands exactly on
        // every multiple of `checkpoint_every`.
        if out.commits.is_multiple_of(sizes.checkpoint_every) {
            if in_window {
                out.window
                    .wasted_blocks
                    .push(index.tree.wasted_exact_blocks());
            }
            update_clock.reset();
            let t0 = Instant::now();
            let ok = index.tree.checkpoint(&mut update_clock).is_ok();
            let lat = t0.elapsed().as_secs_f64();
            if let Some(s) = spans.as_deref_mut() {
                s.record(
                    "IqTree::checkpoint",
                    req,
                    t0,
                    update_clock.total_time(),
                    None,
                );
            }
            req += 1;
            out.attempted += 1;
            out.busy_s += lat;
            out.checkpoint_lat.push(lat);
            if !ok {
                out.failed += 1;
            }
        }
        out.busy_at.push(out.busy_s);
        round += 1;
        if round == window {
            out.window.commits = out.commits;
            out.window.wal = wal_totals(index).since(&wal0);
        }
    }
    out.wal = wal_totals(index).since(&wal0);
    // Fold the log in so the level files hold every committed update.
    let mut clock = SimClock::default();
    if index.tree.checkpoint(&mut clock).is_err() {
        out.attempted += 1;
        out.failed += 1;
    }
    out
}
