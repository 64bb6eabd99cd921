//! End-to-end fault injection: a tree built on clean files is queried
//! through a [`FaultInjectingDevice`], exercising the retry path (transient
//! faults must be invisible in the results) and the corruption-fallback
//! path (a permanently corrupt quantized block degrades to the exact
//! level, not to a panic or a wrong answer, on every query path that reads
//! one).

mod common;

use common::{knn, knn_micro_batch, knn_threaded, knn_threaded_hits, range, total, window};
use iqtree_repro::data::{self, Workload};
use iqtree_repro::engine::{AccessMethod, Filter, Query, QueryOptions, QueryTrace};
use iqtree_repro::geometry::{bulk_partition, Dataset, Mbr, Metric};
use iqtree_repro::quantize::{QuantizedPageCodec, EXACT_BITS};
use iqtree_repro::scan::SeqScan;
use iqtree_repro::storage::{
    plan_fetch, BlockDevice, ChecksummedDevice, DiskModel, FaultConfig, FaultInjectingDevice,
    FileDevice, IqError, IqResult, MemDevice, MemWal, RetryPolicy, Run, SimClock,
};
use iqtree_repro::tree::verify::verify_index;
use iqtree_repro::tree::{IqTree, IqTreeOptions, PageMeta};
use iqtree_repro::vafile::VaFile;
use iqtree_repro::xtree::node::Node;
use iqtree_repro::xtree::XTree;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeSet, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const FILES: [&str; 3] = ["dir.bin", "quant.bin", "exact.bin"];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "iqtree-fault-{tag}-{}-{}",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "-")
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Builds an index over `ds` into three files under `dir` and drops it.
fn build_files(dir: &Path, ds: &Dataset, block: usize) {
    let mut clock = SimClock::default();
    let mut names = FILES.iter();
    let tree = IqTree::build(
        ds,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || {
            let path = dir.join(names.next().expect("three files"));
            Box::new(FileDevice::create(&path, block).expect("create index file"))
                as Box<dyn BlockDevice>
        },
        &mut clock,
    );
    drop(tree);
}

/// Reopens the index files, each wrapped by `wrap` (e.g. in a fault
/// injector).
fn reopen(
    dir: &Path,
    block: usize,
    dim: usize,
    wrap: impl FnMut(usize, Box<dyn BlockDevice>) -> Box<dyn BlockDevice>,
) -> (IqTree, SimClock) {
    reopen_with(dir, block, dim, IqTreeOptions::default(), wrap)
}

/// [`reopen`] with explicit tree options.
fn reopen_with(
    dir: &Path,
    block: usize,
    dim: usize,
    opts: IqTreeOptions,
    mut wrap: impl FnMut(usize, Box<dyn BlockDevice>) -> Box<dyn BlockDevice>,
) -> (IqTree, SimClock) {
    let mut clock = SimClock::default();
    let mut open = |i: usize| {
        let raw = Box::new(FileDevice::open(&dir.join(FILES[i]), block).expect("open index file"))
            as Box<dyn BlockDevice>;
        wrap(i, raw)
    };
    let tree = IqTree::open(
        dim,
        Metric::Euclidean,
        opts,
        open(0),
        open(1),
        open(2),
        &mut clock,
    )
    .expect("index opens");
    clock.reset();
    (tree, clock)
}

/// Seeded transient faults on every level (rate <= 10%): the bounded
/// retries must absorb them all, so a batch k-NN run over a 10k-point
/// index returns exactly the clean run's results — while the I/O
/// statistics prove faults actually fired.
#[test]
fn transient_faults_are_invisible_in_batch_results() {
    let dir = temp_dir("transient");
    let w = Workload::generate(10_000, 32, |n| data::uniform(8, n, 2024));
    build_files(&dir, &w.db, 4096);
    let queries: Vec<Vec<f32>> = w.queries.iter().map(<[f32]>::to_vec).collect();

    let (clean_tree, mut clean_clock) = reopen(&dir, 4096, 8, |_, d| d);
    let clean = knn_threaded_hits(&clean_tree, &mut clean_clock, &queries, 10, 4);

    let cfg = FaultConfig {
        seed: 7,
        read_transient_rate: 0.08, // <= 10%, queries only read
        write_transient_rate: 0.0,
        bit_flip_rate: 0.0,
        torn_write_rate: 0.0,
    };
    let (faulty_tree, mut faulty_clock) = reopen(&dir, 4096, 8, |_, d| {
        Box::new(FaultInjectingDevice::new(d, cfg))
    });
    let faulty = knn_threaded_hits(&faulty_tree, &mut faulty_clock, &queries, 10, 4);

    assert_eq!(clean, faulty, "retries must hide every transient fault");
    let stats = faulty_clock.stats();
    assert!(stats.injected_faults > 0, "no fault ever fired: {stats:?}");
    assert!(stats.io_retries > 0, "no retry ever ran: {stats:?}");
    assert_eq!(clean_clock.stats().injected_faults, 0);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Distances from `q` to every point of `db`, ascending: the k = n
/// brute-force answer.
fn brute_all(db: &Dataset, q: &[f32]) -> Vec<f64> {
    let m = Metric::Euclidean;
    let mut all: Vec<f64> = (0..db.len()).map(|i| m.distance(db.point(i), q)).collect();
    all.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    all
}

/// Asserts a k = n answer is exactly the brute-force one.
fn assert_exact_knn(hits: &[(u32, f64)], db: &Dataset, q: &[f32], what: &str) {
    assert_eq!(hits.len(), db.len(), "{what}: every point returned");
    for (got, want) in hits.iter().zip(brute_all(db, q)) {
        assert!((got.1 - want).abs() < 1e-9, "{what}: {} vs {want}", got.1);
    }
}

/// Asserts a window or range answer that must cover the whole data set.
fn assert_all_ids(mut ids: Vec<u32>, n: usize, what: &str) {
    ids.sort_unstable();
    assert_eq!(ids, (0..n as u32).collect::<Vec<_>>(), "{what}");
}

/// Runs every query path that reads a quantized block over `tree` with
/// nothing prunable (k = n, a whole-space window, an all-covering range)
/// and asserts each answer is exact and each raises `corrupt_blocks`: the
/// single-query walk, its `refine_factor` rerank, the shared batch walk,
/// `window` and `range`.
fn assert_every_path_degrades_exactly(tree: &IqTree, clock: &mut SimClock, w: &Workload) {
    let k = tree.len();
    let dim = tree.dim();
    let rerank = QueryOptions {
        refine_factor: 2,
        ..QueryOptions::EXACT
    };
    for q in w.queries.iter().take(4) {
        for (what, opts) in [("pivot walk", QueryOptions::EXACT), ("rerank", rerank)] {
            let before = clock.stats().corrupt_blocks;
            let (hits, trace) = tree
                .run(
                    clock,
                    &Query::Knn {
                        point: q,
                        k,
                        filter: None,
                        opts,
                    },
                )
                .expect("valid query")
                .into_ranked();
            assert!(trace.quant_fallbacks >= 1, "{what}: no fallback: {trace:?}");
            assert_eq!(trace.pages_lost, 0, "{what}: exact level was available");
            assert_eq!(trace.points_skipped, 0, "{what}");
            assert!(clock.stats().corrupt_blocks > before, "{what}");
            // Degraded — but still exactly right.
            assert_exact_knn(&hits, &w.db, q, what);
        }
    }

    let queries: Vec<Vec<f32>> = w.queries.iter().take(8).map(<[f32]>::to_vec).collect();
    assert_eq!(queries.len(), 8);
    let before = clock.stats().corrupt_blocks;
    let batch = knn_threaded(tree, clock, &queries, k, 2);
    let agg = total(&batch);
    assert!(clock.stats().corrupt_blocks > before, "batch walk");
    assert!(agg.quant_fallbacks >= 1, "batch walk: no fallback: {agg:?}");
    assert_eq!(agg.pages_lost + agg.points_skipped, 0, "batch walk");
    for (q, (hits, _)) in queries.iter().zip(&batch) {
        assert_exact_knn(hits, &w.db, q, "batch walk");
    }

    // Window and range read the one bad page once, from its exact region.
    let whole = Mbr::from_bounds(vec![-1.0; dim], vec![2.0; dim]);
    let center = vec![0.5f32; dim];
    for what in ["window", "range"] {
        let before = clock.stats().corrupt_blocks;
        let (ids, trace) = match what {
            "window" => window(tree, clock, &whole),
            _ => range(tree, clock, &center, 10.0),
        };
        assert_all_ids(ids, k, what);
        assert!(clock.stats().corrupt_blocks > before, "{what}");
        assert_eq!(trace.quant_fallbacks, 1, "{what}: {trace:?}");
        assert_eq!(trace.pages_lost + trace.points_skipped, 0, "{what}");
    }
}

/// One permanently corrupt quantized (level-2) block: full-result k-NN
/// (single, reranked and batched), window and range queries still return
/// the exact answer by falling back to the level-3 exact page, and the
/// corruption shows up in the trace and the I/O statistics.
#[test]
fn corrupt_quant_block_falls_back_to_exact_level() {
    let dir = temp_dir("corrupt");
    let w = Workload::generate(3_000, 8, |n| data::uniform(6, n, 7));
    build_files(&dir, &w.db, 2048);

    let (tree, mut clock) = reopen(&dir, 2048, 6, |i, d| {
        let f = FaultInjectingDevice::new(d, FaultConfig::none(3));
        if i == 1 {
            f.corrupt_block(0); // first quantized page, permanently
        }
        Box::new(f)
    });
    assert_every_path_degrades_exactly(&tree, &mut clock, &w);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Window and range over a page whose quantized block and exact region
/// both stay unreadable: the page is lost, counted once in `pages_lost`,
/// and every other point is still answered.
#[test]
fn region_queries_count_a_page_lost_at_both_levels() {
    let dir = temp_dir("region-lost");
    let w = Workload::generate(3_000, 8, |n| data::uniform(6, n, 7));
    build_files(&dir, &w.db, 2048);
    let (clean, _) = reopen(&dir, 2048, 6, |_, d| d);
    let meta = clean.pages().iter().find(|m| m.quant_block == 0).cloned();
    let meta = meta.expect("a page starts at level-2 block 0");
    assert!(meta.g < EXACT_BITS && meta.exact_blocks > 0);
    let (tree, mut clock) = reopen(&dir, 2048, 6, |i, d| {
        let f = FaultInjectingDevice::new(d, FaultConfig::none(3));
        match i {
            1 => f.corrupt_block(0),
            2 => (meta.exact_start..meta.exact_start + u64::from(meta.exact_blocks))
                .for_each(|b| f.corrupt_block(b)),
            _ => {}
        }
        Box::new(f)
    });
    let whole = Mbr::from_bounds(vec![-1.0; 6], vec![2.0; 6]);
    for (what, (ids, trace)) in [
        ("window", window(&tree, &mut clock, &whole)),
        ("range", range(&tree, &mut clock, &[0.5; 6], 10.0)),
    ] {
        assert_eq!(trace.pages_lost, 1, "{what}: {trace:?}");
        assert_eq!(trace.quant_fallbacks, 0, "{what}");
        assert_eq!(ids.len(), w.db.len() - meta.count as usize, "{what}");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A tree behind a buffer pool (`cache_blocks`) with one permanently
/// corrupt quantized block: the checksum sits below the pool, so the
/// failed read is never cached. Running the same exact k-NN twice gives
/// the brute-force answer both times, the warm second run falls back to
/// the exact level just as often as the cold first one, and it still
/// misses the pool (the corrupt block is read from the device again)
/// while everything else is served from memory.
#[test]
fn cached_tree_never_serves_a_corrupt_block() {
    let dir = temp_dir("cached-corrupt");
    let w = Workload::generate(3_000, 8, |n| data::uniform(6, n, 7));
    build_files(&dir, &w.db, 2048);
    let opts = IqTreeOptions {
        cache_blocks: Some(1_024),
        ..Default::default()
    };
    let (tree, mut clock) = reopen_with(&dir, 2048, 6, opts, |i, d| {
        let f = FaultInjectingDevice::new(d, FaultConfig::none(3));
        if i == 1 {
            f.corrupt_block(0); // first quantized page, permanently
        }
        Box::new(f)
    });
    let q = w.queries.point(0);
    let k = tree.len();
    let mut fallbacks = Vec::new();
    for run in ["cold", "warm"] {
        clock.reset();
        let (hits, trace) = knn(&tree, &mut clock, q, k);
        assert_exact_knn(&hits, &w.db, q, run);
        assert!(trace.quant_fallbacks >= 1, "{run}: no fallback: {trace:?}");
        assert!(
            clock.stats().cache_misses >= 1,
            "{run}: corrupt block cached"
        );
        fallbacks.push(trace.quant_fallbacks);
    }
    assert_eq!(
        fallbacks[0], fallbacks[1],
        "cold and warm runs degrade alike"
    );
    assert!(clock.stats().cache_hits > 0, "the pool served the warm run");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A quantized block whose checksum is valid but whose payload does not
/// decode (corruption that slipped past the checksum layer): every query
/// path must count it in `corrupt_blocks` and answer from the exact level.
#[test]
fn undecodable_quant_payload_is_counted_on_every_path() {
    let dir = temp_dir("undecodable");
    let w = Workload::generate(3_000, 8, |n| data::uniform(6, n, 7));
    build_files(&dir, &w.db, 2048);
    {
        // Forge the page header *through* the checksum layer, so the block
        // CRC stays valid: resolution 0 is outside 1..=32.
        let raw = FileDevice::open(&dir.join(FILES[1]), 2048).expect("open quantized file");
        let mut quant = ChecksummedDevice::new(Box::new(raw) as Box<dyn BlockDevice>);
        let mut clock = SimClock::default();
        let mut bytes = quant.read_to_vec(&mut clock, 0, 1).expect("readable");
        bytes[2] = 0;
        quant.write_blocks(&mut clock, 0, &bytes).expect("writable");
    }
    let (tree, mut clock) = reopen(&dir, 2048, 6, |_, d| d);
    assert_every_path_degrades_exactly(&tree, &mut clock, &w);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// One permanently corrupt exact (level-3) block: the refinements that
/// land in it fail, and every k-NN path reports them the same way —
/// `refinements` counts exact points read and compared, `points_skipped`
/// the entries still unreadable after retries. With k = n nothing is
/// prunable, so the two add up to the points on quantized pages and every
/// readable point is returned.
#[test]
fn corrupt_exact_block_is_counted_alike_on_every_knn_path() {
    let dir = temp_dir("corrupt-exact");
    let w = Workload::generate(3_000, 8, |n| data::uniform(6, n, 7));
    build_files(&dir, &w.db, 2048);
    let (tree, mut clock) = reopen(&dir, 2048, 6, |i, d| {
        let f = FaultInjectingDevice::new(d, FaultConfig::none(5));
        if i == 2 {
            f.corrupt_block(0); // first exact block, permanently
        }
        Box::new(f)
    });
    let n = tree.len() as u64;
    let quantized: u64 = tree
        .pages()
        .iter()
        .filter(|p| p.g < 32)
        .map(|p| u64::from(p.count))
        .sum();
    assert!(quantized > 0, "expected quantized pages");
    let check = |hits: &[(u32, f64)], trace: &QueryTrace, what: &str| {
        assert!(trace.points_skipped > 0, "{what}: corruption never hit");
        assert_eq!(
            hits.len() as u64 + trace.points_skipped,
            n,
            "{what}: {trace:?}"
        );
        assert_eq!(
            trace.refinements + trace.points_skipped,
            quantized,
            "{what}: {trace:?}"
        );
    };
    let rerank = QueryOptions {
        refine_factor: 2,
        ..QueryOptions::EXACT
    };
    let k = n as usize;
    for q in w.queries.iter().take(2) {
        let (hits, trace) = knn(&tree, &mut clock, q, k);
        check(&hits, &trace, "pivot walk");
        let (hits, trace) = tree
            .run(
                &mut clock,
                &Query::Knn {
                    point: q,
                    k,
                    filter: None,
                    opts: rerank,
                },
            )
            .expect("valid query")
            .into_ranked();
        check(&hits, &trace, "rerank");
    }
    let queries: Vec<Vec<f32>> = w.queries.iter().take(8).map(<[f32]>::to_vec).collect();
    let batch = knn_threaded(&tree, &mut clock, &queries, k, 2);
    for (hits, trace) in &batch {
        check(hits, trace, "batch walk");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The raw reads of one device, as `(start, blocks)`, plus an optional
/// block whose next `fail_left` reads fail with a transient error.
#[derive(Default)]
struct ReadLog {
    reads: Vec<(u64, u64)>,
    fail_block: Option<u64>,
    fail_left: u32,
}

impl ReadLog {
    /// How many logged reads covered `block`.
    fn reads_of(&self, block: u64) -> usize {
        self.reads
            .iter()
            .filter(|&&(start, n)| (start..start + n).contains(&block))
            .count()
    }
}

/// A device that records every read into a shared [`ReadLog`] and fails
/// the reads its log arms.
struct LoggedDevice {
    inner: Box<dyn BlockDevice>,
    log: Arc<Mutex<ReadLog>>,
}

impl BlockDevice for LoggedDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_blocks(&self, clock: &mut SimClock, start: u64, buf: &mut [u8]) -> IqResult<()> {
        {
            let mut log = self.log.lock().expect("log lock");
            let n = (buf.len() / self.block_size()) as u64;
            log.reads.push((start, n));
            if let Some(block) = log.fail_block {
                if log.fail_left > 0 && (start..start + n).contains(&block) {
                    log.fail_left -= 1;
                    return Err(IqError::Io {
                        op: "read",
                        block,
                        transient: true,
                        detail: "flaky".into(),
                    });
                }
            }
        }
        self.inner.read_blocks(clock, start, buf)
    }

    fn append(&mut self, clock: &mut SimClock, data: &[u8]) -> IqResult<u64> {
        self.inner.append(clock, data)
    }

    fn write_blocks(&mut self, clock: &mut SimClock, start: u64, data: &[u8]) -> IqResult<()> {
        self.inner.write_blocks(clock, start, data)
    }

    fn device_id(&self) -> u64 {
        self.inner.device_id()
    }
}

/// Reopens the index files with file `file` (1 the quantized file, 2 the
/// exact file) behind a [`LoggedDevice`] and returns the tree with that
/// file's log.
fn reopen_logged(
    dir: &Path,
    block: usize,
    dim: usize,
    file: usize,
) -> (IqTree, SimClock, Arc<Mutex<ReadLog>>) {
    let log = Arc::new(Mutex::new(ReadLog::default()));
    let (tree, clock) = reopen(dir, block, dim, |i, d| {
        if i == file {
            Box::new(LoggedDevice {
                inner: d,
                log: Arc::clone(&log),
            })
        } else {
            d
        }
    });
    (tree, clock, log)
}

/// A lone query reads each exact block once: refinements that land in a
/// block the query has already read are served from its buffer. Over a
/// few exact queries, refinements outnumber the exact blocks read, no
/// block is read twice by one query, and every answer is the scan's.
#[test]
fn a_lone_query_reads_each_exact_block_once() {
    let dir = temp_dir("exact-once");
    let w = Workload::generate(3_000, 8, |n| data::uniform(6, n, 7));
    build_files(&dir, &w.db, 2048);
    let (tree, mut clock, log) = reopen_logged(&dir, 2048, 6, 2);
    let scan = SeqScan::build(
        &w.db,
        Metric::Euclidean,
        Box::new(MemDevice::new(2048)),
        &mut SimClock::default(),
    );
    let (mut refinements, mut reads) = (0, 0);
    for q in w.queries.iter() {
        log.lock().expect("log lock").reads.clear();
        let (hits, trace) = knn(&tree, &mut clock, q, 40);
        let want = knn(&scan, &mut SimClock::default(), q, 40).0;
        assert_eq!(hits, want);
        let log = log.lock().expect("log lock");
        let blocks = log.reads.iter().map(|&(start, _)| start);
        for b in blocks.clone() {
            assert_eq!(log.reads_of(b), 1, "exact block {b} read twice");
        }
        assert_eq!(trace.points_skipped, 0);
        refinements += trace.refinements;
        reads += log.reads.len() as u64;
    }
    assert!(reads > 0, "no refinement read the exact file");
    assert!(
        refinements > reads,
        "no two refinements shared a block: {refinements} refinements, {reads} reads"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Asserts that each logged read of one block reads a block no earlier
/// read covered. A block may be read again only inside a longer run:
/// Section 2.1 over-reads a gap of pages already taken when that is
/// cheaper than a seek. A page is never read again for its own sake.
fn assert_single_reads_are_new(log: &ReadLog, what: &str) {
    for (i, &(start, n)) in log.reads.iter().enumerate() {
        let again = log.reads[..i]
            .iter()
            .any(|&(s, m)| (s..s + m).contains(&start));
        assert!(
            n > 1 || !again,
            "{what}: block {start} read again on its own: {:?}",
            log.reads
        );
    }
}

/// A lone query reads a page's level-2 block on its own at most once, and
/// so does one 8-query micro-batch: planned runs, known-set fetches and
/// single-block reads land in one level-2 buffer, and a page whose block
/// it holds is decoded from it. A block is read again only inside a
/// longer run. Every read counts in the traces' runs, and the batch's
/// known-set fetch reads at least one run longer than a block.
#[test]
fn level_two_blocks_are_read_once() {
    let dir = temp_dir("quant-once");
    let w = Workload::generate(3_000, 8, |n| data::uniform(6, n, 7));
    build_files(&dir, &w.db, 2048);
    let (tree, mut clock, log) = reopen_logged(&dir, 2048, 6, 1);
    for q in w.queries.iter() {
        log.lock().expect("log lock").reads.clear();
        let (_, trace) = knn(&tree, &mut clock, q, 40);
        let log = log.lock().expect("log lock");
        assert_eq!(log.reads.len() as u64, trace.runs);
        assert_single_reads_are_new(&log, "lone query");
    }
    log.lock().expect("log lock").reads.clear();
    let queries: Vec<&[f32]> = w.queries.iter().collect();
    assert_eq!(queries.len(), 8);
    let batch = knn_micro_batch(&tree, &mut clock, &queries, 40, None, QueryOptions::EXACT);
    {
        let log = log.lock().expect("log lock");
        let runs: u64 = batch.iter().map(|(_, trace)| trace.runs).sum();
        assert_eq!(log.reads.len() as u64, runs);
        assert_single_reads_are_new(&log, "micro-batch");
        assert!(
            log.reads.iter().any(|&(_, n)| n > 1),
            "the micro-batch fetched no run: {:?}",
            log.reads
        );
    }
    for (q, (hits, _)) in queries.iter().zip(&batch) {
        assert_eq!(hits, &knn(&tree, &mut SimClock::default(), q, 40).0);
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A batch fetch leaves out only a run that stays unreadable. A window
/// query whose Figure 1 plan has several runs meets a level-2 (X-tree:
/// data) block of its second run that never reads: every other run is
/// still read once, in one read of its full length, and only the pages of
/// the failed run are read again one by one. The answer is what a failed
/// page leaves: complete on the IQ-tree, which answers the page from its
/// exact region, and short of the page's points on the X-tree.
#[test]
fn a_failed_fetch_run_leaves_the_other_runs() {
    let w = Workload::generate(6_000, 32, |n| data::uniform(6, n, 29));
    let disk = DiskModel::default();
    // The first window (a cube around a query point) whose pages, in
    // disk order, make a plan of at least two runs.
    let pick = |mbrs: &[(u64, Mbr)]| {
        w.queries
            .iter()
            .flat_map(|q| [0.02f32, 0.05, 0.1].map(|h| (q, h)))
            .find_map(|(q, h)| {
                let lo: Vec<f32> = q.iter().map(|x| x - h).collect();
                let hi: Vec<f32> = q.iter().map(|x| x + h).collect();
                let window = Mbr::from_bounds(lo, hi);
                let mut positions: Vec<u64> = mbrs
                    .iter()
                    .filter(|(_, mbr)| mbr.intersects(&window))
                    .map(|&(b, _)| b)
                    .collect();
                positions.sort_unstable();
                let runs = plan_fetch(&positions, &disk);
                (runs.len() >= 2).then_some((window, runs))
            })
            .expect("a window with a plan of two runs")
    };
    // Runs the window clean and with the second run's first block
    // unreadable; returns both answers, sorted, and the failed block.
    let check = |log: &Arc<Mutex<ReadLog>>, runs: &[Run], query: &mut dyn FnMut() -> Vec<u32>| {
        let sorted = |mut ids: Vec<u32>| {
            ids.sort_unstable();
            ids
        };
        log.lock().expect("log lock").reads.clear();
        let clean = sorted(query());
        let want: Vec<(u64, u64)> = runs.iter().map(|r| (r.start, r.len)).collect();
        assert_eq!(log.lock().expect("log lock").reads, want, "clean plan");
        let bad = runs[1].start;
        {
            let mut log = log.lock().expect("log lock");
            log.reads.clear();
            log.fail_block = Some(bad);
            log.fail_left = u32::MAX;
        }
        let hits = sorted(query());
        let mut log = log.lock().expect("log lock");
        for run in runs.iter().filter(|r| r.start != bad) {
            let whole = log.reads.iter().filter(|&&r| r == (run.start, run.len));
            assert_eq!(whole.count(), 1, "run {run:?}: {:?}", log.reads);
            for b in run.start..run.start + run.len {
                assert_eq!(log.reads_of(b), 1, "block {b} read twice: {:?}", log.reads);
            }
        }
        assert!(log.reads_of(bad) > 1, "the failed run was not retried");
        log.fail_block = None;
        (clean, hits, bad)
    };

    // The IQ-tree, with its quantized file logged.
    let dir = temp_dir("partial-fetch");
    build_files(&dir, &w.db, 2048);
    let (tree, mut clock, log) = reopen_logged(&dir, 2048, 6, 1);
    let mbrs: Vec<(u64, Mbr)> = tree
        .pages()
        .iter()
        .filter(|p| p.count > 0)
        .map(|p| (p.quant_block, p.mbr.clone()))
        .collect();
    let (window, runs) = pick(&mbrs);
    let (clean, hits, _) = check(&log, &runs, &mut || {
        tree.run(&mut clock, &Query::Window(&window))
            .expect("valid query")
            .ids()
    });
    assert_eq!(hits, clean, "iqtree");
    std::fs::remove_dir_all(&dir).expect("cleanup");

    // The X-tree, with its data file logged: data block i holds bulk-load
    // partition i.
    let log = Arc::new(Mutex::new(ReadLog::default()));
    let mut clock = SimClock::default();
    let xt = XTree::build(
        &w.db,
        Metric::Euclidean,
        Box::new(MemDevice::new(2048)),
        Box::new(LoggedDevice {
            inner: Box::new(MemDevice::new(2048)),
            log: Arc::clone(&log),
        }),
        &mut clock,
    );
    let parts = bulk_partition(
        &w.db,
        QuantizedPageCodec::new(w.db.dim(), 2048).capacity(EXACT_BITS),
    );
    let mbrs: Vec<(u64, Mbr)> = parts
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u64, p.mbr.clone()))
        .collect();
    let (window, runs) = pick(&mbrs);
    let (clean, hits, bad) = check(&log, &runs, &mut || {
        xt.run(&mut clock, &Query::Window(&window))
            .expect("valid query")
            .ids()
    });
    let lost: HashSet<u32> = parts[bad as usize].ids.iter().copied().collect();
    let kept: Vec<u32> = clean.into_iter().filter(|id| !lost.contains(id)).collect();
    assert_eq!(hits, kept, "xtree");
}

/// A k-NN micro-batch's known-set fetch leaves out only a run that stays
/// unreadable. A batch of one query and its repeat loads the query's page
/// set with one Figure 1 fetch once U is finite. Here the level-2 block of
/// a page the query refines, read only by one of the fetch's runs of two
/// or more blocks, never reads. Every read of the clean batch outside that
/// run is made once, as it was, and every read the fault adds lies inside
/// the failed run: its pages take single-block reads, and the repeat,
/// which finds every other block in the buffer, tries only those. Each
/// query fetches once, so each tries the failed block once in a fetch and
/// once on its own. The failed page is answered from its exact region, so
/// both answers are exact.
#[test]
fn a_failed_known_set_run_leaves_the_other_runs() {
    let dir = temp_dir("known-set");
    let w = Workload::generate(20_000, 8, |n| data::cad_like(16, n, 7));
    build_files(&dir, &w.db, 2048);
    let k = 10;
    let (quant, exact) = (
        Arc::new(Mutex::new(ReadLog::default())),
        Arc::new(Mutex::new(ReadLog::default())),
    );
    let (tree, mut clock) = reopen(&dir, 2048, 16, |i, d| {
        let log = match i {
            1 => &quant,
            2 => &exact,
            _ => return d,
        };
        Box::new(LoggedDevice {
            inner: d,
            log: Arc::clone(log),
        })
    });
    let mut batch =
        |q: &[f32]| knn_micro_batch(&tree, &mut clock, &[q, q], k, None, QueryOptions::EXACT);
    // The first query whose clean batch reads two runs of two or more
    // blocks, one of them the only read of a page the query refines: its
    // level-2 reads, that run, and the page's block.
    let (q, clean, (start, len), bad) = w
        .queries
        .iter()
        .find_map(|q| {
            quant.lock().expect("log lock").reads.clear();
            exact.lock().expect("log lock").reads.clear();
            batch(q);
            let exact = exact.lock().expect("log lock");
            let refined: Vec<u64> = tree
                .pages()
                .iter()
                .filter(|p| {
                    let region = p.exact_start..p.exact_start + u64::from(p.exact_blocks);
                    region.clone().any(|b| exact.reads_of(b) > 0)
                })
                .map(|p| p.quant_block)
                .collect();
            let clean = quant.lock().expect("log lock").reads.clone();
            if clean.iter().filter(|&&(_, n)| n > 1).count() < 2 {
                return None;
            }
            let read_once = |b: u64| {
                clean
                    .iter()
                    .filter(|&&(s, n)| (s..s + n).contains(&b))
                    .count()
                    == 1
            };
            let (run, bad) = clean.iter().filter(|&&(_, n)| n > 1).find_map(|&(s, n)| {
                let bad = refined
                    .iter()
                    .find(|&&b| (s..s + n).contains(&b) && read_once(b))?;
                Some(((s, n), *bad))
            })?;
            Some((q, clean, run, bad))
        })
        .expect("a query whose fetch reads a run holding a page it refines");
    {
        let mut log = quant.lock().expect("log lock");
        log.reads.clear();
        log.fail_block = Some(bad);
        log.fail_left = u32::MAX;
    }
    let want = brute_all(&w.db, q);
    for (i, (hits, trace)) in batch(q).iter().enumerate() {
        assert_eq!(hits.len(), k);
        for (got, want) in hits.iter().zip(&want) {
            assert!((got.1 - want).abs() < 1e-9, "query {i}: {hits:?}");
        }
        assert!(trace.quant_fallbacks >= 1, "query {i}: {trace:?}");
    }
    let log = quant.lock().expect("log lock");
    let outside = |reads: &[(u64, u64)]| -> Vec<(u64, u64)> {
        let inside = |&&(s, n): &&(u64, u64)| s >= start && s + n <= start + len;
        reads.iter().filter(|r| !inside(r)).copied().collect()
    };
    assert_eq!(
        outside(&log.reads),
        outside(&clean),
        "failed run ({start}, {len}) at block {bad}: {:?}",
        log.reads
    );
    // Each query tries the failed block once in its fetch and once on its
    // own, each time with every retry: no query fetches it twice.
    let attempts = RetryPolicy::default().max_attempts as usize;
    assert_eq!(
        log.reads_of(bad),
        4 * attempts,
        "block {bad}: {:?}",
        log.reads
    );
    drop(log);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// An exact block whose read fails after every retry is not kept: the
/// next refinement that needs it reads it again. In the pivot walk only
/// the refinement that met the failure is skipped — the block's other
/// points are all answered — and in the `refine_factor` rerank the failed
/// planned sweep falls back to single reads, so the answer equals the
/// fault-free one.
#[test]
fn a_failed_exact_read_is_retried_by_the_next_refinement() {
    let dir = temp_dir("exact-retry");
    let w = Workload::generate(3_000, 8, |n| data::uniform(6, n, 7));
    build_files(&dir, &w.db, 2048);
    let (tree, mut clock, log) = reopen_logged(&dir, 2048, 6, 2);
    let attempts = RetryPolicy::default().max_attempts;
    let q = w.queries.point(0);
    let rerank = QueryOptions {
        refine_factor: 2,
        ..QueryOptions::EXACT
    };
    for (k, opts) in [(tree.len(), QueryOptions::EXACT), (10, rerank)] {
        // A fault-free run, and the first exact block it read.
        log.lock().expect("log lock").reads.clear();
        let (clean, clean_trace) = tree
            .run(
                &mut clock,
                &Query::Knn {
                    point: q,
                    k,
                    filter: None,
                    opts,
                },
            )
            .expect("valid query")
            .into_ranked();
        let block = log.lock().expect("log lock").reads[0].0;
        // The same query with that block's first reads failing.
        {
            let mut log = log.lock().expect("log lock");
            log.reads.clear();
            log.fail_block = Some(block);
            log.fail_left = attempts;
        }
        let (hits, trace) = tree
            .run(
                &mut clock,
                &Query::Knn {
                    point: q,
                    k,
                    filter: None,
                    opts,
                },
            )
            .expect("valid query")
            .into_ranked();
        let log = log.lock().expect("log lock");
        assert_eq!(log.fail_left, 0, "k={k}: the failure never fired");
        assert!(
            log.reads_of(block) > attempts as usize,
            "k={k}: the block was never read again"
        );
        if opts.refine_factor >= 2 {
            assert_eq!(hits, clean, "rerank answer changed");
            assert_eq!(trace.points_skipped, 0);
            assert_eq!(trace.refinements, clean_trace.refinements);
        } else {
            // One refinement met the failure; every other point, the rest
            // of the failed block's included, is answered exactly.
            assert_eq!(trace.points_skipped, 1);
            assert_eq!(trace.refinements + 1, clean_trace.refinements);
            assert_eq!(hits.len() + 1, clean.len());
            let kept: Vec<_> = clean.iter().filter(|h| hits.contains(h)).collect();
            assert_eq!(kept.len(), hits.len(), "an answer changed");
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The priority list's spill path under faults. A lone query sets aside
/// the approximations whose MINDIST exceeds U, the k-th smallest cell
/// MAXDIST seen, as they cannot pop once the approximations behind U are
/// refined. Here every exact block a clean query refined stays
/// unreadable, so those refinements fail, the pruning bound never reaches
/// U, and the spill sentinel must return the set-aside entries to the
/// list. The answer is still the exact top-k over the points that can be
/// read, every lost point nearer than its k-th answer is counted, alone
/// and under a pushed-down filter. Under `refine_factor 2` a popped point
/// settles at its lower bound without a read, so nothing is merged; the
/// rerank skips and counts the lost candidates and answers the rest
/// exactly.
#[test]
fn spilled_approximations_return_when_refinements_fail() {
    let dir = temp_dir("spill");
    let w = Workload::generate(6_000, 4, |n| data::cad_like(8, n, 7));
    build_files(&dir, &w.db, 2048);
    let n = w.db.len();
    let k = 10;
    let even = Filter::from_fn(n, |id| id % 2 == 0);
    let rerank = QueryOptions {
        refine_factor: 2,
        ..QueryOptions::EXACT
    };
    let dist = |id: u32, q: &[f32]| Metric::Euclidean.distance(w.db.point(id as usize), q);
    for filter in [None, Some(&even)] {
        let matches = |id: u32| filter.is_none_or(|f| f.matches(id));
        for q in w.queries.iter() {
            // The exact blocks the clean query refines.
            let (tree, mut clock, log) = reopen_logged(&dir, 2048, 8, 2);
            log.lock().expect("log lock").reads.clear();
            let (clean, _) = tree
                .run(
                    &mut clock,
                    &Query::Knn {
                        point: q,
                        k,
                        filter,
                        opts: QueryOptions::EXACT,
                    },
                )
                .expect("valid query")
                .into_ranked();
            let blocks: BTreeSet<u64> = log
                .lock()
                .expect("log lock")
                .reads
                .iter()
                .flat_map(|&(start, n)| start..start + n)
                .collect();
            let (tree, mut clock) = reopen(&dir, 2048, 8, |i, d| {
                let f = FaultInjectingDevice::new(d, FaultConfig::none(5));
                if i == 2 {
                    for &b in &blocks {
                        f.corrupt_block(b);
                    }
                }
                Box::new(f)
            });
            // The points that can still be read: a k = n query answers
            // every one of them.
            let (all, _) = knn(&tree, &mut clock, q, n);
            let readable: HashSet<u32> = all.iter().map(|h| h.0).collect();
            assert!(clean.iter().all(|h| !readable.contains(&h.0)));
            let mut want: Vec<(u32, f64)> = readable
                .iter()
                .filter(|&&id| matches(id))
                .map(|&id| (id, dist(id, q)))
                .collect();
            want.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN").then(a.0.cmp(&b.0)));
            want.truncate(k);
            let kth = want.last().expect("k answers").1;
            let lost_near = (0..n as u32)
                .filter(|&id| matches(id) && !readable.contains(&id) && dist(id, q) < kth)
                .count() as u64;
            assert!(lost_near >= k as u64);

            clock.enable_tracing();
            let (hits, trace) = tree
                .run(
                    &mut clock,
                    &Query::Knn {
                        point: q,
                        k,
                        filter,
                        opts: QueryOptions::EXACT,
                    },
                )
                .expect("valid query")
                .into_ranked();
            let spans = clock.take_trace().expect("tracing was on");
            assert_eq!(hits.len(), k);
            for (got, want) in hits.iter().zip(&want) {
                assert_eq!(got.0, want.0, "{hits:?} vs {want:?}");
                assert!((got.1 - want.1).abs() < 1e-9);
            }
            assert!(
                trace.points_skipped >= lost_near,
                "{lost_near} lost points nearer than the answer: {trace:?}"
            );
            assert!(
                spans.root.counter_total("filter.merged") > 0,
                "the spill list never returned: {trace:?}"
            );

            clock.enable_tracing();
            let (hits, trace) = tree
                .run(
                    &mut clock,
                    &Query::Knn {
                        point: q,
                        k,
                        filter,
                        opts: rerank,
                    },
                )
                .expect("valid query")
                .into_ranked();
            let spans = clock.take_trace().expect("tracing was on");
            assert!(trace.points_skipped > 0, "the rerank met no lost point");
            assert!(hits.len() as u64 + trace.points_skipped >= k as u64);
            for &(id, d) in &hits {
                assert!(readable.contains(&id) && matches(id), "{id}");
                assert!((d - dist(id, q)).abs() < 1e-9);
            }
            assert_eq!(spans.root.counter_total("filter.merged"), 0);
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Held pages under faults. A lone query on uniform data holds the run
/// members whose MINDIST exceeds U undecoded, as their approximations
/// cannot pop once the approximations behind U are refined. Here the
/// exact regions of the nearest quarter of the pages (which hold the clean
/// top-k) stay unreadable, so those refinements fail, the pruning bound
/// never reaches U, and the held pages must pop and be decoded from their
/// kept run: the readable answers lie in them. The answer is still the
/// exact top-k over the points that can be read, alone and under a
/// pushed-down filter, and no page is counted twice. Under
/// `refine_factor 2` a popped point settles at its lower bound without a
/// read, so nothing held pops. A held page that pops reads no level-2
/// block again.
#[test]
fn held_pages_decode_when_refinements_fail() {
    let dir = temp_dir("held");
    let w = Workload::generate(20_000, 3, |n| data::uniform(8, n, 17));
    build_files(&dir, &w.db, 2048);
    let n = w.db.len();
    let k = 10;
    let even = Filter::from_fn(n, |id| id % 2 == 0);
    let rerank = QueryOptions {
        refine_factor: 2,
        ..QueryOptions::EXACT
    };
    let dist = |id: u32, q: &[f32]| Metric::Euclidean.distance(w.db.point(id as usize), q);
    for filter in [None, Some(&even)] {
        let matches = |id: u32| filter.is_none_or(|f| f.matches(id));
        for q in w.queries.iter() {
            let (tree, mut clock) = reopen(&dir, 2048, 8, |_, d| d);
            clock.enable_tracing();
            let (clean, _) = tree
                .run(
                    &mut clock,
                    &Query::Knn {
                        point: q,
                        k,
                        filter,
                        opts: QueryOptions::EXACT,
                    },
                )
                .expect("valid query")
                .into_ranked();
            let spans = clock.take_trace().expect("tracing was on");
            assert!(spans.root.counter_total("filter.pages_held") > 0);
            let mut near: Vec<_> = tree.pages().iter().filter(|p| p.count > 0).collect();
            let live = near.len() as u64;
            near.sort_by(|a, b| {
                let key = |p: &PageMeta| Metric::Euclidean.mindist_key(q, &p.mbr);
                key(a).partial_cmp(&key(b)).expect("no NaN")
            });
            near.truncate(near.len() / 4);
            let blocks: Vec<u64> = near
                .iter()
                .flat_map(|p| p.exact_start..p.exact_start + u64::from(p.exact_blocks))
                .collect();
            let quant_log = Arc::new(Mutex::new(ReadLog::default()));
            let (tree, mut clock) = reopen(&dir, 2048, 8, |i, d| {
                let f = FaultInjectingDevice::new(d, FaultConfig::none(5));
                if i == 2 {
                    for &b in &blocks {
                        f.corrupt_block(b);
                    }
                }
                if i == 1 {
                    return Box::new(LoggedDevice {
                        inner: Box::new(f),
                        log: Arc::clone(&quant_log),
                    });
                }
                Box::new(f)
            });
            // The points that can still be read: a k = n query answers
            // every one of them.
            let (all, _) = knn(&tree, &mut clock, q, n);
            let readable: HashSet<u32> = all.iter().map(|h| h.0).collect();
            assert!(clean.iter().all(|h| !readable.contains(&h.0)));
            let mut want: Vec<(u32, f64)> = readable
                .iter()
                .filter(|&&id| matches(id))
                .map(|&id| (id, dist(id, q)))
                .collect();
            want.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN").then(a.0.cmp(&b.0)));
            want.truncate(k);

            quant_log.lock().expect("log lock").reads.clear();
            clock.enable_tracing();
            let (hits, trace) = tree
                .run(
                    &mut clock,
                    &Query::Knn {
                        point: q,
                        k,
                        filter,
                        opts: QueryOptions::EXACT,
                    },
                )
                .expect("valid query")
                .into_ranked();
            let spans = clock.take_trace().expect("tracing was on");
            assert_eq!(hits.len(), k);
            for (got, want) in hits.iter().zip(&want) {
                assert_eq!(got.0, want.0, "{hits:?} vs {want:?}");
                assert!((got.1 - want.1).abs() < 1e-9);
            }
            let count = |key: &str| spans.root.counter_total(key);
            let unheld = count("filter.pages_unheld");
            assert!(unheld > 0, "no held page was decoded: {trace:?}");
            // A held page that pops is decoded from its buffered run.
            let log = quant_log.lock().expect("log lock");
            assert_eq!(log.reads.len() as u64, trace.runs);
            assert_single_reads_are_new(&log, "held pages");
            drop(log);
            // Level 2 reads fine, so every page taken was decoded or held,
            // and one decoded after all counts once.
            assert_eq!(
                count("filter.pages_decoded") + count("filter.pages_held") - unheld,
                trace.pages_processed,
                "a page counted twice: {trace:?}"
            );
            assert!(
                trace.pages_processed + trace.pages_skipped <= live,
                "a page counted twice: {trace:?} over {live} live pages"
            );

            clock.enable_tracing();
            let (hits, trace) = tree
                .run(
                    &mut clock,
                    &Query::Knn {
                        point: q,
                        k,
                        filter,
                        opts: rerank,
                    },
                )
                .expect("valid query")
                .into_ranked();
            let spans = clock.take_trace().expect("tracing was on");
            assert!(hits.len() as u64 + trace.points_skipped >= k as u64);
            for &(id, d) in &hits {
                assert!(readable.contains(&id) && matches(id), "{id}");
                assert!((d - dist(id, q)).abs() < 1e-9);
            }
            assert!(spans.root.counter_total("filter.pages_held") > 0);
            assert_eq!(spans.root.counter_total("filter.pages_unheld"), 0);
            assert!(trace.pages_processed + trace.pages_skipped <= live);
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The VA-file refines through the same kind of exact-block buffer: a
/// query reads each exact block once. An exact block that stays
/// unreadable is no panic: its entries are skipped and counted in
/// `points_skipped`, as the IQ-tree counts them, and every other point is
/// answered.
#[test]
fn va_file_skips_unreadable_exact_entries() {
    let w = Workload::generate(2_000, 4, |n| data::uniform(6, n, 7));
    let log = Arc::new(Mutex::new(ReadLog::default()));
    let exact = LoggedDevice {
        inner: Box::new(MemDevice::new(512)),
        log: Arc::clone(&log),
    };
    let mut clock = SimClock::default();
    let va = VaFile::build(
        &w.db,
        Metric::Euclidean,
        4,
        Box::new(MemDevice::new(512)),
        Box::new(exact),
        &mut clock,
    );
    let n = w.db.len();
    let q = w.queries.point(0);
    log.lock().expect("log lock").reads.clear();
    let (clean, clean_trace) = knn(&va, &mut clock, q, 50);
    {
        let log = log.lock().expect("log lock");
        for &(start, _) in &log.reads {
            assert_eq!(log.reads_of(start), 1, "exact block {start} read twice");
        }
        assert!(clean_trace.refinements > log.reads.len() as u64);
    }

    {
        let mut log = log.lock().expect("log lock");
        log.fail_block = Some(0);
        log.fail_left = u32::MAX;
    }
    let (hits, trace) = knn(&va, &mut clock, q, n);
    assert!(trace.points_skipped > 0, "the failure never fired");
    assert_eq!(hits.len() as u64 + trace.points_skipped, n as u64);
    assert_eq!(trace.refinements, hits.len() as u64);
    // Only the entries in block 0 are lost: the 18 whole 28-byte entries
    // of its 512 bytes and the one straddling into block 1.
    assert_eq!(trace.points_skipped, 19);
    assert!(hits.iter().all(|&(id, _)| id >= 19));
    // The answer is the clean one where k covers it.
    let good: Vec<_> = clean.iter().filter(|(id, _)| *id >= 19).collect();
    assert!(good.iter().all(|h| hits.contains(h)));
    // Range and window verification skip the lost entries the same way.
    let ids = va
        .run(
            &mut clock,
            &Query::Range {
                point: q,
                radius: 0.25,
            },
        )
        .expect("valid query")
        .ids();
    assert!(ids.iter().all(|&id| id >= 19));
}

/// The VA-file's approximation sweep under a chunk that stays
/// unreadable: no panic. The chunk's read is retried, then skipped as the
/// scan skips one; the sweep resumes at the first entry that starts after
/// it, the lost points are counted in `points_skipped` and never become
/// candidates, and every other point is answered as in a clean run.
#[test]
fn va_file_skips_an_unreadable_approximation_chunk() {
    // 30,000 12-d points at 8 bits: 12-byte entries in 512-byte blocks,
    // 704 blocks read in chunks of 256 blocks (128 KiB).
    let w = Workload::generate(30_000, 2, |n| data::uniform(12, n, 19));
    let log = Arc::new(Mutex::new(ReadLog::default()));
    let approx = LoggedDevice {
        inner: Box::new(MemDevice::new(512)),
        log: Arc::clone(&log),
    };
    let mut clock = SimClock::default();
    let va = VaFile::build(
        &w.db,
        Metric::Euclidean,
        8,
        Box::new(approx),
        Box::new(MemDevice::new(512)),
        &mut clock,
    );
    let n = w.db.len();
    let q = w.queries.point(0);
    let (clean, clean_trace) = knn(&va, &mut clock, q, n);
    assert_eq!(clean.len(), n);
    assert_eq!(clean_trace.points_skipped, 0);

    // Block 300 lies in the second chunk, bytes 131,072..262,144. Entry
    // 10,922 starts at byte 131,064 and straddles into it; entry 21,845
    // starts at byte 262,140 and straddles out of it; entry 21,846 is the
    // first to start after it.
    {
        let mut log = log.lock().expect("log lock");
        log.fail_block = Some(300);
        log.fail_left = u32::MAX;
    }
    let lost = 10_922..21_846u32;
    let (hits, trace) = knn(&va, &mut clock, q, n);
    assert_eq!(trace.points_skipped, u64::from(lost.end - lost.start));
    assert_eq!(hits.len() + lost.len(), n);
    assert_eq!(trace.refinements, hits.len() as u64);
    assert!(trace.partial());
    assert!(
        log.lock().expect("log lock").reads_of(300) > 2,
        "the chunk read is retried"
    );
    let kept: Vec<(u32, f64)> = clean
        .iter()
        .copied()
        .filter(|(id, _)| !lost.contains(id))
        .collect();
    assert_eq!(hits, kept);
    // A top-10 query answers from the points that were read.
    let (top, _) = knn(&va, &mut clock, q, 10);
    assert_eq!(top, kept[..10]);
    // Range and window lose the same points, only those, and say so.
    let survivors: Vec<u32> = (0..n as u32).filter(|id| !lost.contains(id)).collect();
    let everything = Mbr::of_points(w.db.dim(), w.db.iter());
    for (what, (ids, trace)) in [
        ("range", range(&va, &mut clock, q, 100.0)),
        ("window", window(&va, &mut clock, &everything)),
    ] {
        assert_eq!(ids, survivors, "{what}");
        assert_eq!(trace.points_skipped, 10_924, "{what}");
        assert!(trace.partial(), "{what}");
    }
}

/// The X-tree under a data page and a directory node that stay
/// unreadable: no panic. Each read is retried, then skipped: a lost page
/// takes its points with it, a lost node its whole subtree, and each is
/// counted in `pages_lost`; every other point is answered as in a clean
/// run.
#[test]
fn xtree_skips_unreadable_pages() {
    let w = Workload::generate(2_000, 2, |n| data::uniform(6, n, 23));
    let dir_log = Arc::new(Mutex::new(ReadLog::default()));
    let data_log = Arc::new(Mutex::new(ReadLog::default()));
    let logged = |log: &Arc<Mutex<ReadLog>>| {
        Box::new(LoggedDevice {
            inner: Box::new(MemDevice::new(512)),
            log: Arc::clone(log),
        })
    };
    let mut clock = SimClock::default();
    let xt = XTree::build(
        &w.db,
        Metric::Euclidean,
        logged(&dir_log),
        logged(&data_log),
        &mut clock,
    );
    let n = w.db.len();
    let q = w.queries.point(0);
    let (clean, clean_trace) = knn(&xt, &mut clock, q, n);
    assert_eq!(clean.len(), n);
    assert_eq!(clean_trace.pages_lost, 0);
    let arm = |log: &Arc<Mutex<ReadLog>>, block: Option<u64>| {
        let mut log = log.lock().expect("log lock");
        log.fail_block = block;
        log.fail_left = u32::MAX;
    };

    // Data pages are written one block each in bulk-load partition order,
    // so data block 7 holds partition 7.
    let parts = bulk_partition(
        &w.db,
        QuantizedPageCodec::new(w.db.dim(), 512).capacity(EXACT_BITS),
    );
    let lost: HashSet<u32> = parts[7].ids.iter().copied().collect();
    assert!(!lost.is_empty());
    arm(&data_log, Some(7));
    let (hits, trace) = knn(&xt, &mut clock, q, n);
    assert_eq!(trace.pages_lost, 1);
    assert!(trace.partial());
    assert!(
        data_log.lock().expect("log lock").reads_of(7) > 2,
        "the page read is retried"
    );
    let kept: Vec<(u32, f64)> = clean
        .iter()
        .copied()
        .filter(|(id, _)| !lost.contains(id))
        .collect();
    assert_eq!(hits, kept);
    // Range and window skip the same page, and say so.
    let survivors: Vec<u32> = (0..n as u32).filter(|id| !lost.contains(id)).collect();
    let everything = Mbr::of_points(w.db.dim(), w.db.iter());
    for (what, (ids, trace)) in [
        ("range", range(&xt, &mut clock, q, 100.0)),
        ("window", window(&xt, &mut clock, &everything)),
    ] {
        assert_eq!(ids, survivors, "{what}");
        assert_eq!(trace.pages_lost, 1, "{what}");
    }
    arm(&data_log, None);

    // Directory block 0 is the first leaf-level node, not the root.
    arm(&dir_log, Some(0));
    let (hits, trace) = knn(&xt, &mut clock, q, n);
    assert_eq!(trace.pages_lost, 1);
    assert!(trace.partial());
    assert!(!hits.is_empty() && hits.len() < n);
    assert!(hits.iter().all(|h| clean.contains(h)));
    // Range and window lose the same subtree, and say so.
    for (what, (ids, trace)) in [
        ("range", range(&xt, &mut clock, q, 100.0)),
        ("window", window(&xt, &mut clock, &everything)),
    ] {
        assert_eq!(ids.len(), hits.len(), "{what}");
        assert_eq!(trace.pages_lost, 1, "{what}");
    }
}

/// An in-memory device behind a shared handle: a test keeps a clone and
/// rewrites blocks after an engine took the device over.
#[derive(Clone)]
struct SharedDev(Arc<Mutex<MemDevice>>);

impl SharedDev {
    fn new(bs: usize) -> Self {
        Self(Arc::new(Mutex::new(MemDevice::new(bs))))
    }

    /// Overwrites block `block` with `bytes` from byte `off` on.
    fn forge(&self, block: u64, off: usize, bytes: &[u8]) {
        let mut dev = self.0.lock().expect("device lock");
        let mut clock = SimClock::default();
        let mut buf = dev.read_to_vec(&mut clock, block, 1).expect("read");
        buf[off..off + bytes.len()].copy_from_slice(bytes);
        dev.write_blocks(&mut clock, block, &buf).expect("write");
    }
}

impl BlockDevice for SharedDev {
    fn block_size(&self) -> usize {
        self.0.lock().expect("device lock").block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.0.lock().expect("device lock").num_blocks()
    }

    fn read_blocks(&self, clock: &mut SimClock, start: u64, buf: &mut [u8]) -> IqResult<()> {
        self.0
            .lock()
            .expect("device lock")
            .read_blocks(clock, start, buf)
    }

    fn append(&mut self, clock: &mut SimClock, data: &[u8]) -> IqResult<u64> {
        self.0.lock().expect("device lock").append(clock, data)
    }

    fn write_blocks(&mut self, clock: &mut SimClock, start: u64, data: &[u8]) -> IqResult<()> {
        self.0
            .lock()
            .expect("device lock")
            .write_blocks(clock, start, data)
    }

    fn device_id(&self) -> u64 {
        self.0.lock().expect("device lock").device_id()
    }
}

/// The X-tree under forged blocks. Its devices have no checksum layer, so
/// a data page claiming 0xFFFF entries, a data page holding an id past the
/// dataset and a directory node naming a child past the end reach the
/// decoders as they are: no panic, and no id outside the dataset. Each is
/// skipped as an unreadable block is, the node with its subtree, and
/// counted in `pages_lost`; k-NN, range and window queries answer exactly
/// over the points left.
#[test]
fn xtree_survives_forged_blocks() {
    let w = Workload::generate(2_000, 2, |n| data::uniform(6, n, 23));
    let (dir, pages) = (SharedDev::new(512), SharedDev::new(512));
    let mut clock = SimClock::default();
    let xt = XTree::build(
        &w.db,
        Metric::Euclidean,
        Box::new(dir.clone()),
        Box::new(pages.clone()),
        &mut clock,
    );
    let (n, dim) = (w.db.len(), w.db.dim());
    // Data block p holds partition p. Directory block 0 is the first
    // leaf-level node, over partitions 0..node_cap.
    let parts = bulk_partition(
        &w.db,
        QuantizedPageCodec::new(dim, 512).capacity(EXACT_BITS),
    );
    let node_cap = Node::capacity(dim, 512);
    let (forged_page, forged_id) = (node_cap + 3, node_cap + 5);
    assert!(forged_id < parts.len());
    pages.forge(forged_page as u64, 0, &0xFFFFu16.to_le_bytes());
    // The page's first id: `u32 id` right after the 4-byte header.
    pages.forge(forged_id as u64, 4, &u32::MAX.to_le_bytes());
    // The node's first entry: `u32 child` right after the 4-byte header.
    dir.forge(0, 4, &u32::MAX.to_le_bytes());
    let lost: HashSet<u32> = parts[..node_cap]
        .iter()
        .chain([&parts[forged_page], &parts[forged_id]])
        .flat_map(|p| p.ids.iter().copied())
        .collect();
    let survivors: Vec<u32> = (0..n as u32).filter(|id| !lost.contains(id)).collect();

    let m = Metric::Euclidean;
    let q = w.queries.point(0);
    let by_distance = |mut hits: Vec<(u32, f64)>| {
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        hits
    };
    let (hits, trace) = knn(&xt, &mut clock, q, n);
    assert_eq!(trace.pages_lost, 3, "two pages and one node");
    assert!(trace.partial());
    let brute: Vec<(u32, f64)> = survivors
        .iter()
        .map(|&id| (id, m.distance(w.db.point(id as usize), q)))
        .collect();
    assert_eq!(by_distance(hits), by_distance(brute.clone()), "k = n");
    for radius in [0.5, 100.0] {
        let mut ids = xt
            .run(&mut clock, &Query::Range { point: q, radius })
            .expect("valid query")
            .ids();
        ids.sort_unstable();
        let expect: Vec<u32> = brute
            .iter()
            .filter(|h| h.1 <= radius)
            .map(|h| h.0)
            .collect();
        assert_eq!(ids, expect, "range {radius}");
    }
    let half = Mbr::from_bounds(vec![0.0; dim], vec![0.5; dim]);
    let everything = Mbr::of_points(dim, w.db.iter());
    for window in [half, everything] {
        let mut ids = xt
            .run(&mut clock, &Query::Window(&window))
            .expect("valid query")
            .ids();
        ids.sort_unstable();
        let expect: Vec<u32> = survivors
            .iter()
            .copied()
            .filter(|&id| window.contains_point(w.db.point(id as usize)))
            .collect();
        assert_eq!(ids, expect, "window {window:?}");
    }
}

/// The sequential scan under a chunk that stays unreadable: no panic. The
/// chunk's read is retried, then skipped; the sweep resumes at the first
/// point that starts after it, the lost points are counted in
/// `points_skipped`, and every other point is answered as in a clean run.
#[test]
fn scan_skips_an_unreadable_chunk() {
    // 20,000 6-d points of 24 bytes in 512-byte blocks: 938 blocks, read
    // in chunks of 256 blocks (128 KiB).
    let w = Workload::generate(20_000, 2, |n| data::uniform(6, n, 17));
    let log = Arc::new(Mutex::new(ReadLog::default()));
    let dev = LoggedDevice {
        inner: Box::new(MemDevice::new(512)),
        log: Arc::clone(&log),
    };
    let mut clock = SimClock::default();
    let scan = SeqScan::build(&w.db, Metric::Euclidean, Box::new(dev), &mut clock);
    let n = w.db.len();
    let q = w.queries.point(0);
    let (clean, clean_trace) = knn(&scan, &mut clock, q, n);
    assert_eq!(clean_trace.points_skipped, 0);

    // Block 300 lies in the second chunk, bytes 131,072..262,144. Point
    // 5,461 starts at byte 131,064 and straddles into it; point 10,923
    // is the first to start after it (byte 262,152).
    {
        let mut log = log.lock().expect("log lock");
        log.fail_block = Some(300);
        log.fail_left = u32::MAX;
    }
    let lost = 5_461..10_923u32;
    let (hits, trace) = knn(&scan, &mut clock, q, n);
    assert_eq!(trace.points_skipped, u64::from(lost.end - lost.start));
    assert_eq!(hits.len() + lost.len(), n);
    assert_eq!(trace.candidates_skipped, 0);
    assert!(
        log.lock().expect("log lock").reads_of(300) > 2,
        "the chunk read is retried"
    );
    let kept: Vec<(u32, f64)> = clean
        .iter()
        .copied()
        .filter(|(id, _)| !lost.contains(id))
        .collect();
    assert_eq!(hits, kept);
    // A top-10 query answers from the points that were read.
    let (top, _) = knn(&scan, &mut clock, q, 10);
    assert_eq!(top, kept[..10]);
}

/// A WAL-attached tree under transient read faults: logged inserts and
/// deletes (whose find/load phases read through the retry layer)
/// interleave with plain `&self` k-NN reads, and every answer — during
/// and after the workload — matches a fault-free run of the identical
/// script, while the I/O statistics prove faults really fired.
#[test]
fn logged_updates_interleaved_with_reads_absorb_transient_faults() {
    let dir = temp_dir("wal-transient");
    let ds = data::uniform(5, 4_000, 404);
    build_files(&dir, &ds, 2048);
    let queries: Vec<Vec<f32>> = data::uniform(5, 6, 405)
        .iter()
        .map(<[f32]>::to_vec)
        .collect();

    // The same seeded script of updates and reads, replayed twice.
    let run = |tree: &mut IqTree, clock: &mut SimClock| -> Vec<Vec<(u32, u64)>> {
        let mut rng = StdRng::seed_from_u64(406);
        let mut answers = Vec::new();
        let mut live: Vec<(u32, Vec<f32>)> = Vec::new();
        let mut next_id = 4_000u32;
        for step in 0..120 {
            if rng.gen_bool(0.7) || live.is_empty() {
                let p: Vec<f32> = (0..5).map(|_| rng.gen()).collect();
                tree.insert(clock, next_id, &p).expect("logged insert");
                live.push((next_id, p));
                next_id += 1;
            } else {
                let (id, p) = live.swap_remove(rng.gen_range(0..live.len()));
                assert!(tree.delete(clock, id, &p).expect("logged delete"));
            }
            // Interleaved shared reads: k-NN through `&self`.
            if step % 5 == 0 {
                let q = &queries[(step / 5) % queries.len()];
                answers.push(
                    knn(&*tree, clock, q, 8)
                        .0
                        .into_iter()
                        .map(|(id, d)| (id, d.to_bits()))
                        .collect(),
                );
            }
        }
        answers
    };

    let reopen_with_wal = |wrap: &dyn Fn(Box<dyn BlockDevice>) -> Box<dyn BlockDevice>| {
        let mut clock = SimClock::default();
        let open = |i: usize| {
            let raw = Box::new(FileDevice::open(&dir.join(FILES[i]), 2048).expect("open"))
                as Box<dyn BlockDevice>;
            wrap(raw)
        };
        let (tree, report) = IqTree::open_with_wal(
            5,
            Metric::Euclidean,
            IqTreeOptions::default(),
            open(0),
            open(1),
            open(2),
            Box::new(MemWal::new()),
            &mut clock,
        )
        .expect("open with fresh log");
        assert!(report.log_was_clean());
        clock.reset();
        (tree, clock)
    };

    let (mut clean_tree, mut clean_clock) = reopen_with_wal(&|d| d);
    let clean = run(&mut clean_tree, &mut clean_clock);
    drop(clean_tree); // updates went to the shared files: rebuild them
    std::fs::remove_dir_all(&dir).expect("reset");
    std::fs::create_dir_all(&dir).expect("reset");
    build_files(&dir, &ds, 2048);

    let cfg = FaultConfig {
        seed: 11,
        read_transient_rate: 0.06,
        write_transient_rate: 0.0,
        bit_flip_rate: 0.0,
        torn_write_rate: 0.0,
    };
    let (mut faulty_tree, mut faulty_clock) =
        reopen_with_wal(&move |d| Box::new(FaultInjectingDevice::new(d, cfg)));
    let faulty = run(&mut faulty_tree, &mut faulty_clock);

    assert_eq!(
        clean, faulty,
        "transient faults must be invisible to logged updates and reads alike"
    );
    let stats = faulty_clock.stats();
    assert!(stats.injected_faults > 0, "no fault fired: {stats:?}");
    assert!(stats.io_retries > 0, "no retry ran: {stats:?}");
    assert!(
        faulty_tree.wal_bytes() > 0,
        "the workload's transactions are in the log"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Corrupting any single block of any of the three files is detected
    /// by `verify_index`, which pinpoints exactly the corrupted block.
    #[test]
    fn prop_verify_pinpoints_any_corrupt_block(seed in 0u64..1_000, pick in 0usize..1_000) {
        let dir = temp_dir(&format!("prop-{seed}-{pick}"));
        let ds = data::uniform(4, 600, seed);
        build_files(&dir, &ds, 512);

        // Choose a (level, block) uniformly over all blocks of the index.
        let sizes: Vec<u64> = FILES
            .iter()
            .map(|f| {
                let len = std::fs::metadata(dir.join(f)).expect("stat").len();
                len / 512
            })
            .collect();
        let total: u64 = sizes.iter().sum();
        let mut target = (pick as u64 * 7 + seed) % total;
        let mut level = 0;
        while target >= sizes[level] {
            target -= sizes[level];
            level += 1;
        }

        let mut clock = SimClock::default();
        let open_with_fault = |i: usize| -> Box<dyn BlockDevice> {
            let raw = Box::new(FileDevice::open(&dir.join(FILES[i]), 512).expect("open"))
                as Box<dyn BlockDevice>;
            let f = FaultInjectingDevice::new(raw, FaultConfig::none(9));
            if i == level {
                f.corrupt_block(target);
            }
            Box::new(f)
        };
        let report = verify_index(
            open_with_fault(0),
            open_with_fault(1),
            open_with_fault(2),
            &mut clock,
        );
        prop_assert!(!report.is_clean());
        let expect_name = ["directory", "quantized", "exact"][level];
        prop_assert_eq!(report.corrupt_blocks(), vec![(expect_name, target)]);

        // Directory corruption must also fail a real `open`.
        if level == 0 {
            let mut clock = SimClock::default();
            let opened = IqTree::open(
                4,
                Metric::Euclidean,
                IqTreeOptions::default(),
                open_with_fault(0),
                open_with_fault(1),
                open_with_fault(2),
                &mut clock,
            );
            prop_assert!(opened.is_err());
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
