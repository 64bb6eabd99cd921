//! The crash-injection matrix: a seeded 200-operation insert/delete
//! workload runs against a WAL-attached tree while every byte of the log
//! and a base-file snapshot per operation are recorded. The matrix then
//! simulates a crash at **every frame boundary** of the log (plus
//! proptest-chosen intra-frame offsets), reopens the index from the
//! surviving bytes, and asserts the recovered tree answers k-NN
//! *bit-identically* to a shadow tree holding exactly the committed
//! operation prefix — and that the recovered level files are themselves
//! byte-identical to the shadow state.
//!
//! Crash models covered:
//! * torn log tail (cut inside a frame) — the unfinished transaction is
//!   discarded;
//! * durable-but-unapplied commit (cut exactly at a commit frame with the
//!   base one operation behind) — the transaction is replayed;
//! * power loss *during apply* (fault-injected base write after a durable
//!   commit) — the operation errors, the tree poisons itself, and reopen
//!   recovers the committed operation;
//! * crash at every frame boundary of a checkpoint transaction — either
//!   the whole fold happens or none of it.

mod common;

use common::knn;

use std::sync::{Arc, Mutex, OnceLock};

use iqtree_repro::data;
use iqtree_repro::engine::{AccessMethod, Query};
use iqtree_repro::geometry::Metric;
use iqtree_repro::storage::{
    BlockDevice, FaultConfig, FaultInjectingDevice, IqResult, MemDevice, MemWal, SimClock, WalStore,
};
use iqtree_repro::tree::verify::verify_index_with_wal;
use iqtree_repro::tree::{IqTree, IqTreeOptions};
use iqtree_repro::wal::FRAME_OVERHEAD;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const DIM: usize = 4;
const BS: usize = 512;
const N0: usize = 150;
const OPS: usize = 200;
const K: usize = 5;

/// A block device handle that keeps the underlying bytes reachable after
/// the tree takes ownership: snapshots for the crash matrix.
#[derive(Clone)]
struct SharedDev(Arc<Mutex<MemDevice>>);

impl SharedDev {
    fn new(bs: usize) -> Self {
        Self(Arc::new(Mutex::new(MemDevice::new(bs))))
    }

    fn image(&self) -> Vec<u8> {
        self.0.lock().expect("device lock").contents().to_vec()
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
    fn truncate_blocks(&mut self, clock: &mut SimClock, nblocks: u64) -> IqResult<()> {
        self.0
            .lock()
            .expect("device lock")
            .truncate_blocks(clock, nblocks)
    }
    fn device_id(&self) -> u64 {
        self.0.lock().expect("device lock").device_id()
    }
}

/// A WAL store handle that additionally keeps a tape of every byte ever
/// appended — the full log stream survives even a checkpoint's truncate,
/// so crash cuts can be taken anywhere in it.
#[derive(Clone)]
struct SharedWal {
    inner: Arc<Mutex<MemWal>>,
    tape: Arc<Mutex<Vec<u8>>>,
}

impl SharedWal {
    fn new() -> Self {
        Self {
            inner: Arc::new(Mutex::new(MemWal::new())),
            tape: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn tape(&self) -> Vec<u8> {
        self.tape.lock().expect("tape lock").clone()
    }
}

impl WalStore for SharedWal {
    fn len(&self) -> u64 {
        self.inner.lock().expect("wal lock").len()
    }
    fn append(&mut self, clock: &mut SimClock, bytes: &[u8]) -> IqResult<()> {
        self.tape
            .lock()
            .expect("tape lock")
            .extend_from_slice(bytes);
        self.inner.lock().expect("wal lock").append(clock, bytes)
    }
    fn read_at(&self, clock: &mut SimClock, off: u64, buf: &mut [u8]) -> IqResult<()> {
        self.inner
            .lock()
            .expect("wal lock")
            .read_at(clock, off, buf)
    }
    fn sync(&mut self, clock: &mut SimClock) -> IqResult<()> {
        self.inner.lock().expect("wal lock").sync(clock)
    }
    fn truncate(&mut self, clock: &mut SimClock, len: u64) -> IqResult<()> {
        self.inner.lock().expect("wal lock").truncate(clock, len)
    }
    fn device_id(&self) -> u64 {
        self.inner.lock().expect("wal lock").device_id()
    }
}

/// Byte offsets of every frame start in `log`, plus the end of the log.
fn frame_boundaries(log: &[u8]) -> Vec<u64> {
    let mut out = vec![0u64];
    let mut pos = 0usize;
    while pos + FRAME_OVERHEAD <= log.len() {
        let len = u32::from_le_bytes(log[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let next = pos + FRAME_OVERHEAD + len;
        if next > log.len() {
            break;
        }
        pos = next;
        out.push(pos as u64);
    }
    if *out.last().expect("non-empty") != log.len() as u64 {
        out.push(log.len() as u64);
    }
    out
}

type Answers = Vec<Vec<(u32, u64)>>;

/// Everything the matrix needs, recorded in one workload run.
struct Fixture {
    /// The full log byte stream (never truncated).
    log: Vec<u8>,
    /// Log length right after operation `t` committed (= commit frame end).
    commit_end: Vec<u64>,
    /// Raw images of [dir, quant, exact] after `k` operations applied,
    /// `k = 0..=OPS` — `snapshots[k]` is the shadow state of prefix `k`.
    snapshots: Vec<[Vec<u8>; 3]>,
    /// `answers[k][q]` = the shadow tree's k-NN (ids and distance bits)
    /// for query `q` after `k` operations.
    answers: Vec<Answers>,
    queries: Vec<Vec<f32>>,
}

fn shadow_answers(tree: &IqTree, queries: &[Vec<f32>]) -> Answers {
    let mut clock = SimClock::default();
    queries
        .iter()
        .map(|q| {
            knn(tree, &mut clock, q, K)
                .0
                .into_iter()
                .map(|(id, d)| (id, d.to_bits()))
                .collect()
        })
        .collect()
}

fn build_shared(ds: &iqtree_repro::geometry::Dataset) -> (IqTree, [SharedDev; 3], SimClock) {
    let devs = [SharedDev::new(BS), SharedDev::new(BS), SharedDev::new(BS)];
    let mut it = devs.iter().cloned();
    let mut clock = SimClock::default();
    let tree = IqTree::build(
        ds,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || Box::new(it.next().expect("three devices")),
        &mut clock,
    );
    (tree, devs, clock)
}

/// The seeded workload: `OPS` randomized inserts/deletes against a
/// WAL-attached tree (recording log bytes and per-op base snapshots) and
/// against an identical shadow tree with no log (recording its answers).
fn run_workload() -> Fixture {
    let ds = data::uniform(DIM, N0, 4242);
    let queries: Vec<Vec<f32>> = data::uniform(DIM, 3, 999)
        .iter()
        .map(<[f32]>::to_vec)
        .collect();

    let (mut tree, devs, mut clock) = build_shared(&ds);
    let wal = SharedWal::new();
    tree.attach_wal(Box::new(wal.clone()));

    let (mut shadow, _shadow_devs, mut shadow_clock) = build_shared(&ds);

    let mut rng = StdRng::seed_from_u64(77);
    let mut live: Vec<(u32, Vec<f32>)> =
        (0..N0).map(|i| (i as u32, ds.point(i).to_vec())).collect();
    let mut next_id = N0 as u32;

    let mut fx = Fixture {
        log: Vec::new(),
        commit_end: Vec::new(),
        snapshots: vec![[devs[0].image(), devs[1].image(), devs[2].image()]],
        answers: vec![shadow_answers(&shadow, &queries)],
        queries,
    };

    for _ in 0..OPS {
        if rng.gen_bool(0.6) || live.len() <= 2 {
            let p: Vec<f32> = (0..DIM).map(|_| rng.gen()).collect();
            tree.insert(&mut clock, next_id, &p).expect("logged insert");
            shadow
                .insert(&mut shadow_clock, next_id, &p)
                .expect("shadow insert");
            live.push((next_id, p));
            next_id += 1;
        } else {
            let (id, p) = live.swap_remove(rng.gen_range(0..live.len()));
            assert!(tree.delete(&mut clock, id, &p).expect("logged delete"));
            assert!(shadow
                .delete(&mut shadow_clock, id, &p)
                .expect("shadow delete"));
        }
        fx.commit_end.push(tree.wal_bytes());
        fx.snapshots
            .push([devs[0].image(), devs[1].image(), devs[2].image()]);
        let ans = shadow_answers(&shadow, &fx.queries);
        fx.answers.push(ans);
    }
    fx.log = wal.tape();
    assert_eq!(
        fx.log.len() as u64,
        *fx.commit_end.last().expect("ops ran"),
        "tape and wal length agree"
    );
    fx
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(run_workload)
}

/// Restores base snapshot `base_idx`, crashes the log at byte `cut`,
/// reopens, and asserts the recovered tree is the shadow prefix of
/// `committed` operations — answer-bit-identical and file-byte-identical.
fn check_recovery(fx: &Fixture, cut: u64, committed: usize, base_idx: usize) {
    let devs: Vec<SharedDev> = fx.snapshots[base_idx]
        .iter()
        .map(|img| {
            SharedDev(Arc::new(Mutex::new(MemDevice::from_contents(
                BS,
                img.clone(),
            ))))
        })
        .collect();
    let wal = MemWal::from_contents(fx.log[..cut as usize].to_vec());
    let mut clock = SimClock::default();
    let (tree, report) = IqTree::open_with_wal(
        DIM,
        Metric::Euclidean,
        IqTreeOptions::default(),
        Box::new(devs[0].clone()),
        Box::new(devs[1].clone()),
        Box::new(devs[2].clone()),
        Box::new(wal),
        &mut clock,
    )
    .unwrap_or_else(|e| panic!("recovery at cut {cut} (base {base_idx}): {e}"));

    assert_eq!(
        report.replayed_txns, committed,
        "cut {cut}: committed transaction count"
    );
    for (qi, q) in fx.queries.iter().enumerate() {
        let got: Vec<(u32, u64)> = knn(&tree, &mut clock, q, K)
            .0
            .into_iter()
            .map(|(id, d)| (id, d.to_bits()))
            .collect();
        assert_eq!(
            got, fx.answers[committed][qi],
            "cut {cut} base {base_idx} query {qi}: recovered k-NN must be \
             bit-identical to the shadow prefix"
        );
    }
    for (level, dev) in devs.iter().enumerate() {
        assert_eq!(
            dev.image(),
            fx.snapshots[committed][level],
            "cut {cut} base {base_idx}: level {level} bytes differ from the shadow prefix"
        );
    }
}

/// The matrix proper: a crash at every frame boundary of the whole
/// workload log, with the base files in the fully-applied state.
#[test]
fn crash_at_every_frame_boundary_recovers_the_committed_prefix() {
    let fx = fixture();
    let boundaries = frame_boundaries(&fx.log);
    assert!(
        boundaries.len() > 2 * OPS,
        "expected several frames per op, got {} boundaries",
        boundaries.len()
    );
    for &cut in &boundaries {
        let committed = fx.commit_end.partition_point(|&end| end <= cut);
        check_recovery(fx, cut, committed, committed);
    }
}

/// A commit can be durable before its base writes happen: for every
/// operation, cut exactly at its commit frame with the base one state
/// behind — recovery must roll the operation *forward*.
#[test]
fn durable_but_unapplied_commits_are_rolled_forward() {
    let fx = fixture();
    for (t, &end) in fx.commit_end.iter().enumerate() {
        check_recovery(fx, end, t + 1, t);
    }
}

/// After recovering from the final crash point, `verify` reports the
/// whole index (files and log) clean.
#[test]
fn recovered_index_verifies_clean() {
    let fx = fixture();
    let full = fx.log.len() as u64;
    let devs: Vec<SharedDev> = fx.snapshots[0]
        .iter()
        .map(|img| {
            SharedDev(Arc::new(Mutex::new(MemDevice::from_contents(
                BS,
                img.clone(),
            ))))
        })
        .collect();
    let wal = MemWal::from_contents(fx.log.clone());
    let mut clock = SimClock::default();
    let (tree, report) = IqTree::open_with_wal(
        DIM,
        Metric::Euclidean,
        IqTreeOptions::default(),
        Box::new(devs[0].clone()),
        Box::new(devs[1].clone()),
        Box::new(devs[2].clone()),
        Box::new(wal),
        &mut clock,
    )
    .expect("recovery from the oldest base snapshot");
    assert_eq!(report.replayed_txns, OPS);
    assert_eq!(report.discarded_bytes, 0);
    assert_eq!(tree.wal_bytes(), full);
    drop(tree);

    let report = verify_index_with_wal(
        Box::new(MemDevice::from_contents(BS, devs[0].image())),
        Box::new(MemDevice::from_contents(BS, devs[1].image())),
        Box::new(MemDevice::from_contents(BS, devs[2].image())),
        &fx.log,
        &mut clock,
    );
    assert!(report.is_clean(), "recovered index must verify clean");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crashes at arbitrary byte offsets *inside* frames: the torn frame
    /// (and its whole uncommitted transaction) is discarded, never
    /// half-applied.
    #[test]
    fn prop_crash_inside_any_frame_discards_the_torn_tail(
        sel in 0usize..100_000,
        off in 0u64..100_000,
    ) {
        let fx = fixture();
        let boundaries = frame_boundaries(&fx.log);
        let i = sel % (boundaries.len() - 1);
        let span = boundaries[i + 1] - boundaries[i];
        // Strictly inside the frame: at least 1 byte torn off.
        let cut = boundaries[i] + 1 + off % span.max(2).min(span);
        let cut = cut.min(boundaries[i + 1] - 1).max(boundaries[i] + 1);
        let committed = fx.commit_end.partition_point(|&end| end <= cut);
        check_recovery(fx, cut, committed, committed);
    }
}

/// Power loss between the durable commit and the base-file apply, injected
/// for real: the quantized level refuses the apply write, the operation
/// errors, the tree poisons itself against further mutation — and reopen
/// rolls the committed operation forward.
#[test]
fn crash_during_apply_poisons_the_tree_and_recovery_completes_the_op() {
    let ds = data::uniform(DIM, N0, 31337);
    let dir = SharedDev::new(BS);
    let quant = SharedDev::new(BS);
    let exact = SharedDev::new(BS);
    let quant_fault = Arc::new(Mutex::new(FaultInjectingDevice::new(
        Box::new(quant.clone()),
        FaultConfig::none(5),
    )));

    #[derive(Clone)]
    struct FaultHandle(Arc<Mutex<FaultInjectingDevice>>);
    impl BlockDevice for FaultHandle {
        fn block_size(&self) -> usize {
            self.0.lock().expect("lock").block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.0.lock().expect("lock").num_blocks()
        }
        fn read_blocks(&self, clock: &mut SimClock, start: u64, buf: &mut [u8]) -> IqResult<()> {
            self.0.lock().expect("lock").read_blocks(clock, start, buf)
        }
        fn append(&mut self, clock: &mut SimClock, data: &[u8]) -> IqResult<u64> {
            self.0.lock().expect("lock").append(clock, data)
        }
        fn write_blocks(&mut self, clock: &mut SimClock, start: u64, data: &[u8]) -> IqResult<()> {
            self.0
                .lock()
                .expect("lock")
                .write_blocks(clock, start, data)
        }
        fn truncate_blocks(&mut self, clock: &mut SimClock, nblocks: u64) -> IqResult<()> {
            self.0.lock().expect("lock").truncate_blocks(clock, nblocks)
        }
        fn device_id(&self) -> u64 {
            self.0.lock().expect("lock").device_id()
        }
    }

    let mut clock = SimClock::default();
    let mut make = {
        let mut n = 0usize;
        let dir = dir.clone();
        let exact = exact.clone();
        let qf = quant_fault.clone();
        move || -> Box<dyn BlockDevice> {
            n += 1;
            match n {
                1 => Box::new(dir.clone()),
                2 => Box::new(FaultHandle(qf.clone())),
                _ => Box::new(exact.clone()),
            }
        }
    };
    let mut tree = IqTree::build(
        &ds,
        Metric::Euclidean,
        IqTreeOptions::default(),
        &mut make,
        &mut clock,
    );
    let wal = SharedWal::new();
    tree.attach_wal(Box::new(wal.clone()));

    // A few healthy logged operations first.
    let mut rng = StdRng::seed_from_u64(9);
    for i in 0..10u32 {
        let p: Vec<f32> = (0..DIM).map(|_| rng.gen()).collect();
        tree.insert(&mut clock, N0 as u32 + i, &p)
            .expect("healthy insert");
    }

    // Power fails on the next quantized-level write — i.e. mid-apply,
    // after the transaction's commit frame is already durable.
    quant_fault.lock().expect("lock").arm_crash(0, false);
    let victim: Vec<f32> = (0..DIM).map(|_| rng.gen()).collect();
    let err = tree
        .insert(&mut clock, 99_999, &victim)
        .expect_err("apply write must fail");
    assert!(!err.is_transient(), "simulated power loss: {err}");

    // The tree is poisoned: no further mutation is accepted.
    let err2 = tree
        .insert(&mut clock, 99_998, &victim)
        .expect_err("poisoned tree refuses updates");
    assert!(format!("{err2}").contains("reopen"), "poison error: {err2}");
    drop(tree);

    // Reopen from the surviving bytes: the committed insert is recovered.
    let committed_log = wal.tape();
    let (tree, report) = IqTree::open_with_wal(
        DIM,
        Metric::Euclidean,
        IqTreeOptions::default(),
        Box::new(MemDevice::from_contents(BS, dir.image())),
        Box::new(MemDevice::from_contents(BS, quant.image())),
        Box::new(MemDevice::from_contents(BS, exact.image())),
        Box::new(MemWal::from_contents(committed_log)),
        &mut clock,
    )
    .expect("recovery after mid-apply crash");
    assert_eq!(report.replayed_txns, 11, "10 healthy + 1 crashed-mid-apply");
    assert_eq!(tree.len(), N0 + 11);
    let hits = tree
        .run(
            &mut clock,
            &Query::Range {
                point: &victim,
                radius: 1e-9,
            },
        )
        .expect("valid query")
        .ids();
    assert!(
        hits.contains(&99_999),
        "the committed-but-unapplied insert must be rolled forward"
    );
}

/// The checkpoint fold is itself one transaction: a crash at any frame
/// boundary inside it leaves either the old state (not yet committed) or
/// the new generation (committed) — and query answers are identical
/// either way, because a checkpoint never changes the data.
#[test]
fn crash_at_every_frame_boundary_during_checkpoint() {
    let ds = data::uniform(DIM, 400, 2026);
    let queries: Vec<Vec<f32>> = data::uniform(DIM, 3, 555)
        .iter()
        .map(<[f32]>::to_vec)
        .collect();
    let (mut tree, devs, mut clock) = build_shared(&ds);
    let wal = SharedWal::new();
    tree.attach_wal(Box::new(wal.clone()));

    // Churn to create waste and log traffic.
    let mut rng = StdRng::seed_from_u64(88);
    for i in 0..60u32 {
        let p: Vec<f32> = (0..DIM).map(|_| rng.gen()).collect();
        tree.insert(&mut clock, 400 + i, &p).expect("insert");
    }
    for i in 0..30u32 {
        assert!(tree
            .delete(&mut clock, i, ds.point(i as usize))
            .expect("delete"));
    }
    let pre = [devs[0].image(), devs[1].image(), devs[2].image()];
    let pre_answers = shadow_answers(&tree, &queries);
    let pre_len = wal.tape().len() as u64;
    let old_generation = tree.generation();

    let new_generation = tree.checkpoint(&mut clock).expect("checkpoint");
    assert_eq!(new_generation, old_generation + 1);
    assert_eq!(tree.wal_bytes(), 0, "checkpoint empties the log");
    let log = wal.tape();
    drop(tree);

    // Crash at every frame boundary at or after the checkpoint txn began.
    for &cut in frame_boundaries(&log).iter().filter(|&&c| c >= pre_len) {
        let rdevs: Vec<SharedDev> = pre
            .iter()
            .map(|img| {
                SharedDev(Arc::new(Mutex::new(MemDevice::from_contents(
                    BS,
                    img.clone(),
                ))))
            })
            .collect();
        let mut clock = SimClock::default();
        let (tree, _) = IqTree::open_with_wal(
            DIM,
            Metric::Euclidean,
            IqTreeOptions::default(),
            Box::new(rdevs[0].clone()),
            Box::new(rdevs[1].clone()),
            Box::new(rdevs[2].clone()),
            Box::new(MemWal::from_contents(log[..cut as usize].to_vec())),
            &mut clock,
        )
        .unwrap_or_else(|e| panic!("recovery at checkpoint cut {cut}: {e}"));
        let folded = cut == log.len() as u64;
        assert_eq!(
            tree.generation(),
            if folded {
                new_generation
            } else {
                old_generation
            },
            "cut {cut}: generation is all-or-nothing"
        );
        assert_eq!(
            shadow_answers(&tree, &queries),
            pre_answers,
            "cut {cut}: a checkpoint crash must never change query answers"
        );
    }
}

/// Crash AFTER a checkpoint transaction fully applied to the base files
/// but BEFORE `wal.reset()` truncated the log: base = post-fold images,
/// log = full tape. The delete-heavy churn makes the folded exact file
/// *shorter* than positions the pre-checkpoint appends refer to, so a
/// naive replay over the folded base would write out of bounds. Recovery
/// must recognize the already-applied transactions and leave the
/// checkpointed answers intact.
#[test]
fn crash_after_checkpoint_apply_before_wal_reset_recovers() {
    let ds = data::uniform(DIM, 400, 2026);
    let (mut tree, devs, mut clock) = build_shared(&ds);
    let wal = SharedWal::new();
    tree.attach_wal(Box::new(wal.clone()));

    let mut rng = StdRng::seed_from_u64(88);
    for i in 0..20u32 {
        let p: Vec<f32> = (0..DIM).map(|_| rng.gen()).collect();
        tree.insert(&mut clock, 400 + i, &p).expect("insert");
    }
    for i in 0..200u32 {
        assert!(tree.delete(&mut clock, i, ds.point(i as usize)).unwrap());
    }

    tree.checkpoint(&mut clock).expect("checkpoint");
    // Post-checkpoint base images; FULL log tape (as if the log truncate
    // never hit the disk).
    let post = [devs[0].image(), devs[1].image(), devs[2].image()];
    let log = wal.tape();
    drop(tree);

    let mut clock = SimClock::default();
    let result = IqTree::open_with_wal(
        DIM,
        Metric::Euclidean,
        IqTreeOptions::default(),
        Box::new(MemDevice::from_contents(BS, post[0].clone())),
        Box::new(MemDevice::from_contents(BS, post[1].clone())),
        Box::new(MemDevice::from_contents(BS, post[2].clone())),
        Box::new(MemWal::from_contents(log)),
        &mut clock,
    );
    match result {
        Ok((tree, _)) => {
            assert_eq!(tree.len(), 220);
        }
        Err(e) => panic!("recovery after checkpoint-apply crash failed: {e}"),
    }
}
