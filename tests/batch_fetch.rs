//! A micro-batch's known-set fetch changes what a batched query reads,
//! not the walk it takes. Once a batched query's U is finite it loads
//! every page it can still decode with one Figure 1 fetch, then decodes
//! its pages one at a time, in the order and from the bytes it would
//! without the fetch. So each query of an 8-query micro-batch answers,
//! counts pages, refinements and approximations exactly as the same query
//! run alone on a tree with `scheduled_io: false`, which also takes its
//! pages one at a time; only the batch's level-2 reads fall below one per
//! page it decodes, the reads of the same batch on that tree. A query capped by `nprobes` or by a finite time budget
//! fetches nothing: every level-2 read it makes is one block.

mod common;

use common::knn_micro_batch;
use iqtree_repro::data::{self, Workload};
use iqtree_repro::engine::{AccessMethod, Filter, Query, QueryOptions};
use iqtree_repro::geometry::Metric;
use iqtree_repro::storage::{BlockDevice, IqResult, MemDevice, SimClock};
use iqtree_repro::tree::{IqTree, IqTreeOptions};
use std::sync::{Arc, Mutex};

const BLOCK: usize = 2048;
const DIM: usize = 16;
const K: usize = 10;

/// Every read of one device, as `(start, blocks)`.
type ReadLog = Arc<Mutex<Vec<(u64, u64)>>>;

/// A device that records every read into a [`ReadLog`].
struct LoggedDevice {
    inner: MemDevice,
    reads: ReadLog,
}

impl BlockDevice for LoggedDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_blocks(&self, clock: &mut SimClock, start: u64, buf: &mut [u8]) -> IqResult<()> {
        let n = (buf.len() / self.block_size()) as u64;
        self.reads.lock().expect("log lock").push((start, n));
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

/// Builds the tree over `w` in memory with its level-2 file logged.
fn build(w: &Workload, scheduled_io: bool) -> (IqTree, ReadLog) {
    let reads = Arc::new(Mutex::new(Vec::new()));
    let mut file = 0;
    let tree = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions {
            scheduled_io,
            ..IqTreeOptions::default()
        },
        || {
            file += 1;
            let inner = MemDevice::new(BLOCK);
            if file == 2 {
                Box::new(LoggedDevice {
                    inner,
                    reads: Arc::clone(&reads),
                })
            } else {
                Box::new(inner)
            }
        },
        &mut SimClock::default(),
    );
    reads.lock().expect("log lock").clear();
    (tree, reads)
}

fn workload() -> Workload {
    Workload::generate(20_000, 8, |n| data::cad_like(DIM, n, 7))
}

#[test]
fn the_known_set_fetch_changes_io_not_the_walk() {
    let w = workload();
    let (batched, reads) = build(&w, true);
    let (single, single_reads) = build(&w, false);
    let queries: Vec<&[f32]> = w.queries.iter().collect();
    assert_eq!(queries.len(), 8);
    let third = Filter::from_fn(w.db.len(), |id| id % 3 == 0);
    let rerank = QueryOptions {
        refine_factor: 2,
        ..QueryOptions::EXACT
    };
    for (what, filter, opts) in [
        ("exact", None, QueryOptions::EXACT),
        ("filtered", Some(&third), QueryOptions::EXACT),
        ("refine_factor 2", None, rerank),
    ] {
        reads.lock().expect("log lock").clear();
        let batch = knn_micro_batch(
            &batched,
            &mut SimClock::default(),
            &queries,
            K,
            filter,
            opts,
        );
        // Without scheduled I/O the micro-batch reads the block of each
        // page it decodes once, one block at a time.
        single_reads.lock().expect("log lock").clear();
        knn_micro_batch(&single, &mut SimClock::default(), &queries, K, filter, opts);
        let pages = single_reads.lock().expect("log lock").len();
        for (i, (q, (hits, trace))) in queries.iter().zip(&batch).enumerate() {
            let (want, alone) = single
                .run(
                    &mut SimClock::default(),
                    &Query::Knn {
                        point: q,
                        k: K,
                        filter,
                        opts,
                    },
                )
                .expect("valid query")
                .into_ranked();
            assert_eq!(hits, &want, "{what}, query {i}");
            assert_eq!(trace.pages_processed, alone.pages_processed, "{what}, {i}");
            assert_eq!(trace.refinements, alone.refinements, "{what}, {i}");
            assert_eq!(trace.approx_enqueued, alone.approx_enqueued, "{what}, {i}");
        }
        let reads = reads.lock().expect("log lock");
        assert!(
            reads.len() < pages,
            "{what}: {} level-2 seeks for the {pages} pages the batch decodes",
            reads.len()
        );
    }
}

#[test]
fn a_capped_query_fetches_nothing() {
    let w = workload();
    let (tree, reads) = build(&w, true);
    let queries: Vec<&[f32]> = w.queries.iter().collect();
    let probes = QueryOptions {
        nprobes: Some(4),
        ..QueryOptions::EXACT
    };
    let budget = QueryOptions {
        time_budget: Some(1e6),
        ..QueryOptions::EXACT
    };
    for (what, opts) in [("nprobes 4", probes), ("time budget", budget)] {
        reads.lock().expect("log lock").clear();
        knn_micro_batch(&tree, &mut SimClock::default(), &queries, K, None, opts);
        let reads = reads.lock().expect("log lock");
        assert!(!reads.is_empty(), "{what}: no level-2 read");
        assert!(
            reads.iter().all(|&(_, n)| n == 1),
            "{what}: a read longer than one block: {reads:?}"
        );
    }
}
