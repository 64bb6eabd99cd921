//! X-tree baseline (Berchtold/Keim/Kriegel, VLDB '96).
//!
//! The hierarchical comparator of the IQ-tree evaluation: an R-tree-like
//! index read with one random I/O per visited directory node or data
//! page. Nearest-neighbor search is the Hjaltason/Samet best-first
//! descent — exactly the access pattern whose degeneration in high
//! dimensions the IQ-tree is designed to avoid.
//!
//! The tree is bulk-loaded with the same top-down median partitioning the
//! IQ-tree uses (the paper's reference \[4\]), so the comparison isolates the
//! indexes, not their loaders. The evaluation only queries it, so the
//! index is immutable after [`XTree::build`]: a bulk load packs every
//! directory node into one block, and the original's overlap-minimal
//! split and *supernodes*, which only dynamic inserts need, are not
//! implemented.
//!
//! A data page is one block in the IQ-tree's own page format: an exact
//! (`g = 32`) [`QuantizedPageCodec`] page of `(id, coords)` rows, the
//! paper's Section 3.1 page without a third level. Directory nodes are
//! laid out in [`node`]. The devices carry no checksum layer, so every
//! block read is validated: a node or page that stays unreadable, or
//! whose block does not decode (a forged entry count, an id outside the
//! dataset, a child id past the end), is skipped, a node with its subtree.

#![forbid(unsafe_code)]

pub mod node;

use iq_engine::{
    answer, drive, AccessMethod, Answer, CandidateHeap, Executor, Filter, OrdKey, Query,
    QueryOptions, QueryTrace, Region,
};
use iq_geometry::{bulk_partition, Dataset, Metric};
use iq_obs::{CostPrediction, Phase};
use iq_quantize::{QuantPageView, QuantizedPageCodec, EXACT_BITS};
use iq_storage::{fetch, read_to_vec_retry, BlockBuffer, BlockDevice, IqResult, SimClock};
use node::{DirEntry, Node};
use std::cmp::Reverse;

/// The X-tree.
///
/// # Example
///
/// ```
/// use iq_engine::{AccessMethod, Query};
/// use iq_geometry::{Dataset, Metric};
/// use iq_storage::{MemDevice, SimClock};
/// use iq_xtree::XTree;
///
/// let ds = Dataset::from_flat(2, (0..100).map(|i| i as f32 / 100.0).collect());
/// let mut clock = SimClock::default();
/// let tree = XTree::build(
///     &ds,
///     Metric::Euclidean,
///     Box::new(MemDevice::new(512)),
///     Box::new(MemDevice::new(512)),
///     &mut clock,
/// );
/// let query = Query::Range { point: &[0.5, 0.5], radius: 0.05 };
/// assert!(!tree.run(&mut clock, &query)?.is_empty());
/// # Ok::<(), iq_storage::IqError>(())
/// ```
pub struct XTree {
    dim: usize,
    metric: Metric,
    /// Codec of the data pages, which are stored at `g = 32`.
    codec: QuantizedPageCodec,
    dir: Box<dyn BlockDevice>,
    data: Box<dyn BlockDevice>,
    /// Node id -> block in the directory file (nodes are single blocks).
    nodes: Vec<u64>,
    /// Data page id -> block in the data file (pages are single blocks).
    pages: Vec<u64>,
    root: u32,
    height: usize,
    n: usize,
}

/// Priority-queue target during best-first search.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Target {
    Node(u32),
    Page(u32),
}

impl XTree {
    /// Bulk-loads an X-tree over `ds`.
    ///
    /// # Panics
    /// Panics if `ds` is empty.
    pub fn build(
        ds: &Dataset,
        metric: Metric,
        mut dir: Box<dyn BlockDevice>,
        mut data: Box<dyn BlockDevice>,
        clock: &mut SimClock,
    ) -> Self {
        assert!(!ds.is_empty(), "cannot build an X-tree over an empty set");
        let dim = ds.dim();
        let codec = QuantizedPageCodec::new(dim, data.block_size());
        let parts = bulk_partition(ds, codec.capacity(EXACT_BITS));

        // Write data pages in partition order.
        let mut pages = Vec::with_capacity(parts.len());
        let mut level: Vec<DirEntry> = Vec::with_capacity(parts.len());
        for p in &parts {
            let rows = p.ids.iter().map(|&i| (i, ds.point(i as usize)));
            let start = data
                .append(clock, &codec.encode(&p.mbr, EXACT_BITS, rows))
                .expect("append data page");
            let id = pages.len() as u32;
            pages.push(start);
            level.push(DirEntry {
                child: id,
                mbr: p.mbr.clone(),
            });
        }

        // Build the directory bottom-up over consecutive runs.
        let dir_bs = dir.block_size();
        let node_cap = Node::capacity(dim, dir_bs);
        let mut nodes: Vec<u64> = Vec::new();
        let mut leaf_children = true;
        let mut height = 1usize;
        loop {
            let mut next: Vec<DirEntry> = Vec::new();
            for chunk in level.chunks(node_cap) {
                let node = Node {
                    leaf_children,
                    entries: chunk.to_vec(),
                };
                let start = dir
                    .append(clock, &node.encode(dim, dir_bs))
                    .expect("append directory node");
                let id = nodes.len() as u32;
                nodes.push(start);
                next.push(DirEntry {
                    child: id,
                    mbr: node.mbr(),
                });
            }
            height += 1;
            if next.len() == 1 {
                let root = nodes.len() as u32 - 1;
                return Self {
                    dim,
                    metric,
                    codec,
                    dir,
                    data,
                    nodes,
                    pages,
                    root,
                    height,
                    n: ds.len(),
                };
            }
            level = next;
            leaf_children = false;
        }
    }

    /// Number of data pages.
    pub fn num_data_pages(&self) -> usize {
        self.pages.len()
    }

    /// Tree height including the data level.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Reads directory node `id`, retrying transient faults; `None` once
    /// the retries are spent or when the block is no valid node. A valid
    /// node's children exist: data pages below `pages.len()`, nodes below
    /// `id` itself (the bulk load writes children first), so no forged
    /// block leads the descent out of bounds or round a cycle.
    fn read_node(&self, clock: &mut SimClock, id: u32) -> Option<Node> {
        let start = self.nodes[id as usize];
        let buf = read_to_vec_retry(self.dir.as_ref(), clock, start, 1).ok()?;
        let node = Node::decode(&buf, self.dim).filter(|node| {
            let bound = if node.leaf_children {
                self.pages.len()
            } else {
                id as usize
            };
            node.entries.iter().all(|e| (e.child as usize) < bound)
        });
        if node.is_none() {
            clock.note_corrupt_block();
        }
        node
    }

    /// Reads data page `id`, retrying transient faults; `None` once the
    /// retries are spent.
    fn read_page(&self, clock: &mut SimClock, id: u32) -> Option<Vec<u8>> {
        let start = self.pages[id as usize];
        read_to_vec_retry(self.data.as_ref(), clock, start, 1).ok()
    }

    /// The data page in `bytes`, or `None`, counted as a corrupt block,
    /// when its header does not describe an exact page that fits them or
    /// one of its ids lies outside the dataset.
    fn page_view<'b>(&self, clock: &mut SimClock, bytes: &'b [u8]) -> Option<QuantPageView<'b>> {
        let view = self.codec.try_view(bytes).ok().filter(|v| {
            v.bits() == EXACT_BITS && (0..v.len()).all(|i| (v.id(i) as usize) < self.n)
        });
        if view.is_none() {
            clock.note_corrupt_block();
        }
        view
    }

    /// Descends the directory, returning the data pages whose MBR meets
    /// `region` (directory nodes are read with random I/O, as on any
    /// hierarchical index). A node that stays unreadable is skipped with
    /// its subtree. `trace` counts each node read as a run, each entry
    /// that meets the region as enqueued and each node lost.
    fn collect_pages(
        &self,
        clock: &mut SimClock,
        region: &Region,
        trace: &mut QueryTrace,
    ) -> Vec<u32> {
        clock.phase_begin(Phase::Directory);
        let mut pages = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let Some(node) = self.read_node(clock, id) else {
                trace.pages_lost += 1;
                continue;
            };
            clock.charge_dist_evals(self.dim, node.entries.len() as u64);
            trace.runs += 1;
            for e in node.entries.iter().filter(|e| region.meets(&e.mbr)) {
                trace.approx_enqueued += 1;
                if node.leaf_children {
                    pages.push(e.child);
                } else {
                    stack.push(e.child);
                }
            }
        }
        pages
    }

    /// The range and window search: the directory descent determines the
    /// full set of candidate data pages up front (the paper's Section 2
    /// observation), which are then loaded with one optimal batch-fetch
    /// plan instead of one random access each; their points in `region`
    /// are the hits. A page of a run that stayed unreadable degrades to
    /// one retried read of its own; a page that stays unreadable or does
    /// not decode is skipped, and the query completes on what is left.
    /// The trace counts reads as runs, pages decoded as processed and
    /// nodes and pages skipped as lost, as the k-NN trace does.
    fn search_region(&self, clock: &mut SimClock, region: &Region) -> (Vec<u32>, QueryTrace) {
        let mut trace = QueryTrace::default();
        let pages = self.collect_pages(clock, region, &mut trace);
        clock.phase_begin(Phase::Filter);
        let mut positions: Vec<u64> = pages.iter().map(|&id| self.pages[id as usize]).collect();
        positions.sort_unstable();
        positions.dedup();
        let mut fetched = BlockBuffer::new(self.data.block_size());
        trace.runs += fetch::fetch_blocks(self.data.as_ref(), clock, &positions, &mut fetched);
        let mut coords = Vec::new();
        let mut out = Vec::new();
        for &id in &pages {
            let reread;
            let bytes = match fetched.block(self.pages[id as usize]) {
                Some(bytes) => Some(bytes),
                None => {
                    reread = self.read_page(clock, id);
                    trace.runs += u64::from(reread.is_some());
                    reread.as_deref()
                }
            };
            let Some(page) = bytes.and_then(|b| self.page_view(clock, b)) else {
                trace.pages_lost += 1;
                continue;
            };
            clock.charge_dist_evals(self.dim, page.len() as u64);
            trace.pages_processed += 1;
            page.for_each_point(&mut coords, |pid, p| {
                if region.holds(p) {
                    out.push(pid);
                }
            });
        }
        (out, trace)
    }

    /// Exact k-NN via the best-first (Hjaltason/Samet) descent, as a
    /// producer into the shared bound-driven [`Executor`]: directory
    /// nodes and data pages stream through [`drive`] in ascending MINDIST
    /// order; pruning, ε-termination and the budgets live in the
    /// executor. A pushed-down `filter` drops non-matching points at
    /// page-decode time, so the pruning bound derives only from matching
    /// points and stays exact — no top-up rounds. `nprobes` counts
    /// decoded data pages — once spent, no further page read can improve
    /// the answer, so the descent stops outright.
    ///
    /// The trace counts directory nodes and data pages read as
    /// [`QueryTrace::runs`] (one random I/O each) and data pages decoded
    /// as `pages_processed`. A node or page that stays unreadable after
    /// retries, or does not decode, is skipped, a node with its whole
    /// subtree, and counted in `pages_lost`: the answer then comes from
    /// what was read.
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
        let mut coords = Vec::new();
        let mut heap: CandidateHeap<Target> = CandidateHeap::new();
        heap.push(Reverse((OrdKey(0.0), Target::Node(self.root))));
        drive(
            &mut exec,
            clock,
            &mut heap,
            |exec, clock, _mindist, target, heap| match target {
                Target::Node(id) => {
                    clock.phase_begin(Phase::Directory);
                    let Some(node) = self.read_node(clock, id) else {
                        exec.trace.pages_lost += 1;
                        return;
                    };
                    clock.charge_dist_evals(self.dim, node.entries.len() as u64);
                    exec.trace.runs += 1;
                    for e in &node.entries {
                        let d = metric.mindist_key(q, &e.mbr);
                        if !exec.is_pruned(d) {
                            let t = if node.leaf_children {
                                Target::Page(e.child)
                            } else {
                                Target::Node(e.child)
                            };
                            exec.trace.approx_enqueued += 1;
                            heap.push(Reverse((OrdKey(d), t)));
                        }
                    }
                }
                Target::Page(id) => {
                    if !exec.try_probe() {
                        exec.stop();
                        return;
                    }
                    clock.phase_begin(Phase::Filter);
                    let bytes = self.read_page(clock, id);
                    let Some(page) = bytes.as_deref().and_then(|b| self.page_view(clock, b)) else {
                        exec.trace.pages_lost += 1;
                        return;
                    };
                    clock.charge_dist_evals(self.dim, page.len() as u64);
                    exec.trace.runs += 1;
                    exec.trace.pages_processed += 1;
                    page.for_each_point(&mut coords, |pid, p| {
                        if filter.is_none_or(|f| f.matches(pid)) {
                            exec.offer(metric.distance_key(p, q), pid);
                        }
                    });
                }
            },
        );
        clock.phase_begin(Phase::TopK);
        exec.into_results(metric)
    }
}

impl AccessMethod for XTree {
    fn name(&self) -> &'static str {
        "xtree"
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

    /// k-NN by the best-first descent, range and window by one descent
    /// and a batch fetch of the pages it finds.
    fn run(&self, clock: &mut SimClock, query: &Query) -> IqResult<Answer> {
        answer(
            self,
            clock,
            query,
            |clock, q, k, filter, opts| self.search_knn(clock, q, k, filter, opts),
            |clock, region| self.search_region(clock, region),
        )
    }

    /// Sphere-volume estimate of the leaves a best-first k-NN descent
    /// touches (the same eqs 16–18 the IQ-tree uses, under a uniformity
    /// assumption), plus roughly one directory node per level per
    /// accessed leaf path. The X-tree reads exact points from its data
    /// pages, so there is no separate refinement level.
    fn cost_prediction(&self, k: usize, opts: &QueryOptions) -> Option<CostPrediction> {
        let n_pages = self.pages.len();
        if n_pages == 0 {
            return None;
        }
        let disk = iq_storage::DiskModel::default();
        let params = iq_cost::DirectoryParams::new(self.metric, self.dim, self.dim as f64, self.n);
        let mut leaf = iq_cost::expected_pages_accessed_knn(&params, n_pages, k.max(1));
        if let Some(m) = opts.nprobes {
            leaf = leaf.min(m as f64);
        }
        let dir_nodes =
            ((self.height.saturating_sub(1)) as f64 * leaf.max(1.0)).min(self.nodes.len() as f64);
        // Every node and page read is a random single-block access.
        let mut io_seconds = (leaf + dir_nodes) * (disk.t_seek + disk.t_xfer);
        if let Some(b) = opts.time_budget {
            io_seconds = io_seconds.min(b);
        }
        Some(CostPrediction {
            pages: leaf,
            io_seconds,
            filter_pages: leaf,
            refine_pages: 0.0,
        })
    }
}

// Queries take `&self` and the tree is immutable after `build`; an X-tree
// shared across threads must stay usable.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<XTree>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use iq_storage::{CpuModel, DiskModel, MemDevice};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn knn(t: &XTree, clock: &mut SimClock, q: &[f32], k: usize) -> Vec<(u32, f64)> {
        t.run(clock, &Query::knn(q, k))
            .expect("valid query")
            .into_ranked()
            .0
    }

    fn random_ds(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        let mut row = vec![0.0f32; dim];
        for _ in 0..n {
            row.fill_with(|| rng.gen());
            ds.push(&row);
        }
        ds
    }

    fn make(n: usize, dim: usize, seed: u64, bs: usize) -> (Dataset, XTree, SimClock) {
        let ds = random_ds(n, dim, seed);
        let mut clock = SimClock::new(DiskModel::default(), CpuModel::free());
        let tree = XTree::build(
            &ds,
            Metric::Euclidean,
            Box::new(MemDevice::new(bs)),
            Box::new(MemDevice::new(bs)),
            &mut clock,
        );
        clock.reset();
        (ds, tree, clock)
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
        let (ds, t, mut clock) = make(800, 6, 1, 1024);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let q: Vec<f32> = (0..6).map(|_| rng.gen()).collect();
            let (id, d) = knn(&t, &mut clock, &q, 1)[0];
            let expect = brute_knn(&ds, &q, 1)[0];
            assert!((d - expect.1).abs() < 1e-9, "{id} vs {}", expect.0);
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let (ds, t, mut clock) = make(500, 4, 2, 1024);
        let q = vec![0.5f32; 4];
        let got = knn(&t, &mut clock, &q, 9);
        let expect = brute_knn(&ds, &q, 9);
        assert_eq!(got.len(), 9);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g.1 - e.1).abs() < 1e-9);
        }
    }

    #[test]
    fn range_matches_brute_force() {
        let (ds, t, mut clock) = make(600, 5, 3, 1024);
        let q = vec![0.4f32; 5];
        let r = 0.45;
        let query = Query::Range {
            point: &q,
            radius: r,
        };
        let mut got = t.run(&mut clock, &query).expect("valid query").ids();
        got.sort_unstable();
        let mut expect: Vec<u32> = (0..ds.len() as u32)
            .filter(|&i| Metric::Euclidean.distance(ds.point(i as usize), &q) <= r)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn build_produces_multi_level_tree() {
        let (_, t, _) = make(5_000, 8, 4, 1024);
        assert!(t.height() >= 3, "height {}", t.height());
        assert!(t.num_data_pages() > 100);
    }

    #[test]
    fn search_prunes_compared_to_reading_everything() {
        let (_, t, mut clock) = make(5_000, 4, 5, 1024);
        knn(&t, &mut clock, &[0.5f32; 4], 1);
        // In 4-d the tree should visit far fewer blocks than a full scan.
        let total = t.num_data_pages() as u64;
        assert!(
            clock.stats().blocks_read < total / 2,
            "read {} of {} pages",
            clock.stats().blocks_read,
            total
        );
    }
}
