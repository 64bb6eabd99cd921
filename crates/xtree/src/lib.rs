//! X-tree baseline (Berchtold/Keim/Kriegel, VLDB '96).
//!
//! The hierarchical comparator of the IQ-tree evaluation: an R-tree-like
//! index whose directory avoids overlap by (a) an overlap-minimal split and
//! (b) *supernodes* — directory nodes enlarged to a multiple of the block
//! size when no good split exists. Nearest-neighbor search is the
//! Hjaltason/Samet best-first descent with one random I/O per visited node
//! or data page — exactly the access pattern whose degeneration in high
//! dimensions the IQ-tree is designed to avoid.
//!
//! The tree is bulk-loaded with the same top-down median partitioning the
//! IQ-tree uses (the paper's reference \[4\]), so the comparison isolates the
//! indexes, not their loaders. Dynamic inserts with the X-tree split /
//! supernode machinery are supported as well.

#![forbid(unsafe_code)]

pub mod node;
pub mod split;

use iq_engine::{
    drive, knn_query, range_query, window_query, AccessMethod, CandidateHeap, Executor, Filter,
    OrdKey, QueryOptions, QueryTrace,
};
use iq_geometry::{bulk_partition, Dataset, Mbr, Metric};
use iq_obs::{CostPrediction, Phase};
use iq_storage::{fetch, BlockDevice, SimClock};
use node::{DataPage, DirEntry, Node};
use split::{group_mbr, split_entries, SplitDecision};
use std::cmp::Reverse;

/// Tuning options.
#[derive(Clone, Copy, Debug)]
pub struct XTreeOptions {
    /// Maximum size of a supernode, in blocks.
    pub max_supernode_blocks: u32,
}

impl Default for XTreeOptions {
    fn default() -> Self {
        Self {
            max_supernode_blocks: 8,
        }
    }
}

/// Location of a node in the directory file.
#[derive(Clone, Copy, Debug)]
struct NodeAddr {
    start: u64,
    nblocks: u32,
}

/// The X-tree.
///
/// # Example
///
/// ```
/// use iq_engine::AccessMethod;
/// use iq_geometry::{Dataset, Metric};
/// use iq_storage::{MemDevice, SimClock};
/// use iq_xtree::{XTree, XTreeOptions};
///
/// let ds = Dataset::from_flat(2, (0..100).map(|i| i as f32 / 100.0).collect());
/// let mut clock = SimClock::default();
/// let tree = XTree::build(
///     &ds,
///     Metric::Euclidean,
///     XTreeOptions::default(),
///     Box::new(MemDevice::new(512)),
///     Box::new(MemDevice::new(512)),
///     &mut clock,
/// );
/// let hits = tree.range(&mut clock, &[0.5, 0.5], 0.05);
/// assert!(!hits.is_empty());
/// ```
pub struct XTree {
    dim: usize,
    metric: Metric,
    opts: XTreeOptions,
    dir: Box<dyn BlockDevice>,
    data: Box<dyn BlockDevice>,
    nodes: Vec<NodeAddr>,
    /// Data page id -> block in the data file (pages are single blocks).
    pages: Vec<u64>,
    root: u32,
    height: usize,
    n: usize,
    supernodes: usize,
}

/// Result of a recursive delete below one directory entry.
enum DeleteOutcome {
    /// The id was not found in this subtree.
    NotFound,
    /// Removed; the subtree's tightened MBR.
    Updated(Mbr),
    /// Removed and the subtree is now empty: unlink its entry.
    Emptied,
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
        opts: XTreeOptions,
        mut dir: Box<dyn BlockDevice>,
        mut data: Box<dyn BlockDevice>,
        clock: &mut SimClock,
    ) -> Self {
        assert!(!ds.is_empty(), "cannot build an X-tree over an empty set");
        let dim = ds.dim();
        let bs = data.block_size();
        let data_cap = DataPage::capacity(dim, bs);
        let parts = bulk_partition(ds, data_cap);

        // Write data pages in partition order.
        let mut pages = Vec::with_capacity(parts.len());
        let mut level: Vec<DirEntry> = Vec::with_capacity(parts.len());
        for p in &parts {
            let dp = DataPage {
                ids: p.ids.clone(),
                coords: p
                    .ids
                    .iter()
                    .flat_map(|&i| ds.point(i as usize).iter().copied())
                    .collect(),
            };
            let start = data
                .append(clock, &dp.encode(dim, bs))
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
        let node_cap = Node::capacity(dim, dir_bs, 1);
        let mut nodes: Vec<NodeAddr> = Vec::new();
        let mut leaf_children = true;
        let mut height = 1usize;
        loop {
            let mut next: Vec<DirEntry> = Vec::new();
            for chunk in level.chunks(node_cap) {
                let node = Node {
                    leaf_children,
                    nblocks: 1,
                    entries: chunk.to_vec(),
                };
                let start = dir
                    .append(clock, &node.encode(dim, dir_bs))
                    .expect("append directory node");
                let id = nodes.len() as u32;
                nodes.push(NodeAddr { start, nblocks: 1 });
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
                    opts,
                    dir,
                    data,
                    nodes,
                    pages,
                    root,
                    height,
                    n: ds.len(),
                    supernodes: 0,
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

    /// Number of supernodes created by dynamic inserts.
    pub fn num_supernodes(&self) -> usize {
        self.supernodes
    }

    fn read_node(&self, clock: &mut SimClock, id: u32) -> Node {
        let addr = self.nodes[id as usize];
        let buf = self
            .dir
            .read_to_vec(clock, addr.start, u64::from(addr.nblocks))
            .expect("read directory node");
        Node::decode(&buf, self.dim)
    }

    fn write_node(&mut self, clock: &mut SimClock, id: u32, node: &Node) {
        let dir_bs = self.dir.block_size();
        let needed = node.blocks_needed(self.dim, dir_bs);
        let addr = self.nodes[id as usize];
        let mut node = node.clone();
        node.nblocks = needed.max(node.nblocks);
        let bytes = node.encode(self.dim, dir_bs);
        if node.nblocks == addr.nblocks {
            self.dir
                .write_blocks(clock, addr.start, &bytes)
                .expect("write directory node");
        } else {
            let start = self
                .dir
                .append(clock, &bytes)
                .expect("append directory node");
            self.nodes[id as usize] = NodeAddr {
                start,
                nblocks: node.nblocks,
            };
        }
    }

    fn read_page(&self, clock: &mut SimClock, id: u32) -> DataPage {
        let start = self.pages[id as usize];
        let buf = self
            .data
            .read_to_vec(clock, start, 1)
            .expect("read data page");
        DataPage::decode(&buf, self.dim)
    }

    fn write_page(&mut self, clock: &mut SimClock, id: u32, page: &DataPage) {
        let bs = self.data.block_size();
        let bytes = page.encode(self.dim, bs);
        let start = self.pages[id as usize];
        self.data
            .write_blocks(clock, start, &bytes)
            .expect("write data page");
    }

    fn append_page(&mut self, clock: &mut SimClock, page: &DataPage) -> u32 {
        let bs = self.data.block_size();
        let start = self
            .data
            .append(clock, &page.encode(self.dim, bs))
            .expect("append data page");
        self.pages.push(start);
        self.pages.len() as u32 - 1
    }

    fn append_node(&mut self, clock: &mut SimClock, node: &Node) -> u32 {
        let dir_bs = self.dir.block_size();
        let start = self
            .dir
            .append(clock, &node.encode(self.dim, dir_bs))
            .expect("append directory node");
        self.nodes.push(NodeAddr {
            start,
            nblocks: node.nblocks,
        });
        self.nodes.len() as u32 - 1
    }

    /// Descends the directory, returning the data pages whose MBR satisfies
    /// `select` (directory nodes are read with random I/O, as on any
    /// hierarchical index).
    fn collect_pages(
        &self,
        clock: &mut SimClock,
        select: impl Fn(&iq_geometry::Mbr) -> bool,
    ) -> Vec<u32> {
        clock.phase_begin(Phase::Directory);
        let mut pages = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = self.read_node(clock, id);
            clock.charge_dist_evals(self.dim, node.entries.len() as u64);
            for e in &node.entries {
                if select(&e.mbr) {
                    if node.leaf_children {
                        pages.push(e.child);
                    } else {
                        stack.push(e.child);
                    }
                }
            }
        }
        pages
    }

    /// Loads the given data pages with one optimal batch-fetch plan and
    /// feeds each decoded page to `visit`. A failed sweep (or a page the
    /// plan somehow misses) degrades to one direct read per page; a page
    /// that stays unreadable is skipped — the corruption is visible in the
    /// clock's I/O statistics, and the query completes on what is left.
    fn visit_pages_batched(
        &self,
        clock: &mut SimClock,
        pages: &[u32],
        mut visit: impl FnMut(usize, &DataPage),
    ) {
        clock.phase_begin(Phase::Filter);
        let mut positions: Vec<u64> = pages.iter().map(|&id| self.pages[id as usize]).collect();
        positions.sort_unstable();
        positions.dedup();
        let fetched = fetch::fetch_blocks(self.data.as_ref(), clock, &positions).ok();
        let bs = self.data.block_size();
        for &id in pages {
            let pos = self.pages[id as usize];
            let reread;
            let bytes = match fetched.as_deref().and_then(|f| fetch::block_in(f, pos, bs)) {
                Some(b) => b,
                None => match self.data.read_to_vec(clock, pos, 1) {
                    Ok(b) => {
                        reread = b;
                        &reread
                    }
                    Err(_) => continue,
                },
            };
            let page = DataPage::decode(bytes, self.dim);
            clock.charge_dist_evals(self.dim, page.len() as u64);
            visit(self.dim, &page);
        }
    }

    /// Deletes the point `id` located at `p`. Returns `true` if found.
    ///
    /// Standard R-tree deletion restricted to what the evaluation needs:
    /// the point is removed from its data page, emptied pages (and then
    /// emptied directory nodes) are unlinked, and ancestor MBRs are
    /// tightened. Underflowing (but non-empty) pages are tolerated rather
    /// than condensed by reinsertion.
    pub fn delete(&mut self, clock: &mut SimClock, id: u32, p: &[f32]) -> bool {
        assert_eq!(p.len(), self.dim, "point dimensionality mismatch");
        match self.delete_rec(clock, self.root, id, p) {
            DeleteOutcome::NotFound => false,
            DeleteOutcome::Updated(_) => true,
            DeleteOutcome::Emptied => {
                // The whole tree is empty: store an empty leaf-level root.
                let empty = Node {
                    leaf_children: true,
                    nblocks: 1,
                    entries: Vec::new(),
                };
                self.write_node(clock, self.root, &empty);
                true
            }
        }
    }

    fn delete_rec(
        &mut self,
        clock: &mut SimClock,
        node_id: u32,
        id: u32,
        p: &[f32],
    ) -> DeleteOutcome {
        let mut node = self.read_node(clock, node_id);
        clock.charge_dist_evals(self.dim, node.entries.len() as u64);
        for idx in 0..node.entries.len() {
            if !node.entries[idx].mbr.contains_point(p) {
                continue;
            }
            let child = node.entries[idx].child;
            let outcome = if node.leaf_children {
                let mut page = self.read_page(clock, child);
                if let Some(pos) = page.ids.iter().position(|&x| x == id) {
                    page.ids.remove(pos);
                    page.coords.drain(pos * self.dim..(pos + 1) * self.dim);
                    self.n -= 1;
                    if page.is_empty() {
                        DeleteOutcome::Emptied
                    } else {
                        self.write_page(clock, child, &page);
                        DeleteOutcome::Updated(page.mbr(self.dim))
                    }
                } else {
                    DeleteOutcome::NotFound
                }
            } else {
                self.delete_rec(clock, child, id, p)
            };
            match outcome {
                DeleteOutcome::NotFound => continue,
                DeleteOutcome::Updated(mbr) => {
                    node.entries[idx].mbr = mbr;
                    self.write_node(clock, node_id, &node);
                    return DeleteOutcome::Updated(node.mbr());
                }
                DeleteOutcome::Emptied => {
                    node.entries.remove(idx);
                    if node.entries.is_empty() {
                        return DeleteOutcome::Emptied;
                    }
                    self.write_node(clock, node_id, &node);
                    return DeleteOutcome::Updated(node.mbr());
                }
            }
        }
        DeleteOutcome::NotFound
    }

    /// Inserts a point with the given id.
    ///
    /// Descends by least volume enlargement; a data-page overflow splits the
    /// page at the median of its longest dimension; directory overflows use
    /// the X-tree split-or-supernode decision.
    pub fn insert(&mut self, clock: &mut SimClock, id: u32, p: &[f32]) {
        assert_eq!(p.len(), self.dim);
        // An emptied tree (all points deleted): seed a fresh first page.
        {
            let root = self.read_node(clock, self.root);
            if root.entries.is_empty() {
                let page = DataPage {
                    ids: vec![id],
                    coords: p.to_vec(),
                };
                let page_id = self.append_page(clock, &page);
                let node = Node {
                    leaf_children: true,
                    nblocks: 1,
                    entries: vec![DirEntry {
                        child: page_id,
                        mbr: page.mbr(self.dim),
                    }],
                };
                self.write_node(clock, self.root, &node);
                self.n += 1;
                return;
            }
        }
        // Descend, recording the path (node id, chosen entry index).
        let mut path: Vec<(u32, usize)> = Vec::with_capacity(self.height);
        let mut node_id = self.root;
        let page_id = loop {
            let node = self.read_node(clock, node_id);
            let chosen = node
                .entries
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let ea = a.mbr.enlargement_for_point(p);
                    let eb = b.mbr.enlargement_for_point(p);
                    ea.partial_cmp(&eb)
                        .expect("no NaN")
                        .then_with(|| a.mbr.volume().partial_cmp(&b.mbr.volume()).expect("no NaN"))
                })
                .map(|(i, _)| i)
                .expect("nodes are never empty");
            path.push((node_id, chosen));
            let e = &node.entries[chosen];
            if node.leaf_children {
                break e.child;
            }
            node_id = e.child;
        };

        // Insert into the data page.
        let bs = self.data.block_size();
        let cap = DataPage::capacity(self.dim, bs);
        let mut page = self.read_page(clock, page_id);
        page.ids.push(id);
        page.coords.extend_from_slice(p);
        self.n += 1;

        // Pending replacement for the parent entry, plus an optional new
        // sibling entry to add at the leaf directory level.
        let (updated_entry, mut pending_new): (DirEntry, Option<DirEntry>) = if page.len() <= cap {
            self.write_page(clock, page_id, &page);
            (
                DirEntry {
                    child: page_id,
                    mbr: page.mbr(self.dim),
                },
                None,
            )
        } else {
            // Median split along the page MBR's longest dimension.
            let mbr = page.mbr(self.dim);
            let axis = mbr.longest_dim();
            let mut order: Vec<usize> = (0..page.len()).collect();
            order.sort_by(|&a, &b| {
                page.point(a, self.dim)[axis]
                    .partial_cmp(&page.point(b, self.dim)[axis])
                    .expect("no NaN")
            });
            let mid = order.len() / 2;
            let take = |idxs: &[usize]| -> DataPage {
                DataPage {
                    ids: idxs.iter().map(|&i| page.ids[i]).collect(),
                    coords: idxs
                        .iter()
                        .flat_map(|&i| page.point(i, self.dim).iter().copied())
                        .collect(),
                }
            };
            let left = take(&order[..mid]);
            let right = take(&order[mid..]);
            self.write_page(clock, page_id, &left);
            let right_id = self.append_page(clock, &right);
            (
                DirEntry {
                    child: page_id,
                    mbr: left.mbr(self.dim),
                },
                Some(DirEntry {
                    child: right_id,
                    mbr: right.mbr(self.dim),
                }),
            )
        };

        // Propagate up the path.
        let mut replace = updated_entry;
        for depth in (0..path.len()).rev() {
            let (nid, slot) = path[depth];
            let mut node = self.read_node(clock, nid);
            node.entries[slot] = replace;
            if let Some(new_e) = pending_new.take() {
                node.entries.push(new_e);
            }
            let dir_bs = self.dir.block_size();
            let cap_now = Node::capacity(self.dim, dir_bs, node.nblocks);
            if node.entries.len() <= cap_now {
                self.write_node(clock, nid, &node);
                replace = DirEntry {
                    child: nid,
                    mbr: node.mbr(),
                };
            } else {
                let may_grow = node.nblocks < self.opts.max_supernode_blocks;
                match split_entries(&node.entries, self.dim, may_grow) {
                    SplitDecision::Supernode => {
                        node.nblocks += 1;
                        self.supernodes += 1;
                        self.write_node(clock, nid, &node);
                        replace = DirEntry {
                            child: nid,
                            mbr: node.mbr(),
                        };
                    }
                    SplitDecision::Split(l, r) => {
                        let leaf = node.leaf_children;
                        let mut left = Node {
                            leaf_children: leaf,
                            nblocks: 1,
                            entries: l,
                        };
                        left.nblocks = left.blocks_needed(self.dim, dir_bs);
                        let mut right = Node {
                            leaf_children: leaf,
                            nblocks: 1,
                            entries: r,
                        };
                        right.nblocks = right.blocks_needed(self.dim, dir_bs);
                        // Reuse the id for the left half; the supernode's
                        // extra blocks (if any) are abandoned.
                        self.nodes[nid as usize] = NodeAddr {
                            start: self
                                .dir
                                .append(clock, &left.encode(self.dim, dir_bs))
                                .expect("append directory node"),
                            nblocks: left.nblocks,
                        };
                        let right_id = self.append_node(clock, &right);
                        replace = DirEntry {
                            child: nid,
                            mbr: group_mbr(&left.entries),
                        };
                        pending_new = Some(DirEntry {
                            child: right_id,
                            mbr: group_mbr(&right.entries),
                        });
                    }
                }
            }
        }

        // Root overflow: grow a new root.
        if let Some(new_e) = pending_new {
            // The new root's children are the old root and its split
            // sibling -- always directory nodes.
            let root_node = Node {
                leaf_children: false,
                nblocks: 1,
                entries: vec![replace, new_e],
            };
            let new_root = self.append_node(clock, &root_node);
            self.root = new_root;
            self.height += 1;
        }
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
    /// as `pages_processed`.
    fn knn_opts_traced(
        &self,
        clock: &mut SimClock,
        q: &[f32],
        k: usize,
        filter: Option<&Filter>,
        opts: &QueryOptions,
    ) -> (Vec<(u32, f64)>, QueryTrace) {
        knn_query(self, clock, q, k, filter, opts, |clock| {
            let metric = self.metric;
            let mut exec = Executor::new(metric, k, opts, clock);
            let mut heap: CandidateHeap<Target> = CandidateHeap::new();
            heap.push(Reverse((OrdKey(0.0), Target::Node(self.root))));
            drive(
                &mut exec,
                clock,
                &mut heap,
                |exec, clock, _mindist, target, heap| match target {
                    Target::Node(id) => {
                        clock.phase_begin(Phase::Directory);
                        let node = self.read_node(clock, id);
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
                        let page = self.read_page(clock, id);
                        clock.charge_dist_evals(self.dim, page.len() as u64);
                        exec.trace.runs += 1;
                        exec.trace.pages_processed += 1;
                        for (i, &pid) in page.ids.iter().enumerate() {
                            if filter.is_none_or(|f| f.matches(pid)) {
                                exec.offer(metric.distance_key(page.point(i, self.dim), q), pid);
                            }
                        }
                    }
                },
            );
            clock.phase_begin(Phase::TopK);
            let out = exec.into_results(metric);
            clock.phase_end();
            out
        })
    }

    /// All points within `radius` of `q` (unordered ids).
    ///
    /// The directory descent determines the full set of candidate data
    /// pages up front (the paper's Section 2 observation for range
    /// queries), which are then loaded with the optimal batch-fetch
    /// schedule instead of one random access each.
    fn range(&self, clock: &mut SimClock, q: &[f32], radius: f64) -> Vec<u32> {
        range_query(self, clock, q, radius, |clock| {
            let key_r = self.metric.distance_to_key(radius);
            let metric = self.metric;
            let pages = self.collect_pages(clock, |mbr| metric.mindist_key(q, mbr) <= key_r);
            let mut out = Vec::new();
            self.visit_pages_batched(clock, &pages, |dim, page| {
                for (i, &pid) in page.ids.iter().enumerate() {
                    if metric.distance_key(page.point(i, dim), q) <= key_r {
                        out.push(pid);
                    }
                }
            });
            out
        })
    }

    /// All points inside the query window (unordered ids), with batched
    /// data-page loading like `range`.
    fn window(&self, clock: &mut SimClock, window: &iq_geometry::Mbr) -> Vec<u32> {
        window_query(self, clock, window, |clock| {
            let pages = self.collect_pages(clock, |mbr| mbr.intersects(window));
            let mut out = Vec::new();
            self.visit_pages_batched(clock, &pages, |dim, page| {
                for (i, &pid) in page.ids.iter().enumerate() {
                    if window.contains_point(page.point(i, dim)) {
                        out.push(pid);
                    }
                }
            });
            out
        })
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

// Queries take `&self`; an X-tree shared across threads must stay usable
// (inserts and deletes still require exclusive `&mut` access).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<XTree>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use iq_storage::{CpuModel, DiskModel, MemDevice};
    use rand::{rngs::StdRng, Rng, SeedableRng};

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
            XTreeOptions::default(),
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
            let (id, d) = t.nearest(&mut clock, &q).expect("non-empty");
            let expect = brute_knn(&ds, &q, 1)[0];
            assert!((d - expect.1).abs() < 1e-9, "{id} vs {}", expect.0);
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let (ds, t, mut clock) = make(500, 4, 2, 1024);
        let q = vec![0.5f32; 4];
        let got = t.knn(&mut clock, &q, 9);
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
        let mut got = t.range(&mut clock, &q, r);
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
        t.nearest(&mut clock, &[0.5f32; 4]);
        // In 4-d the tree should visit far fewer blocks than a full scan.
        let total = t.num_data_pages() as u64;
        assert!(
            clock.stats().blocks_read < total / 2,
            "read {} of {} pages",
            clock.stats().blocks_read,
            total
        );
    }

    #[test]
    fn dynamic_inserts_preserve_correctness() {
        let base = random_ds(400, 4, 6);
        let extra = random_ds(300, 4, 7);
        let mut clock = SimClock::new(DiskModel::default(), CpuModel::free());
        let mut t = XTree::build(
            &base,
            Metric::Euclidean,
            XTreeOptions::default(),
            Box::new(MemDevice::new(512)),
            Box::new(MemDevice::new(512)),
            &mut clock,
        );
        for (i, p) in extra.iter().enumerate() {
            t.insert(&mut clock, (400 + i) as u32, p);
        }
        assert_eq!(t.len(), 700);
        // Combined ground truth.
        let mut all = base.clone();
        for p in extra.iter() {
            all.push(p);
        }
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..15 {
            let q: Vec<f32> = (0..4).map(|_| rng.gen()).collect();
            let (_, d) = t.nearest(&mut clock, &q).expect("non-empty");
            let expect = brute_knn(&all, &q, 1)[0];
            assert!((d - expect.1).abs() < 1e-9);
        }
    }

    #[test]
    fn delete_removes_points_and_tightens() {
        let (ds, mut t, mut clock) = make(600, 4, 91, 1024);
        for i in 0..300u32 {
            assert!(t.delete(&mut clock, i, ds.point(i as usize)), "point {i}");
        }
        assert_eq!(t.len(), 300);
        // Deleted points are gone; survivors answer exactly.
        for i in (300..600).step_by(50) {
            let (id, d) = t.nearest(&mut clock, ds.point(i)).expect("non-empty");
            assert_eq!(id as usize, i);
            assert!(d < 1e-9);
        }
        for i in (0..300).step_by(50) {
            let hits = t.range(&mut clock, ds.point(i), 1e-9);
            assert!(hits.iter().all(|&h| h >= 300));
        }
        // Deleting twice reports false.
        assert!(!t.delete(&mut clock, 0, ds.point(0)));
    }

    #[test]
    fn delete_everything_then_insert_again() {
        let (ds, mut t, mut clock) = make(200, 3, 92, 512);
        for i in 0..200u32 {
            assert!(t.delete(&mut clock, i, ds.point(i as usize)));
        }
        assert_eq!(t.len(), 0);
        assert!(t.nearest(&mut clock, &[0.5, 0.5, 0.5]).is_none());
        t.insert(&mut clock, 777, &[0.25, 0.5, 0.75]);
        assert_eq!(t.len(), 1);
        let (id, d) = t
            .nearest(&mut clock, &[0.25, 0.5, 0.75])
            .expect("non-empty");
        assert_eq!(id, 777);
        assert!(d < 1e-9);
    }

    #[test]
    fn knn_on_a_tree_emptied_by_deletes_charges_nothing() {
        let (ds, mut t, mut clock) = make(50, 3, 93, 512);
        for i in 0..50u32 {
            assert!(t.delete(&mut clock, i, ds.point(i as usize)));
        }
        clock.reset();
        assert!(t.nearest(&mut clock, &[0.5, 0.5, 0.5]).is_none());
        assert_eq!(clock.total_time(), 0.0, "no root read for an empty tree");
    }

    #[test]
    fn queries_remain_exact_with_supernodes_present() {
        // Force supernodes (highly overlapping high-dim inserts), then
        // verify NN and range results against brute force.
        let mut rng = StdRng::seed_from_u64(77);
        let mut ds = Dataset::new(10);
        let mut row = vec![0.0f32; 10];
        for _ in 0..150 {
            row.fill_with(|| rng.gen());
            ds.push(&row);
        }
        let mut clock = SimClock::default();
        let mut t = XTree::build(
            &ds,
            Metric::Euclidean,
            XTreeOptions::default(),
            Box::new(MemDevice::new(512)),
            Box::new(MemDevice::new(512)),
            &mut clock,
        );
        let mut all = ds.clone();
        for i in 0..1_200u32 {
            row.fill_with(|| rng.gen());
            t.insert(&mut clock, 150 + i, &row);
            all.push(&row);
        }
        assert!(
            t.num_supernodes() > 0,
            "setup must actually create supernodes"
        );
        for _ in 0..10 {
            let q: Vec<f32> = (0..10).map(|_| rng.gen()).collect();
            let (_, d) = t.nearest(&mut clock, &q).expect("non-empty");
            let expect = brute_knn(&all, &q, 1)[0].1;
            assert!((d - expect).abs() < 1e-6);
        }
        let q = vec![0.5f32; 10];
        let mut got = t.range(&mut clock, &q, 0.8);
        got.sort_unstable();
        let mut expect: Vec<u32> = (0..all.len() as u32)
            .filter(|&i| Metric::Euclidean.distance(all.point(i as usize), &q) <= 0.8)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn inserts_into_clustered_high_dim_data_make_supernodes() {
        // Highly overlapping MBRs in high dimension push the split decision
        // toward supernodes.
        let mut rng = StdRng::seed_from_u64(9);
        let mut ds = Dataset::new(12);
        let mut row = vec![0.0f32; 12];
        for _ in 0..200 {
            row.fill_with(|| rng.gen());
            ds.push(&row);
        }
        let mut clock = SimClock::default();
        let mut t = XTree::build(
            &ds,
            Metric::Euclidean,
            XTreeOptions::default(),
            Box::new(MemDevice::new(512)),
            Box::new(MemDevice::new(512)),
            &mut clock,
        );
        for i in 0..2_000u32 {
            row.fill_with(|| rng.gen());
            t.insert(&mut clock, 200 + i, &row);
        }
        assert_eq!(t.len(), 2_200);
        // Correctness after heavy splitting.
        let q = vec![0.5f32; 12];
        let (_, d) = t.nearest(&mut clock, &q).expect("non-empty");
        assert!(d > 0.0);
    }
}
