//! IQ-tree construction: initial partitioning and the optimal-quantization
//! algorithm (Sections 3.3 and 3.5).
//!
//! Construction proceeds in two phases:
//!
//! 1. **Initial partitioning** — the top-down median split of \[4\] until
//!    every partition fits a quantized page at the coarsest (1-bit)
//!    resolution. This tree is optimal in compression but possibly poor in
//!    accuracy.
//! 2. **Optimal quantization** — every partition may be split further;
//!    halving a partition's population lets each half use finer cells (more
//!    bits per dimension) at the price of one more page. The algorithm
//!    keeps all candidate partitions in a priority queue ordered by the
//!    *variable-cost benefit* of splitting them (the refinement-cost
//!    reduction, which the model guarantees to shrink with every further
//!    split), splits greedily until everything is exact (32-bit), records
//!    the model's total cost after every step, and finally undoes all
//!    splits beyond the recorded global minimum. This is the paper's
//!    `optimal_partitioning` with its `458,330^P → 32·P` reduction, and its
//!    optimality argument (Lemmas 1–2, Theorem 1) applies verbatim.

use iq_cost::{directory, refine::RefineParams, DirectoryParams};
use iq_geometry::{block_aligned_order, split_at_median, Dataset, Mbr, Partition};
use iq_quantize::{ExactPageCodec, QuantizedPageCodec, EXACT_BITS};
use iq_storage::DiskModel;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One page of the chosen solution: which points it holds and at which
/// resolution they are quantized.
#[derive(Clone, Debug)]
pub struct SolutionPage {
    /// Dataset rows stored in the page.
    pub ids: Vec<u32>,
    /// Tight MBR of those points.
    pub mbr: Mbr,
    /// Bits per dimension (32 = exact).
    pub g: u32,
}

/// The encoded byte images of one solution page: the level-2 quantized
/// block and, for `g < 32`, the level-3 exact region.
#[derive(Clone, Debug)]
pub struct EncodedPage {
    /// One block-sized quantized page image.
    pub quant: Vec<u8>,
    /// The exact `(id, coords)` rows (empty for `g == 32` pages).
    pub exact: Vec<u8>,
}

/// Encodes every solution page — the block-aligned entry order of a
/// quantized page ([`block_aligned_order`]), per-page grid quantization,
/// bit packing and exact-row serialization, the CPU-bound half of page
/// writing — fanning the work out over `threads` scoped threads (`0` =
/// one per available core).
///
/// The output is **byte-for-byte identical** to sequential encoding for
/// every thread count: each page's encoding is a pure function of its own
/// points, and results are merged back in page order before anything
/// touches a device. The property tests assert this equality on the raw
/// device images.
pub fn encode_pages(
    ds: &Dataset,
    id_map: Option<&[u32]>,
    solution: &[SolutionPage],
    codec: &QuantizedPageCodec,
    exact_codec: &ExactPageCodec,
    threads: usize,
) -> Vec<EncodedPage> {
    let external = |row: u32| id_map.map_or(row, |m| m[row as usize]);
    let encode_one = |page: &SolutionPage| -> EncodedPage {
        let quantized = page.g < EXACT_BITS;
        let mut ids = page.ids.clone();
        if quantized {
            block_aligned_order(
                &mut ids,
                &page.mbr,
                exact_codec.entry_bytes(),
                codec.block_size(),
                |row| ds.point(row as usize),
            );
        }
        let entries = || {
            ids.iter()
                .map(|&row| (external(row), ds.point(row as usize)))
        };
        let quant = codec.encode(&page.mbr, page.g, entries());
        let exact = if quantized {
            exact_codec.encode(entries())
        } else {
            Vec::new()
        };
        EncodedPage { quant, exact }
    };
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    if threads < 2 || solution.len() < 2 {
        return solution.iter().map(encode_one).collect();
    }
    // Coarse work units: threads claim *chunks* of pages (≈4 per thread
    // over the whole build), not single pages, so the atomic counter and
    // the results mutex are touched once per chunk instead of once per
    // page. Chunks are index-stamped and merged back in page order, so
    // the output stays byte-identical to sequential encoding.
    let workers = threads.min(16);
    let chunk_size = solution.len().div_ceil(workers * 4).max(1);
    let next = AtomicUsize::new(0);
    let results: std::sync::Mutex<Vec<(usize, EncodedPage)>> =
        std::sync::Mutex::new(Vec::with_capacity(solution.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let start = next.fetch_add(1, Ordering::Relaxed) * chunk_size;
                if start >= solution.len() {
                    break;
                }
                let end = (start + chunk_size).min(solution.len());
                let local: Vec<(usize, EncodedPage)> = solution[start..end]
                    .iter()
                    .enumerate()
                    .map(|(i, page)| (start + i, encode_one(page)))
                    .collect();
                results.lock().expect("results lock").extend(local);
            });
        }
    });
    let mut results = results.into_inner().expect("no poisoned lock");
    results.sort_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, e)| e).collect()
}

/// Diagnostics of an optimization run (exposed for tests, benches and the
/// paper's cost-model ablations).
#[derive(Clone, Debug, Default)]
pub struct OptimizeTrace {
    /// Modeled total cost after each split step (step 0 = initial
    /// partitioning).
    pub cost_per_step: Vec<f64>,
    /// The step with minimal modeled cost (the chosen solution).
    pub best_step: usize,
}

/// A node of the split forest.
struct SplitNode {
    part: Partition,
    /// Finest resolution at which the node's points fit one page.
    g: u32,
    /// Modeled refinement (variable) cost at that resolution.
    var_cost: f64,
    /// Children indices once the node has been (tentatively) split.
    children: Option<(usize, usize)>,
    /// Step at which the greedy loop applied this node's split
    /// (`usize::MAX` = never).
    split_step: usize,
}

/// Ordered f64 for the max-heap (finite by construction).
#[derive(PartialEq)]
struct Benefit(f64);
impl Eq for Benefit {}
impl PartialOrd for Benefit {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Benefit {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("benefits are never NaN")
    }
}

fn var_cost(params: &RefineParams, disk: &DiskModel, part: &Partition, g: u32) -> f64 {
    iq_cost::refinement_cost(params, disk, &part.mbr.sides(), part.len(), g)
}

/// Runs the optimal-quantization algorithm over the initial partitions.
///
/// With `quantize == false` the optimization is skipped and every partition
/// is split all the way down to the exact representation (the "IQ-tree
/// without quantization" ablation of Figure 7).
pub fn optimize_partitions(
    ds: &Dataset,
    codec: &QuantizedPageCodec,
    params: &RefineParams,
    dir_params: &DirectoryParams,
    disk: &DiskModel,
    initial: Vec<Partition>,
    quantize: bool,
) -> (Vec<SolutionPage>, OptimizeTrace) {
    assert!(!initial.is_empty(), "need at least one partition");
    if !quantize {
        return (exact_only(ds, codec, initial), OptimizeTrace::default());
    }

    let mut heap: BinaryHeap<(Benefit, Reverse<usize>)> = BinaryHeap::new();

    // Builds the full split forest below `part` (every non-terminal node is
    // split eventually, so pricing the whole forest up front costs nothing
    // extra), returning the new node's index. Heap entries are NOT created
    // here: a node becomes a split candidate only once it is a leaf of the
    // current partitioning, exactly as in the paper's sorted list.
    fn add_node(
        ds: &Dataset,
        codec: &QuantizedPageCodec,
        params: &RefineParams,
        disk: &DiskModel,
        arena: &mut Vec<SplitNode>,
        part: Partition,
    ) -> usize {
        let g = codec
            .max_bits_for(part.len())
            .expect("partition exceeds 1-bit page capacity: initial partitioning is broken");
        let vc = var_cost(params, disk, &part, g);
        let idx = arena.len();
        arena.push(SplitNode {
            part,
            g,
            var_cost: vc,
            children: None,
            split_step: usize::MAX,
        });
        if g < EXACT_BITS && arena[idx].part.len() >= 2 {
            let mut ids = arena[idx].part.ids.clone();
            let mbr = arena[idx].part.mbr.clone();
            let (l, r, _) = split_at_median(ds, &mut ids, &mbr);
            let li = add_node(ds, codec, params, disk, arena, Partition::of(ds, l));
            let ri = add_node(ds, codec, params, disk, arena, Partition::of(ds, r));
            arena[idx].children = Some((li, ri));
        }
        idx
    }

    // The split forest below each initial partition is independent of all
    // others: build them in parallel (deterministically — the merge order
    // is the root order, and each local forest is itself deterministic),
    // then rebase the local child indices into one arena.
    let local_forests: Vec<Vec<SplitNode>> = {
        let build_one = |part: Partition| -> Vec<SplitNode> {
            let mut local = Vec::new();
            add_node(ds, codec, params, disk, &mut local, part);
            local
        };
        let nthreads = std::thread::available_parallelism().map_or(1, |n| n.get());
        if initial.len() < 8 || nthreads < 2 {
            initial.into_iter().map(build_one).collect()
        } else {
            let jobs: Vec<(usize, Partition)> = initial.into_iter().enumerate().collect();
            let results: std::sync::Mutex<Vec<(usize, Vec<SplitNode>)>> =
                std::sync::Mutex::new(Vec::with_capacity(jobs.len()));
            let queue = std::sync::Mutex::new(jobs);
            std::thread::scope(|scope| {
                for _ in 0..nthreads.min(16) {
                    scope.spawn(|| loop {
                        let job = queue.lock().expect("queue lock").pop();
                        let Some((i, part)) = job else { break };
                        let forest = build_one(part);
                        results.lock().expect("results lock").push((i, forest));
                    });
                }
            });
            let mut results = results.into_inner().expect("no poisoned lock");
            results.sort_by_key(|&(i, _)| i);
            results.into_iter().map(|(_, f)| f).collect()
        }
    };
    let total_nodes: usize = local_forests.iter().map(Vec::len).sum();
    let mut arena: Vec<SplitNode> = Vec::with_capacity(total_nodes);
    let mut roots: Vec<usize> = Vec::with_capacity(local_forests.len());
    for local in local_forests {
        let offset = arena.len();
        roots.push(offset); // add_node pushes the root first
        arena.extend(local.into_iter().map(|mut node| {
            if let Some((l, r)) = node.children {
                node.children = Some((l + offset, r + offset));
            }
            node
        }));
    }

    // Benefit of splitting node `idx` (it has priced children).
    let benefit_of = |arena: &[SplitNode], idx: usize| -> Option<f64> {
        arena[idx]
            .children
            .map(|(l, r)| arena[idx].var_cost - (arena[l].var_cost + arena[r].var_cost))
    };
    for &idx in &roots {
        if let Some(b) = benefit_of(&arena, idx) {
            heap.push((Benefit(b), Reverse(idx)));
        }
    }

    // Greedy loop: always split the current partition with the largest
    // variable-cost benefit; its children then become candidates; record
    // the modeled total after every step.
    let mut n_leaves = roots.len();
    let mut total_var: f64 = roots.iter().map(|&i| arena[i].var_cost).sum();
    let mut trace = OptimizeTrace::default();
    let mut best_cost = directory::total_cost(dir_params, disk, n_leaves, total_var);
    trace.cost_per_step.push(best_cost);
    trace.best_step = 0;
    let mut step = 0usize;
    while let Some((Benefit(benefit), Reverse(idx))) = heap.pop() {
        step += 1;
        arena[idx].split_step = step;
        n_leaves += 1;
        total_var -= benefit;
        let cost = directory::total_cost(dir_params, disk, n_leaves, total_var);
        trace.cost_per_step.push(cost);
        if cost < best_cost {
            best_cost = cost;
            trace.best_step = step;
        }
        let (l, r) = arena[idx].children.expect("popped nodes are splittable");
        for child in [l, r] {
            if let Some(b) = benefit_of(&arena, child) {
                heap.push((Benefit(b), Reverse(child)));
            }
        }
    }

    // Undo all splits beyond the optimum: collect solution leaves.
    let mut solution = Vec::with_capacity(roots.len() + trace.best_step);
    let mut stack: Vec<usize> = roots.iter().rev().copied().collect();
    while let Some(idx) = stack.pop() {
        let node = &arena[idx];
        if node.split_step <= trace.best_step {
            let (l, r) = node.children.expect("split nodes have children");
            stack.push(r);
            stack.push(l);
        } else {
            solution.push(SolutionPage {
                ids: node.part.ids.clone(),
                mbr: node.part.mbr.clone(),
                g: node.g,
            });
        }
    }
    (solution, trace)
}

/// Splits every partition to the exact (32-bit) representation.
fn exact_only(
    ds: &Dataset,
    codec: &QuantizedPageCodec,
    initial: Vec<Partition>,
) -> Vec<SolutionPage> {
    let cap = codec.capacity(EXACT_BITS);
    let mut out = Vec::new();
    let mut stack = initial;
    stack.reverse();
    while let Some(part) = stack.pop() {
        if part.len() <= cap {
            out.push(SolutionPage {
                ids: part.ids,
                mbr: part.mbr,
                g: EXACT_BITS,
            });
        } else {
            let mut ids = part.ids;
            let (l, r, _) = split_at_median(ds, &mut ids, &part.mbr);
            // Keep in-order emission: push right first.
            stack.push(Partition::of(ds, r));
            stack.push(Partition::of(ds, l));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_geometry::{bulk_partition, Metric};
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

    fn setup(
        n: usize,
        dim: usize,
        bs: usize,
    ) -> (
        Dataset,
        QuantizedPageCodec,
        RefineParams,
        DirectoryParams,
        DiskModel,
    ) {
        let ds = random_ds(n, dim, 7);
        let codec = QuantizedPageCodec::new(dim, bs);
        let params = RefineParams::uniform(Metric::Euclidean, dim, n);
        let dirp = DirectoryParams::new(Metric::Euclidean, dim, dim as f64, n);
        (ds, codec, params, dirp, DiskModel::default())
    }

    fn check_solution(ds: &Dataset, codec: &QuantizedPageCodec, sol: &[SolutionPage]) {
        // Every point exactly once; every page fits its resolution; MBRs
        // tight.
        let mut seen = vec![false; ds.len()];
        for page in sol {
            assert!(
                page.ids.len() <= codec.capacity(page.g),
                "page overflow at g={}",
                page.g
            );
            assert!((1..=EXACT_BITS).contains(&page.g));
            for &id in &page.ids {
                assert!(!seen[id as usize]);
                seen[id as usize] = true;
                assert!(page.mbr.contains_point(ds.point(id as usize)));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn solution_is_a_valid_partitioning() {
        let (ds, codec, params, dirp, disk) = setup(3_000, 8, 1024);
        let initial = bulk_partition(&ds, codec.capacity(1));
        let (sol, trace) =
            optimize_partitions(&ds, &codec, &params, &dirp, &disk, initial.clone(), true);
        check_solution(&ds, &codec, &sol);
        assert!(sol.len() >= initial.len());
        assert!(!trace.cost_per_step.is_empty());
    }

    #[test]
    fn trace_cost_at_best_step_is_minimum() {
        let (ds, codec, params, dirp, disk) = setup(2_000, 6, 512);
        let initial = bulk_partition(&ds, codec.capacity(1));
        let (_, trace) = optimize_partitions(&ds, &codec, &params, &dirp, &disk, initial, true);
        let min = trace
            .cost_per_step
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!((trace.cost_per_step[trace.best_step] - min).abs() < 1e-12);
    }

    #[test]
    fn solution_count_matches_best_step() {
        let (ds, codec, params, dirp, disk) = setup(1_500, 4, 512);
        let initial = bulk_partition(&ds, codec.capacity(1));
        let p = initial.len();
        let (sol, trace) = optimize_partitions(&ds, &codec, &params, &dirp, &disk, initial, true);
        assert_eq!(sol.len(), p + trace.best_step);
    }

    #[test]
    fn exact_only_splits_to_32_bits() {
        let (ds, codec, params, dirp, disk) = setup(1_000, 5, 512);
        let initial = bulk_partition(&ds, codec.capacity(1));
        let (sol, _) = optimize_partitions(&ds, &codec, &params, &dirp, &disk, initial, false);
        check_solution(&ds, &codec, &sol);
        assert!(sol.iter().all(|p| p.g == EXACT_BITS));
    }

    #[test]
    fn greedy_matches_exhaustive_on_tiny_input() {
        // Brute-force check of Theorem 1 on a single initial partition with
        // a short split tree: enumerate every valid solution (Definition 1)
        // and verify the greedy finds one with minimal modeled cost.
        let (ds, codec, params, dirp, disk) = setup(40, 3, 256);
        let initial = bulk_partition(&ds, codec.capacity(1));
        assert_eq!(initial.len(), 1, "want a single root for the enumeration");

        // Enumerate solutions recursively: a node is either kept (a leaf of
        // the solution) or split, combining all sub-solutions.
        #[derive(Clone)]
        struct Enum {
            leaves: Vec<(Vec<u32>, Mbr, u32)>,
        }
        fn enumerate(ds: &Dataset, codec: &QuantizedPageCodec, part: &Partition) -> Vec<Enum> {
            let g = codec.max_bits_for(part.len()).expect("fits");
            let keep = Enum {
                leaves: vec![(part.ids.clone(), part.mbr.clone(), g)],
            };
            if g >= EXACT_BITS || part.len() < 2 {
                return vec![keep];
            }
            let mut ids = part.ids.clone();
            let (l, r, _) = split_at_median(ds, &mut ids, &part.mbr);
            let ls = enumerate(ds, codec, &Partition::of(ds, l));
            let rs = enumerate(ds, codec, &Partition::of(ds, r));
            let mut out = vec![keep];
            for a in &ls {
                for b in &rs {
                    let mut leaves = a.leaves.clone();
                    leaves.extend(b.leaves.iter().cloned());
                    out.push(Enum { leaves });
                }
            }
            out
        }

        let all = enumerate(&ds, &codec, &initial[0]);
        let cost_of = |e: &Enum| -> f64 {
            let total_var: f64 = e
                .leaves
                .iter()
                .map(|(ids, mbr, g)| {
                    let p = Partition {
                        ids: ids.clone(),
                        mbr: mbr.clone(),
                    };
                    var_cost(&params, &disk, &p, *g)
                })
                .sum();
            directory::total_cost(&dirp, &disk, e.leaves.len(), total_var)
        };
        let brute_best = all.iter().map(cost_of).fold(f64::INFINITY, f64::min);

        let (sol, trace) = optimize_partitions(&ds, &codec, &params, &dirp, &disk, initial, true);
        let greedy_cost = trace.cost_per_step[trace.best_step];
        assert!(
            (greedy_cost - brute_best).abs() < 1e-9,
            "greedy {greedy_cost} vs brute force {brute_best} ({} solutions)",
            all.len()
        );
        check_solution(&ds, &codec, &sol);
    }

    #[test]
    fn skewed_data_gets_heterogeneous_resolutions() {
        // Half the points crammed into a tiny corner, half spread out: the
        // optimizer should give different pages different bit resolutions.
        let mut ds = Dataset::new(4);
        let mut rng = StdRng::seed_from_u64(3);
        let mut row = [0.0f32; 4];
        for _ in 0..2_000 {
            row.fill_with(|| rng.gen::<f32>() * 0.01);
            ds.push(&row);
        }
        for _ in 0..2_000 {
            row.fill_with(|| rng.gen());
            ds.push(&row);
        }
        let codec = QuantizedPageCodec::new(4, 512);
        let params = RefineParams::uniform(Metric::Euclidean, 4, ds.len());
        let dirp = DirectoryParams::new(Metric::Euclidean, 4, 4.0, ds.len());
        let initial = bulk_partition(&ds, codec.capacity(1));
        let (sol, _) =
            optimize_partitions(&ds, &codec, &params, &dirp, &disk_default(), initial, true);
        let gs: std::collections::HashSet<u32> = sol.iter().map(|p| p.g).collect();
        assert!(
            gs.len() >= 2,
            "expected heterogeneous resolutions, got {gs:?}"
        );
    }

    fn disk_default() -> DiskModel {
        DiskModel::default()
    }
}
