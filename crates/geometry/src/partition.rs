//! Top-down bulk partitioning of point sets.
//!
//! The IQ-tree's construction (Section 3.3) and the bulk-loaded X-tree both
//! use the partitioning scheme of Berchtold/Böhm/Kriegel (EDBT '98): split
//! the point set recursively at the median of the dimension in which the
//! current MBR has its largest extension, until a partition fits the page
//! capacity. Emission order is the in-order traversal of the split tree,
//! which gives neighboring partitions neighboring disk positions — the
//! locality the optimized page-access strategy of Section 2 feeds on.

use crate::{Dataset, Mbr};

/// A bulk-load partition: the ids (dataset rows) it contains and their
/// tight MBR.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Dataset row indices of the points in this partition.
    pub ids: Vec<u32>,
    /// Tight bounding box of those points.
    pub mbr: Mbr,
}

impl Partition {
    /// Builds the partition covering the given rows of `ds`.
    pub fn of(ds: &Dataset, ids: Vec<u32>) -> Self {
        let mbr = Mbr::of_points(ds.dim(), ids.iter().map(|&i| ds.point(i as usize)));
        Self { ids, mbr }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Splits the run `ids` in place at position `mid`, along the dimension
/// in which `mbr` (the run's bounding box) has its largest extension:
/// afterwards no point before `mid` lies above a point from `mid` on in
/// that dimension, which is returned. `point` maps an id to its
/// coordinates. [`bulk_partition`] splits at the median, and
/// [`block_aligned_order`] at a block boundary.
///
/// # Panics
/// Panics unless `0 < mid < ids.len()`.
pub fn split_in_place<'a>(
    ids: &mut [u32],
    mid: usize,
    mbr: &Mbr,
    point: impl Fn(u32) -> &'a [f32],
) -> usize {
    assert!(
        0 < mid && mid < ids.len(),
        "split point {mid} outside the run"
    );
    let dim = mbr.longest_dim();
    // Selecting `(coordinate, id)` pairs looks each point up once, not on
    // every comparison.
    let mut keyed: Vec<(f32, u32)> = ids.iter().map(|&i| (point(i)[dim], i)).collect();
    keyed.select_nth_unstable_by(mid, |a, b| {
        a.0.partial_cmp(&b.0).expect("coordinates are never NaN")
    });
    for (id, &(_, i)) in ids.iter_mut().zip(&keyed) {
        *id = i;
    }
    dim
}

/// Splits `ids` at the median of the dimension with the largest MBR
/// extension, returning the two halves and the split dimension.
///
/// Points equal to the median value may land on either side; both halves
/// are non-empty for `ids.len() >= 2`.
///
/// # Panics
/// Panics if fewer than two ids are supplied.
pub fn split_at_median(ds: &Dataset, ids: &mut [u32], mbr: &Mbr) -> (Vec<u32>, Vec<u32>, usize) {
    assert!(ids.len() >= 2, "cannot split fewer than two points");
    let mid = ids.len() / 2;
    let dim = split_in_place(ids, mid, mbr, |i| ds.point(i as usize));
    (ids[..mid].to_vec(), ids[mid..].to_vec(), dim)
}

/// Recursively partitions all points of `ds` into partitions of at most
/// `capacity` points.
///
/// # Panics
/// Panics if `capacity == 0` or `ds` is empty.
pub fn bulk_partition(ds: &Dataset, capacity: usize) -> Vec<Partition> {
    assert!(capacity > 0, "capacity must be positive");
    assert!(!ds.is_empty(), "cannot partition an empty set");
    let mut ids: Vec<u32> = (0..ds.len() as u32).collect();
    let mut out = Vec::with_capacity(ds.len() / capacity + 1);
    recurse(ds, &mut ids, capacity, &mut out);
    out
}

fn recurse(ds: &Dataset, ids: &mut [u32], capacity: usize, out: &mut Vec<Partition>) {
    if ids.len() <= capacity {
        out.push(Partition::of(ds, ids.to_vec()));
        return;
    }
    let mbr = Mbr::of_points(ds.dim(), ids.iter().map(|&i| ds.point(i as usize)));
    let mid = ids.len() / 2;
    split_in_place(ids, mid, &mbr, |i| ds.point(i as usize));
    let (left, right) = ids.split_at_mut(mid);
    recurse(ds, left, capacity, out);
    recurse(ds, right, capacity, out);
}

/// Orders the entries of one page for its exact region, which stores
/// entry `slot` at byte `slot × entry_bytes` of `block_size`-byte blocks
/// (the arithmetic of `ExactPageCodec::entry_span`), so that spatially
/// near entries share a block. `mbr` is the bounding box of the points of
/// `ids`.
///
/// It continues the top-down median split inside the page, with split
/// points on block boundaries. A run of slots whose entries start in
/// blocks `first..=last` is split, along the longest side of its MBR, at
/// the end of its middle block `(first + last) / 2`: at the first slot
/// that starts at or after block `(first + last) / 2 + 1`. Each side is
/// ordered the same way. A run whose entries all start in one block is
/// left as it is. (A page's last block is usually partial, so an odd
/// middle block goes to the left, fuller side.) The result depends only
/// on the input order and the coordinates, so every encoder of a page
/// writes the same layout.
///
/// # Panics
/// Panics if `entry_bytes` or `block_size` is zero.
pub fn block_aligned_order<'a>(
    ids: &mut [u32],
    mbr: &Mbr,
    entry_bytes: usize,
    block_size: usize,
    point: impl Fn(u32) -> &'a [f32] + Copy,
) {
    assert!(entry_bytes > 0 && block_size > 0, "empty entries or blocks");
    order_run(ids, 0, Some(mbr), entry_bytes, block_size, point);
}

/// [`block_aligned_order`] of the run `ids`, whose first entry is stored
/// at slot `lo`; its bounding box is computed when the run splits, unless
/// the caller has it.
fn order_run<'a>(
    ids: &mut [u32],
    lo: usize,
    mbr: Option<&Mbr>,
    entry_bytes: usize,
    block_size: usize,
    point: impl Fn(u32) -> &'a [f32] + Copy,
) {
    let block_of = |slot: usize| slot * entry_bytes / block_size;
    let Some(&last_id) = ids.last() else { return };
    let (first, last) = (block_of(lo), block_of(lo + ids.len() - 1));
    if first == last {
        return;
    }
    let boundary = (first + last) / 2 + 1;
    let split = (boundary * block_size).div_ceil(entry_bytes);
    let own;
    let mbr = match mbr {
        Some(mbr) => mbr,
        None => {
            own = Mbr::of_points(point(last_id).len(), ids.iter().map(|&i| point(i)));
            &own
        }
    };
    split_in_place(ids, split - lo, mbr, point);
    let (left, right) = ids.split_at_mut(split - lo);
    order_run(left, lo, None, entry_bytes, block_size, point);
    order_run(right, split, None, entry_bytes, block_size, point);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_2d(n_side: usize) -> Dataset {
        let mut ds = Dataset::new(2);
        for i in 0..n_side {
            for j in 0..n_side {
                ds.push(&[i as f32 / n_side as f32, j as f32 / n_side as f32]);
            }
        }
        ds
    }

    fn random_ds(n: usize, dim: usize, seed: u64) -> Dataset {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        let mut row = vec![0.0f32; dim];
        for _ in 0..n {
            row.fill_with(|| rng.gen());
            ds.push(&row);
        }
        ds
    }

    fn ordered(ds: &Dataset, entry_bytes: usize, block_size: usize) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..ds.len() as u32).collect();
        let mbr = Mbr::of_points(ds.dim(), ds.iter());
        block_aligned_order(&mut ids, &mbr, entry_bytes, block_size, |i| {
            ds.point(i as usize)
        });
        ids
    }

    /// Walks the block-aligned split tree of the run `ids` stored from
    /// slot `lo`: each run whose entries start in blocks `first..=last`
    /// (`first < last`) splits at the first slot that starts in block
    /// `(first + last) / 2 + 1` or later, and no point of its left part
    /// lies above one of its right part along the longest side of the
    /// run's MBR. Returns the leaf runs as `(lo, len)`.
    fn split_tree(
        ds: &Dataset,
        ids: &[u32],
        lo: usize,
        eb: usize,
        bs: usize,
    ) -> Vec<(usize, usize)> {
        let block_of = |slot: usize| slot * eb / bs;
        let (first, last) = (block_of(lo), block_of(lo + ids.len() - 1));
        if first == last {
            return vec![(lo, ids.len())];
        }
        let boundary = (first + last) / 2 + 1;
        let split = (lo..lo + ids.len())
            .find(|&slot| block_of(slot) >= boundary)
            .expect("the last entry starts at or after the boundary");
        let mbr = Mbr::of_points(ds.dim(), ids.iter().map(|&i| ds.point(i as usize)));
        let dim = mbr.longest_dim();
        let (left, right) = ids.split_at(split - lo);
        let coord = |i: &u32| ds.point(*i as usize)[dim];
        let left_max = left.iter().map(coord).fold(f32::NEG_INFINITY, f32::max);
        let right_min = right.iter().map(coord).fold(f32::INFINITY, f32::min);
        assert!(
            left_max <= right_min,
            "split at slot {split} of {lo}..{} does not separate dim {dim}",
            lo + ids.len()
        );
        let mut leaves = split_tree(ds, left, lo, eb, bs);
        leaves.extend(split_tree(ds, right, split, eb, bs));
        leaves
    }

    #[test]
    fn block_aligned_order_is_a_deterministic_permutation() {
        let ds = random_ds(780, 8, 1);
        let ids = ordered(&ds, 36, 8188);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..780).collect::<Vec<u32>>());
        assert_eq!(ordered(&ds, 36, 8188), ids);
        assert_ne!(ids, sorted, "a page over four blocks is reordered");
    }

    #[test]
    fn block_aligned_splits_fall_on_entry_start_boundaries() {
        // Uniform 8-d and CAD-like 16-d pages (entries straddle blocks),
        // and small blocks for deep trees and uneven ranges.
        for (n, dim, bs, seed) in [(780, 8, 8188, 2), (390, 16, 8188, 3), (500, 2, 100, 4)] {
            let ds = random_ds(n, dim, seed);
            let eb = 4 + 4 * dim;
            let ids = ordered(&ds, eb, bs);
            let leaves = split_tree(&ds, &ids, 0, eb, bs);
            let blocks = ((n - 1) * eb / bs) + 1;
            assert_eq!(
                leaves.len(),
                blocks,
                "one leaf per block an entry starts in"
            );
            for (lo, len) in leaves {
                assert_eq!(lo * eb / bs, (lo + len - 1) * eb / bs);
            }
        }
    }

    #[test]
    fn runs_in_one_block_keep_their_order() {
        // Entries of 30 bytes in 100-byte blocks: the fourth straddles
        // into block 1 but starts in block 0, so four entries stay as
        // they are; the fifth starts in block 1 and forces a split at it.
        let ds = random_ds(5, 3, 5);
        let mut four: Vec<u32> = (0..4).collect();
        let mbr = Mbr::of_points(3, ds.iter().take(4));
        block_aligned_order(&mut four, &mbr, 30, 100, |i| ds.point(i as usize));
        assert_eq!(four, [0, 1, 2, 3]);
        let five = ordered(&ds, 30, 100);
        assert_eq!(split_tree(&ds, &five, 0, 30, 100), [(0, 4), (4, 1)]);
    }

    #[test]
    fn partitions_cover_all_points_exactly_once() {
        let ds = grid_2d(20); // 400 points
        let parts = bulk_partition(&ds, 30);
        let mut seen = vec![false; ds.len()];
        for p in &parts {
            assert!(p.len() <= 30);
            assert!(!p.is_empty());
            for &id in &p.ids {
                assert!(!seen[id as usize], "duplicate id {id}");
                seen[id as usize] = true;
                assert!(p.mbr.contains_point(ds.point(id as usize)));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn partitions_are_balanced() {
        let ds = grid_2d(16); // 256 points, capacity 32 -> exactly 8 parts
        let parts = bulk_partition(&ds, 32);
        assert_eq!(parts.len(), 8);
        for p in &parts {
            assert_eq!(p.len(), 32);
        }
    }

    #[test]
    fn split_uses_longest_dimension() {
        // Points spread widely in dim 1 only.
        let mut ds = Dataset::new(2);
        for i in 0..10 {
            ds.push(&[0.5, i as f32]);
        }
        let mut ids: Vec<u32> = (0..10).collect();
        let mbr = Mbr::of_points(2, ds.iter());
        let (l, r, dim) = split_at_median(&ds, &mut ids, &mbr);
        assert_eq!(dim, 1);
        assert_eq!(l.len(), 5);
        assert_eq!(r.len(), 5);
        let max_l = l.iter().map(|&i| ds.point(i as usize)[1] as i32).max();
        let min_r = r.iter().map(|&i| ds.point(i as usize)[1] as i32).min();
        assert!(max_l < min_r);
    }

    #[test]
    fn single_point_partition() {
        let mut ds = Dataset::new(3);
        ds.push(&[1.0, 2.0, 3.0]);
        let parts = bulk_partition(&ds, 4);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 1);
        assert_eq!(parts[0].mbr.volume(), 0.0);
    }

    #[test]
    fn duplicate_points_still_split() {
        let mut ds = Dataset::new(2);
        for _ in 0..100 {
            ds.push(&[0.5, 0.5]);
        }
        let parts = bulk_partition(&ds, 10);
        assert!(parts.iter().all(|p| p.len() <= 10));
        assert_eq!(parts.iter().map(Partition::len).sum::<usize>(), 100);
    }

    #[test]
    fn emission_order_has_locality() {
        // Consecutive partitions should be spatially adjacent: their MBRs
        // along the first split axis should be monotone-ish. Weak check:
        // average center distance of neighbors is far below that of random
        // pairs.
        let ds = grid_2d(32);
        let parts = bulk_partition(&ds, 16);
        let centers: Vec<[f64; 2]> = parts
            .iter()
            .map(|p| {
                [
                    (f64::from(p.mbr.lb(0)) + f64::from(p.mbr.ub(0))) / 2.0,
                    (f64::from(p.mbr.lb(1)) + f64::from(p.mbr.ub(1))) / 2.0,
                ]
            })
            .collect();
        let dist =
            |a: [f64; 2], b: [f64; 2]| ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2)).sqrt();
        let neigh: f64 =
            centers.windows(2).map(|w| dist(w[0], w[1])).sum::<f64>() / (centers.len() - 1) as f64;
        let mut far = 0.0;
        let mut cnt = 0.0;
        for i in 0..centers.len() {
            for j in 0..centers.len() {
                if i != j {
                    far += dist(centers[i], centers[j]);
                    cnt += 1.0;
                }
            }
        }
        assert!(
            neigh < 0.6 * (far / cnt),
            "neighbors {neigh} vs avg {}",
            far / cnt
        );
    }
}
