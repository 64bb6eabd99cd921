//! The level-3 layout of every quantized page: its entries are stored in
//! the block-aligned split order of `iq_geometry::block_aligned_order`,
//! whichever path wrote the page — `build`, an insert that splits or
//! re-quantizes a page, a delete, or `rebuild`.
//!
//! The checker reads each page's stored slot order back (`export_points`
//! returns the points page by page, slot by slot), rebuilds the split
//! tree from the rule and checks that every split separates its halves
//! along its split dimension.

use iqtree_repro::data;
use iqtree_repro::geometry::{Dataset, Mbr, Metric};
use iqtree_repro::quantize::{ExactPageCodec, EXACT_BITS};
use iqtree_repro::storage::{BlockDevice, MemDevice, SimClock, CHECKSUM_BYTES};
use iqtree_repro::tree::{IqTree, IqTreeOptions};

const DIM: usize = 6;
const PHYSICAL_BLOCK: usize = 4096;

fn dev() -> Box<dyn BlockDevice> {
    Box::new(MemDevice::new(PHYSICAL_BLOCK))
}

/// Checks the run of stored slots `lo..lo + n` of a page whose points are
/// rows `row..row + n` of `points`, returning the number of splits seen.
/// A run whose entries start in blocks `first..=last` (`first < last`)
/// splits at the first slot that starts in block `(first + last) / 2 + 1`
/// or later; no point of its left part may lie above one of its right
/// part along the longest side of the run's MBR.
fn check_run(points: &Dataset, row: usize, lo: usize, n: usize, eb: usize, bs: usize) -> usize {
    let block_of = |slot: usize| slot * eb / bs;
    let (first, last) = (block_of(lo), block_of(lo + n - 1));
    if first == last {
        return 0;
    }
    let boundary = (first + last) / 2 + 1;
    let split = (lo..lo + n)
        .find(|&slot| block_of(slot) >= boundary)
        .expect("the run's last entry starts at or after the boundary");
    let rows = row..row + n;
    let mbr = Mbr::of_points(DIM, rows.clone().map(|r| points.point(r)));
    let dim = mbr.longest_dim();
    let coord = |r: usize| points.point(r)[dim];
    let mid = row + (split - lo);
    let left_max = (row..mid).map(coord).fold(f32::NEG_INFINITY, f32::max);
    let right_min = (mid..rows.end).map(coord).fold(f32::INFINITY, f32::min);
    assert!(
        left_max <= right_min,
        "slots {lo}..{}: the split at slot {split} does not separate dim {dim} \
         ({left_max} > {right_min})",
        lo + n
    );
    1 + check_run(points, row, lo, split - lo, eb, bs)
        + check_run(points, mid, split, lo + n - split, eb, bs)
}

/// Checks the stored order of every quantized page of `tree`, returning
/// the number of splits checked.
fn assert_block_aligned(tree: &IqTree, clock: &mut SimClock) -> usize {
    let eb = ExactPageCodec::new(DIM).entry_bytes();
    let bs = PHYSICAL_BLOCK - CHECKSUM_BYTES;
    let (ids, points) = tree.export_points(clock).expect("export");
    let mut row = 0;
    let mut splits = 0;
    for meta in tree.pages().iter().filter(|m| m.count > 0) {
        let n = meta.count as usize;
        if meta.g < EXACT_BITS {
            splits += check_run(&points, row, 0, n, eb, bs);
        }
        row += n;
    }
    assert_eq!(row, ids.len());
    splits
}

#[test]
fn every_page_writer_stores_the_block_aligned_order() {
    let base = data::uniform(DIM, 8_000, 3);
    let mut clock = SimClock::default();
    let mut tree = IqTree::build(
        &base,
        Metric::Euclidean,
        IqTreeOptions::default(),
        dev,
        &mut clock,
    );
    assert!(
        assert_block_aligned(&tree, &mut clock) > 0,
        "build: no split checked"
    );

    // Inserts crowded into one corner overflow its pages: the cost model
    // splits some, and re-quantizes the finer halves at coarser bits as
    // they fill.
    let pages_before = tree.num_pages();
    let mut requantized = 0;
    let crowd = data::uniform(DIM, 4_000, 4);
    for (i, p) in crowd.iter().enumerate() {
        let p: Vec<f32> = p.iter().map(|x| x * 0.3).collect();
        let before: Vec<u32> = tree.pages().iter().map(|m| m.g).collect();
        tree.insert(&mut clock, (8_000 + i) as u32, &p)
            .expect("insert");
        requantized += before
            .iter()
            .zip(tree.pages())
            .filter(|(&g, m)| m.g < g)
            .count();
    }
    assert!(tree.num_pages() > pages_before, "no insert split a page");
    assert!(requantized > 0, "no insert re-quantized a page");
    assert!(
        assert_block_aligned(&tree, &mut clock) > 0,
        "inserts: no split checked"
    );

    for (i, p) in base.iter().enumerate().step_by(2) {
        assert!(tree.delete(&mut clock, i as u32, p).expect("delete"), "{i}");
    }
    assert!(
        assert_block_aligned(&tree, &mut clock) > 0,
        "deletes: no split checked"
    );

    tree.rebuild(&mut clock, dev).expect("rebuild");
    assert!(
        assert_block_aligned(&tree, &mut clock) > 0,
        "rebuild: no split checked"
    );
}
