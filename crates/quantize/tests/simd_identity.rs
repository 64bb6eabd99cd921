//! Property tests pinning the batch kernels to the per-entry oracle, bit
//! for bit: batch unpack vs per-entry decode, batch MINDIST/MAXDIST folds vs
//! the per-entry table methods, batch window classification vs per-entry
//! `classify`, and the distance-table rows at every tier vs `Metric` on the
//! cell box — across bits 1..=16, all three metrics, and unaligned
//! dims/page lengths.
//!
//! The unpack and the table rows dispatch to whatever tier the host CPU
//! supports (AVX2 / scalar), so on an AVX2 host these properties prove the
//! vector paths; under `IQ_FORCE_SCALAR=1` (CI's forced leg) they prove the
//! portable fallback against itself and the per-entry oracle. The row fold
//! has one body at every tier.

use iq_geometry::{Mbr, Metric};
use iq_quantize::{
    set_kernel_override, DistTable, GridQuantizer, Kernel, QuantizedPageCodec, WindowTable,
};
use proptest::prelude::*;
use std::sync::Mutex;

const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Manhattan, Metric::Maximum];

/// Truncates the fixed-width raw draws to `dim` and scales the relative
/// point coordinates into the MBR (dimensions may be degenerate).
fn mk_case(dim: usize, lb_raw: &[f32], ext_raw: &[f32], rel: &[Vec<f32>]) -> (Mbr, Vec<Vec<f32>>) {
    let lb: Vec<f32> = lb_raw[..dim].to_vec();
    let ub: Vec<f32> = lb.iter().zip(&ext_raw[..dim]).map(|(l, e)| l + e).collect();
    let pts = rel
        .iter()
        .map(|p| {
            (0..dim)
                .map(|i| lb[i] + p[i] * (ub[i] - lb[i]))
                .collect::<Vec<f32>>()
        })
        .collect();
    (Mbr::from_bounds(lb, ub), pts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `QuantPageView::unpack_all` produces exactly the per-entry
    /// `cells_into` bits for every width 1..=16 and odd dims/lengths.
    #[test]
    fn prop_unpack_all_matches_per_entry(
        dim in 1usize..=13,
        g in 1u32..=16,
        lb_raw in proptest::collection::vec(-8.0f32..8.0, 13),
        ext_raw in proptest::collection::vec(0.0f32..5.0, 13),
        rel in proptest::collection::vec(proptest::collection::vec(0.0f32..1.0, 13), 1..=40),
    ) {
        let (mbr, pts) = mk_case(dim, &lb_raw, &ext_raw, &rel);
        let codec = QuantizedPageCodec::new(dim, 4096);
        let n = pts.len().min(codec.capacity(g));
        let block = codec.encode(
            &mbr,
            g,
            pts[..n].iter().enumerate().map(|(i, p)| (i as u32, p.as_slice())),
        );
        let view = codec.try_view(&block).expect("fresh page");
        let mut all = Vec::new();
        view.unpack_all(&mut all);
        prop_assert_eq!(all.len(), n * dim);
        let mut one = vec![0u32; dim];
        for e in 0..n {
            view.cells_into(e, &mut one);
            prop_assert_eq!(&all[e * dim..(e + 1) * dim], &one[..], "entry {}", e);
        }
    }

    /// Batch MINDIST/MAXDIST folds equal the per-entry table methods bit
    /// for bit, materialized and lazy, MINDIST-only and with both bounds,
    /// for all metrics.
    #[test]
    fn prop_batch_fold_matches_per_entry(
        dim in 1usize..=11,
        g in 1u32..=16,
        metric_ix in 0usize..3,
        lb_raw in proptest::collection::vec(-8.0f32..8.0, 11),
        ext_raw in proptest::collection::vec(0.0f32..5.0, 11),
        rel in proptest::collection::vec(proptest::collection::vec(0.0f32..1.0, 11), 1..=30),
        qrel in proptest::collection::vec(-0.5f32..1.5, 11),
    ) {
        let metric = METRICS[metric_ix];
        let (mbr, pts) = mk_case(dim, &lb_raw, &ext_raw, &rel);
        let q: Vec<f32> = (0..dim)
            .map(|i| mbr.lb(i) + qrel[i] * (mbr.ub(i) - mbr.lb(i)))
            .collect();
        let grid = GridQuantizer::new(&mbr, g);
        let block: Vec<u32> = pts.iter().flat_map(|p| grid.encode(p)).collect();
        let n = pts.len();
        for (hint, bounds) in [(1usize << 20, false), (1 << 20, true), (0, false), (0, true)] {
            let mut t = DistTable::new();
            if bounds {
                t.build_bounds(&mbr, g, metric, &q, hint);
            } else {
                t.build(&mbr, g, metric, &q, hint);
            }
            let (mut keys, mut los, mut his) = (Vec::new(), Vec::new(), Vec::new());
            t.mindist_keys(&block, &mut keys);
            t.bounds_keys(&block, &mut los, &mut his);
            prop_assert_eq!(keys.len(), n);
            for e in 0..n {
                let cs = &block[e * dim..(e + 1) * dim];
                prop_assert_eq!(keys[e].to_bits(), t.mindist_key(cs).to_bits());
                prop_assert_eq!(los[e].to_bits(), t.mindist_key(cs).to_bits());
                prop_assert_eq!(his[e].to_bits(), t.maxdist_key(cs).to_bits());
            }
        }
    }

    /// Batch window classification decides exactly like per-entry
    /// `classify`.
    #[test]
    fn prop_classify_batch_matches_per_entry(
        dim in 1usize..=9,
        g in 1u32..=16,
        lb_raw in proptest::collection::vec(-8.0f32..8.0, 9),
        ext_raw in proptest::collection::vec(0.0f32..5.0, 9),
        rel in proptest::collection::vec(proptest::collection::vec(0.0f32..1.0, 9), 1..=30),
        wlb_rel in proptest::collection::vec(-0.3f32..1.3, 9),
        wext_rel in proptest::collection::vec(0.0f32..0.8, 9),
    ) {
        let (mbr, pts) = mk_case(dim, &lb_raw, &ext_raw, &rel);
        let wlb: Vec<f32> = (0..dim)
            .map(|i| mbr.lb(i) + wlb_rel[i] * (mbr.ub(i) - mbr.lb(i)))
            .collect();
        let wub: Vec<f32> = (0..dim)
            .map(|i| wlb[i] + wext_rel[i] * (mbr.ub(i) - mbr.lb(i)))
            .collect();
        let window = Mbr::from_bounds(wlb, wub);
        let grid = GridQuantizer::new(&mbr, g);
        let block: Vec<u32> = pts.iter().flat_map(|p| grid.encode(p)).collect();
        for hint in [1usize << 20, 0] {
            let mut t = WindowTable::new();
            t.build(&mbr, g, &window, hint);
            let mut out = Vec::new();
            t.classify_batch(&block, &mut out);
            prop_assert_eq!(out.len(), pts.len());
            for (e, got) in out.iter().enumerate() {
                let want = t.classify(&block[e * dim..(e + 1) * dim]);
                prop_assert_eq!(*got, want, "entry {}", e);
            }
        }
    }
}

/// Serializes the tests that pin the process-wide kernel tier.
static TIER_LOCK: Mutex<()> = Mutex::new(());

/// Every tier `set_kernel_override` can select (it clamps a tier the CPU
/// lacks down to the detected one).
const TIERS: [Kernel; 2] = [Kernel::Scalar, Kernel::Avx2];

/// Builds the query's coordinate in dimension `i` of `mbr` by `mode`: `0`
/// inside the MBR at relative position `rel`, `1` exactly on edge `edge`
/// of the grid, `2` below the MBR, `3` above it, `4` `+0.0`, `5` `-0.0`.
fn query_coord(mbr: &Mbr, grid: &GridQuantizer, i: usize, mode: u8, rel: f32, edge: u32) -> f32 {
    let (lb, ub) = (mbr.lb(i), mbr.ub(i));
    match mode {
        0 => lb + rel * (ub - lb),
        1 => grid.cell_lb(i, edge),
        2 => lb - 1.0 - rel,
        3 => ub + 1.0 + rel,
        4 => 0.0,
        _ => -0.0,
    }
}

/// Checks the row entries of `build` and `build_bounds` tables, at every
/// tier, against `Metric` on the grid cell box: for each dimension `i` and
/// cell `c`, the cell vector `base` with `c` in dimension `i`. Every cell
/// of a grid up to 2^8 cells a side; on finer grids the first and last 128
/// cells of each row (where the row loops start and end) and every 61st.
fn assert_rows_match_cell_box(mbr: &Mbr, g: u32, metric: Metric, q: &[f32], base: &[u32]) {
    let dim = q.len();
    let grid = GridQuantizer::new(mbr, g);
    let stale_q: Vec<f32> = q.iter().map(|x| x + 3.0).collect();
    let _pinned = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tables: Vec<(Kernel, DistTable, DistTable)> = TIERS
        .iter()
        .map(|&tier| {
            let active = set_kernel_override(Some(tier));
            let (mut min_only, mut bounds) = (DistTable::new(), DistTable::new());
            // Reused after a both-bounds build for another query: the
            // MINDIST-only rebuild must not serve its stale MAXDIST rows.
            min_only.build_bounds(mbr, g, metric, &stale_q, 1 << 20);
            min_only.build(mbr, g, metric, q, 1 << 20);
            bounds.build_bounds(mbr, g, metric, q, 1 << 20);
            assert!(min_only.is_materialized() && bounds.is_materialized());
            (active, min_only, bounds)
        })
        .collect();
    set_kernel_override(None);
    let mut cells = base.to_vec();
    for i in 0..dim {
        let n = 1u32 << g;
        for c in (0..n).filter(|&c| c < 128 || c >= n.saturating_sub(128) || c % 61 == 0) {
            cells[i] = c;
            let cell_box = grid.cell_box(&cells);
            let min = metric.mindist_key(q, &cell_box).to_bits();
            let max = metric.maxdist(q, &cell_box).to_bits();
            for (tier, min_only, bounds) in &tables {
                let at = format!("{tier:?} {metric:?} g={g} dim {i} cell {c} q={q:?}");
                assert_eq!(min_only.mindist_key(&cells).to_bits(), min, "{at}");
                assert_eq!(bounds.mindist_key(&cells).to_bits(), min, "{at}");
                assert_eq!(bounds.maxdist(&cells).to_bits(), max, "{at}");
                // A MINDIST-only table answers MAXDIST on the fly.
                assert_eq!(min_only.maxdist(&cells).to_bits(), max, "{at}");
            }
        }
        cells[i] = base[i];
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The distance-table rows equal `Metric::mindist_key` /
    /// `Metric::maxdist` on the cell box, bit for bit, at every tier and
    /// from both builders — over g 1..=16, d 1..=17, all metrics,
    /// zero-extent dimensions and queries inside, on cell edges, outside
    /// and at ±0.0.
    #[test]
    fn prop_table_rows_match_cell_box_at_every_tier(
        dim in 1usize..=17,
        g in 1u32..=16,
        metric_ix in 0usize..3,
        lb_raw in proptest::collection::vec(-8.0f32..8.0, 17),
        ext_raw in proptest::collection::vec(0.0f32..5.0, 17),
        flat in proptest::collection::vec(0u8..4, 17),
        modes in proptest::collection::vec((0u8..6, 0.0f32..1.0), 17),
        raw_cells in proptest::collection::vec(0u32..1 << 16, 17),
    ) {
        // One dimension in four is flat; a flat one sits at zero half the
        // time, where the ±0.0 queries land on it.
        let lb: Vec<f32> = (0..dim)
            .map(|i| if flat[i] == 0 && i % 2 == 0 { 0.0 } else { lb_raw[i] })
            .collect();
        let ub: Vec<f32> = (0..dim)
            .map(|i| if flat[i] == 0 { lb[i] } else { lb[i] + ext_raw[i] })
            .collect();
        let mbr = Mbr::from_bounds(lb, ub);
        let grid = GridQuantizer::new(&mbr, g);
        let mask = (1u32 << g) - 1;
        let q: Vec<f32> = (0..dim)
            .map(|i| query_coord(&mbr, &grid, i, modes[i].0, modes[i].1, raw_cells[i] & mask))
            .collect();
        let base: Vec<u32> = raw_cells[..dim].iter().map(|c| (c >> 3) & mask).collect();
        assert_rows_match_cell_box(&mbr, g, METRICS[metric_ix], &q, &base);
    }
}

/// MAXDIST read from a MINDIST-only table (computed on the fly) equals
/// MAXDIST read from the materialized rows of a `build_bounds` table.
#[test]
fn maxdist_from_build_equals_build_bounds() {
    let mbr = Mbr::from_bounds(vec![-1.0, 0.0, 2.0], vec![3.0, 0.0, 2.5]);
    let q = [0.25f32, -0.0, 7.0];
    let g = 5;
    let block: Vec<u32> = (0..1u32 << g)
        .flat_map(|c| [c, c / 3, (c * 7) & 31])
        .collect();
    for metric in METRICS {
        let (mut min_only, mut bounds) = (DistTable::new(), DistTable::new());
        min_only.build(&mbr, g, metric, &q, 1 << 20);
        bounds.build_bounds(&mbr, g, metric, &q, 1 << 20);
        let (mut lo_a, mut hi_a, mut lo_b, mut hi_b) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        min_only.bounds_keys(&block, &mut lo_a, &mut hi_a);
        bounds.bounds_keys(&block, &mut lo_b, &mut hi_b);
        for (e, cells) in block.chunks(3).enumerate() {
            assert_eq!(
                min_only.maxdist(cells).to_bits(),
                bounds.maxdist(cells).to_bits()
            );
            assert_eq!(
                min_only.maxdist_key(cells).to_bits(),
                bounds.maxdist_key(cells).to_bits()
            );
            assert_eq!(lo_a[e].to_bits(), lo_b[e].to_bits());
            assert_eq!(hi_a[e].to_bits(), hi_b[e].to_bits());
        }
    }
}

/// Forcing the scalar kernel produces the same bits as the detected tier on
/// a fixed workload (exercises `set_kernel_override`, the hook behind the
/// `IQ_FORCE_SCALAR` CI leg).
#[test]
fn forced_scalar_matches_detected_tier() {
    let _pinned = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dim = 7;
    let mbr = Mbr::from_bounds(vec![-2.0; dim], vec![3.0; dim]);
    let q: Vec<f32> = (0..dim).map(|i| -1.0 + i as f32 * 0.63).collect();
    let grid = GridQuantizer::new(&mbr, 6);
    let pts: Vec<Vec<f32>> = (0..57)
        .map(|j| {
            (0..dim)
                .map(|i| ((j * 31 + i * 17) % 97) as f32 / 97.0 * 5.0 - 2.0)
                .collect()
        })
        .collect();
    let block: Vec<u32> = pts.iter().flat_map(|p| grid.encode(p)).collect();
    let run = |metric: Metric| {
        let mut t = DistTable::new();
        t.build_bounds(&mbr, 6, metric, &q, 1 << 20);
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        t.bounds_keys(&block, &mut lo, &mut hi);
        (lo, hi)
    };
    for metric in METRICS {
        let native = run(metric);
        set_kernel_override(Some(Kernel::Scalar));
        let scalar = run(metric);
        set_kernel_override(None);
        for (a, b) in native.0.iter().zip(&scalar.0) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in native.1.iter().zip(&scalar.1) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
