//! Property tests pinning the SIMD kernels to the scalar oracle, bit for
//! bit: batch unpack vs per-entry decode, batch MINDIST/MAXDIST folds vs the
//! per-entry table methods, and batch window classification vs per-entry
//! `classify` — across bits 1..=16, all three metrics, and unaligned
//! dims/page lengths.
//!
//! The batch entry points dispatch to whatever tier the host CPU supports
//! (AVX2 / SSE4.1 / scalar), so on a SIMD host these properties prove the
//! vector paths; under `IQ_FORCE_SCALAR=1` (CI's forced leg) they prove the
//! portable fallback against itself and the per-entry oracle.

use iq_geometry::{Mbr, Metric};
use iq_quantize::{
    set_kernel_override, DistTable, GridQuantizer, Kernel, QuantizedPageCodec, WindowTable,
};
use proptest::prelude::*;

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
    /// for bit, materialized and lazy, for all metrics.
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
        for hint in [1usize << 20, 0] {
            let mut t = DistTable::new();
            t.build(&mbr, g, metric, &q, hint);
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
            let (mut raw, mut out) = (Vec::new(), Vec::new());
            t.classify_batch(&block, &mut raw, &mut out);
            prop_assert_eq!(out.len(), pts.len());
            for (e, got) in out.iter().enumerate() {
                let want = t.classify(&block[e * dim..(e + 1) * dim]);
                prop_assert_eq!(*got, want, "entry {}", e);
            }
        }
    }
}

/// Forcing the scalar kernel produces the same bits as the detected tier on
/// a fixed workload (exercises `set_kernel_override`, the hook behind the
/// `IQ_FORCE_SCALAR` CI leg).
#[test]
fn forced_scalar_matches_detected_tier() {
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
        t.build(&mbr, 6, metric, &q, 1 << 20);
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
