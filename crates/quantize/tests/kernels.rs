//! Property tests for the quantized-domain distance kernels: the lookup
//! tables and the streaming page decoder must agree **bit-for-bit** with the
//! naive decode-then-`Metric` path for random pages, all resolutions the
//! paper uses (1..=16 bits) and all three metrics. The engine-conformance
//! suite relies on this equivalence — the kernels change speed, not answers.

use iq_geometry::{Mbr, Metric};
use iq_quantize::{
    CellMatch, DistTable, GridQuantizer, QuantizedPageCodec, WindowTable, EXACT_BITS,
};
use proptest::prelude::*;

const DIM: usize = 6;
const BLOCK: usize = 4096;

fn arb_mbr() -> impl Strategy<Value = Mbr> {
    (
        proptest::collection::vec(-50.0f32..50.0, DIM),
        proptest::collection::vec(0.0f32..40.0, DIM),
    )
        .prop_map(|(lo, ext)| {
            let ub: Vec<f32> = lo.iter().zip(&ext).map(|(l, e)| l + e).collect();
            Mbr::from_bounds(lo, ub)
        })
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    proptest::collection::vec(proptest::collection::vec(-60.0f32..60.0, DIM), 1..max)
}

fn encode_page(mbr: &Mbr, g: u32, pts: &[Vec<f32>]) -> (QuantizedPageCodec, Vec<u8>) {
    let codec = QuantizedPageCodec::new(DIM, BLOCK);
    let block = codec.encode(
        mbr,
        g,
        pts.iter()
            .enumerate()
            .map(|(i, p)| (i as u32 * 3 + 1, p.as_slice())),
    );
    (codec, block)
}

proptest! {
    /// (a) Table-lookup MINDIST/MAXDIST == naive decode-then-`Metric` for
    /// random pages, bits 1..=16, all three metrics — bit-for-bit.
    #[test]
    fn prop_table_mindist_is_bit_identical_to_naive(
        mbr in arb_mbr(),
        pts in arb_points(30),
        q in proptest::collection::vec(-70.0f32..70.0, DIM),
        g in 1u32..=16,
        metric_ix in 0usize..3,
        materialize in proptest::bool::ANY,
    ) {
        let metric = [Metric::Euclidean, Metric::Maximum, Metric::Manhattan][metric_ix];
        // Toggles the materialized vs lazy table path; both must agree with
        // the naive path exactly.
        let hint = if materialize { 1usize << 20 } else { 0 };
        let (codec, block) = encode_page(&mbr, g, &pts);
        let decoded = codec.try_view(&block).unwrap();
        let grid = GridQuantizer::new(&mbr, g);
        let mut table = DistTable::new();
        table.build(&mbr, g, metric, &q, hint);
        let mut cells = vec![0; DIM];
        for i in 0..decoded.len() {
            decoded.cells_into(i, &mut cells);
            let cells = &cells[..];
            let cell_box = grid.cell_box(cells);
            let naive_min = metric.mindist_key(&q, &cell_box);
            let naive_max = metric.maxdist(&q, &cell_box);
            prop_assert_eq!(
                table.mindist_key(cells).to_bits(), naive_min.to_bits(),
                "mindist g={} metric={:?} materialized={}", g, metric, table.is_materialized()
            );
            prop_assert_eq!(
                table.maxdist(cells).to_bits(), naive_max.to_bits(),
                "maxdist g={} metric={:?} materialized={}", g, metric, table.is_materialized()
            );
        }
    }

    /// (c) The streaming decoders agree with per-entry random access on
    /// every entry, for quantized and exact (g = 32) pages; on an exact
    /// page the points are the cells' `f32` bit patterns.
    #[test]
    fn prop_streaming_decoder_agrees_with_random_access(
        mbr in arb_mbr(),
        pts in arb_points(30),
        g_raw in 1u32..=17,
    ) {
        // 17 stands in for the exact (32-bit) special case.
        let g = if g_raw == 17 { EXACT_BITS } else { g_raw };
        let (codec, block) = encode_page(&mbr, g, &pts);
        let view = codec.try_view(&block).unwrap();
        prop_assert_eq!(view.len(), pts.len());
        prop_assert_eq!(view.bits(), g);
        let mut scratch = Vec::new();
        let mut expect = vec![0; DIM];
        let mut i = 0usize;
        view.for_each_entry(&mut scratch, |id, cells| {
            view.cells_into(i, &mut expect);
            assert_eq!(id, view.id(i), "entry {i}");
            assert_eq!(cells, &expect[..], "entry {i}");
            i += 1;
        });
        prop_assert_eq!(i, pts.len());
        let mut j = 0usize;
        view.for_each_point(&mut Vec::new(), |id, p| {
            view.cells_into(j, &mut expect);
            assert_eq!(id, view.id(j), "point {j}");
            assert!(p.iter().zip(&expect).all(|(x, &b)| x.to_bits() == b), "point {j}");
            assert_eq!(p, &pts[j][..], "point {j}");
            j += 1;
        });
        prop_assert_eq!(j, if g == EXACT_BITS { pts.len() } else { 0 });
    }

    /// Window classification over the tables reproduces the `Mbr`
    /// intersect/contain decisions exactly.
    #[test]
    fn prop_window_table_matches_mbr_ops(
        mbr in arb_mbr(),
        pts in arb_points(20),
        win_lo in proptest::collection::vec(-60.0f32..30.0, DIM),
        win_ext in proptest::collection::vec(0.0f32..50.0, DIM),
        g in 1u32..=12,
        materialize in proptest::bool::ANY,
    ) {
        let hint = if materialize { 1usize << 20 } else { 0 };
        let win_hi: Vec<f32> = win_lo.iter().zip(&win_ext).map(|(l, e)| l + e).collect();
        let window = Mbr::from_bounds(win_lo, win_hi);
        let (codec, block) = encode_page(&mbr, g, &pts);
        let decoded = codec.try_view(&block).unwrap();
        let grid = GridQuantizer::new(&mbr, g);
        let mut table = WindowTable::new();
        table.build(&mbr, g, &window, hint);
        let mut cells = vec![0; DIM];
        for i in 0..decoded.len() {
            decoded.cells_into(i, &mut cells);
            let cells = &cells[..];
            let cell_box = grid.cell_box(cells);
            let expect = if window.contains_mbr(&cell_box) {
                CellMatch::Inside
            } else if window.intersects(&cell_box) {
                CellMatch::Partial
            } else {
                CellMatch::Disjoint
            };
            prop_assert_eq!(table.classify(cells), expect, "g={} entry={}", g, i);
        }
    }
}
