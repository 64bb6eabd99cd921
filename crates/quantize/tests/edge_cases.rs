//! Edge cases and failure injection for the codecs: odd bit widths,
//! capacity boundaries, corrupt pages, extreme coordinates.

use iq_geometry::Mbr;
use iq_quantize::{
    BitReader, BitWriter, GridQuantizer, QuantPageView, QuantizedPageCodec, EXACT_BITS,
};
use proptest::prelude::*;

/// The cell numbers of entry `i`.
fn cells(view: &QuantPageView<'_>, i: usize) -> Vec<u32> {
    let mut out = vec![0; view.dim()];
    view.cells_into(i, &mut out);
    out
}

#[test]
fn all_bit_widths_roundtrip() {
    for width in 1..=32u32 {
        let max = if width == 32 {
            u32::MAX
        } else {
            (1u32 << width) - 1
        };
        let values = [0u32, 1.min(max), max / 2, max];
        let mut w = BitWriter::new();
        for &v in &values {
            w.write(v, width);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.read(width).unwrap(), v, "width {width}");
        }
    }
}

#[test]
fn page_at_exact_capacity_roundtrips() {
    for g in [1u32, 3, 7, 13, 21, 31, 32] {
        let codec = QuantizedPageCodec::new(7, 1024);
        let cap = codec.capacity(g);
        assert!(cap >= 1, "g={g}");
        let mbr = Mbr::from_bounds(vec![0.0; 7], vec![1.0; 7]);
        let pts: Vec<Vec<f32>> = (0..cap).map(|i| vec![(i % 97) as f32 / 97.0; 7]).collect();
        let block = codec.encode(
            &mbr,
            g,
            pts.iter()
                .enumerate()
                .map(|(i, p)| (i as u32, p.as_slice())),
        );
        let dec = codec.try_view(&block).expect("valid page");
        assert_eq!(dec.len(), cap, "g={g}");
        assert_eq!(dec.bits(), g);
        let mut ids = Vec::with_capacity(cap);
        dec.for_each_entry(&mut Vec::new(), |id, cells| {
            assert_eq!(cells.len(), 7);
            ids.push(id);
        });
        assert_eq!(ids, (0..cap as u32).collect::<Vec<_>>(), "g={g}");
    }
}

#[test]
#[should_panic(expected = "exceed capacity")]
fn page_over_capacity_is_rejected() {
    let codec = QuantizedPageCodec::new(4, 256);
    let cap = codec.capacity(8);
    let mbr = Mbr::from_bounds(vec![0.0; 4], vec![1.0; 4]);
    let pts: Vec<Vec<f32>> = (0..=cap).map(|_| vec![0.5; 4]).collect();
    codec.encode(
        &mbr,
        8,
        pts.iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p.as_slice())),
    );
}

#[test]
fn corrupt_resolution_byte_is_detected() {
    let codec = QuantizedPageCodec::new(3, 256);
    let mbr = Mbr::from_bounds(vec![0.0; 3], vec![1.0; 3]);
    let mut block = codec.encode(&mbr, 4, [(0u32, &[0.5f32, 0.5, 0.5][..])].into_iter());
    block[2] = 0; // g = 0 is invalid
    let err = codec.try_view(&block).unwrap_err();
    assert!(err.is_corruption(), "{err}");
}

#[test]
fn corrupt_count_is_detected() {
    let codec = QuantizedPageCodec::new(3, 256);
    let mbr = Mbr::from_bounds(vec![0.0; 3], vec![1.0; 3]);
    let mut block = codec.encode(&mbr, 4, [(0u32, &[0.5f32, 0.5, 0.5][..])].into_iter());
    block[0] = 0xFF; // count larger than a block can hold
    block[1] = 0xFF;
    let err = codec.try_view(&block).unwrap_err();
    assert!(err.is_corruption(), "{err}");
}

#[test]
fn degenerate_mbr_quantizes_to_zero_cells() {
    // All points identical: MBR has zero extent everywhere.
    let codec = QuantizedPageCodec::new(4, 256);
    let p = [0.25f32, 0.5, 0.75, 1.0];
    let mbr = Mbr::of_points(4, std::iter::once(&p[..]));
    let block = codec.encode(&mbr, 6, [(9u32, &p[..])].into_iter());
    let dec = codec.try_view(&block).expect("valid page");
    assert_eq!(cells(&dec, 0), &[0, 0, 0, 0]);
    let grid = GridQuantizer::new(&mbr, 6);
    let cell = grid.cell_box(&cells(&dec, 0));
    assert!(cell.contains_point(&p));
    assert_eq!(cell.volume(), 0.0);
}

#[test]
fn extreme_coordinates_survive_exact_pages() {
    let codec = QuantizedPageCodec::new(2, 128);
    let weird = [f32::MIN_POSITIVE, -1.0e30f32];
    let mbr = Mbr::of_points(2, std::iter::once(&weird[..]));
    let block = codec.encode(&mbr, EXACT_BITS, [(1u32, &weird[..])].into_iter());
    let dec = codec.try_view(&block).expect("valid page");
    let mut got = Vec::new();
    dec.for_each_point(&mut Vec::new(), |id, p| got.push((id, p.to_vec())));
    assert_eq!(got, vec![(1, weird.to_vec())]);
}

proptest! {
    /// Byte-aligned entries: any prefix of entries decodes independently
    /// of what follows (each entry is self-contained).
    #[test]
    fn prop_entries_are_byte_aligned(
        n in 1usize..30,
        g in 1u32..16,
    ) {
        let codec = QuantizedPageCodec::new(5, 2048);
        prop_assume!(n <= codec.capacity(g));
        let mbr = Mbr::from_bounds(vec![0.0; 5], vec![1.0; 5]);
        let pts: Vec<Vec<f32>> =
            (0..n).map(|i| vec![i as f32 / n as f32; 5]).collect();
        let block = codec.encode(
            &mbr,
            g,
            pts.iter().enumerate().map(|(i, p)| (i as u32, p.as_slice())),
        );
        let dec = codec.try_view(&block).expect("valid page");
        // Scribbling over the bytes AFTER the live entries must not change
        // anything.
        let live = 4 + n * codec.entry_bytes(g);
        let mut scribbled = block.clone();
        for b in scribbled.iter_mut().skip(live) {
            *b = 0xA5;
        }
        let dec2 = codec.try_view(&scribbled).expect("valid page");
        prop_assert_eq!(dec.len(), dec2.len());
        for i in 0..dec.len() {
            prop_assert_eq!(dec.id(i), dec2.id(i));
            prop_assert_eq!(cells(&dec, i), cells(&dec2, i));
        }
    }
}
