//! On-disk codecs for quantized data pages and exact (third-level) pages.
//!
//! A quantized data page occupies exactly one disk block. Its resolution `g`
//! (bits per dimension) is chosen per page by the IQ-tree's optimization:
//! the lower `g`, the more points fit. Layout (little endian):
//!
//! ```text
//! u16 count | u8 g | u8 reserved | count × ( u32 id | ceil(d·g/8) packed cells )
//! ```
//!
//! For `g == 32` ([`EXACT_BITS`]) the "cells" are the raw `f32` bit patterns
//! of the exact coordinates — the paper's special case in which the
//! third-level page is omitted. The X-tree baseline stores its data pages
//! in this form.
//!
//! An exact page is a run of blocks holding `count` little-endian entries
//! of `u32 id | d × f32` coordinates. The id is stored redundantly with the
//! quantized entry on purpose: when a level-2 block fails its checksum, the
//! level-3 page alone can answer the query (and vice versa), so one corrupt
//! block degrades precision or cost but never loses the point.

use crate::bits::{unpack_cells, BitWriter};
use crate::grid::GridQuantizer;
use iq_geometry::Mbr;
use iq_storage::{IqError, IqResult};

/// Resolution marking the exact (32-bit float) representation.
pub const EXACT_BITS: u32 = 32;

const HEADER_BYTES: usize = 4;

/// Codec for quantized data pages of a fixed dimension and block size.
#[derive(Clone, Copy, Debug)]
pub struct QuantizedPageCodec {
    dim: usize,
    block_size: usize,
}

impl QuantizedPageCodec {
    /// Creates a codec.
    ///
    /// # Panics
    /// Panics if the block cannot hold at least one entry at the exact
    /// resolution.
    pub fn new(dim: usize, block_size: usize) -> Self {
        let codec = Self { dim, block_size };
        assert!(
            codec.capacity(EXACT_BITS) >= 1,
            "block size {block_size} too small for dimension {dim}"
        );
        codec
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Bytes one entry occupies at resolution `g` (id + byte-aligned packed
    /// cells).
    pub fn entry_bytes(&self, g: u32) -> usize {
        assert!((1..=EXACT_BITS).contains(&g));
        4 + (self.dim * g as usize).div_ceil(8)
    }

    /// Maximum number of entries a page holds at resolution `g` — the
    /// capacity that drives the split/quantize trade-off.
    pub fn capacity(&self, g: u32) -> usize {
        (self.block_size - HEADER_BYTES) / self.entry_bytes(g)
    }

    /// The finest resolution at which `count` points still fit in one page,
    /// or `None` if they do not fit even at 1 bit.
    pub fn max_bits_for(&self, count: usize) -> Option<u32> {
        if count == 0 {
            return Some(EXACT_BITS);
        }
        (1..=EXACT_BITS).rev().find(|&g| self.capacity(g) >= count)
    }

    /// Encodes a page. `points` yields `(id, coords)` pairs; for `g < 32`
    /// the coordinates are quantized relative to `mbr`.
    ///
    /// # Panics
    /// Panics if more points are supplied than [`Self::capacity`] allows.
    pub fn encode<'a>(
        &self,
        mbr: &Mbr,
        g: u32,
        points: impl ExactSizeIterator<Item = (u32, &'a [f32])>,
    ) -> Vec<u8> {
        let n = points.len();
        assert!(
            n <= self.capacity(g),
            "{n} entries exceed capacity at {g} bits"
        );
        assert!(n <= u16::MAX as usize);
        let mut out = Vec::with_capacity(self.block_size);
        out.extend_from_slice(&(n as u16).to_le_bytes());
        out.push(g as u8);
        out.push(0);
        let grid = (g < EXACT_BITS).then(|| GridQuantizer::new(mbr, g));
        for (id, p) in points {
            debug_assert_eq!(p.len(), self.dim);
            out.extend_from_slice(&id.to_le_bytes());
            match &grid {
                Some(grid) => {
                    let mut w = BitWriter::new();
                    for (i, &x) in p.iter().enumerate() {
                        w.write(grid.cell_of(i, x), g);
                    }
                    let packed = w.into_bytes();
                    debug_assert_eq!(packed.len(), (self.dim * g as usize).div_ceil(8));
                    out.extend_from_slice(&packed);
                }
                None => {
                    for &x in p {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
            }
        }
        out.resize(self.block_size, 0);
        out
    }

    /// Validates a block's header once and returns a zero-copy [`QuantPageView`]
    /// over its entries. A flipped bit that survives the checksum layer (or a
    /// raw device without one) surfaces as [`IqError::Decode`], never as a
    /// panic or an out-of-bounds read. After validation, per-entry decoding
    /// needs no further bounds checks: every entry row lies inside the view
    /// by construction.
    pub fn try_view<'a>(&self, block: &'a [u8]) -> IqResult<QuantPageView<'a>> {
        if block.len() < HEADER_BYTES {
            return Err(IqError::Decode {
                detail: format!("quantized page of {} bytes has no header", block.len()),
            });
        }
        let n = u16::from_le_bytes([block[0], block[1]]) as usize;
        let g = u32::from(block[2]);
        if !(1..=EXACT_BITS).contains(&g) {
            return Err(IqError::Decode {
                detail: format!("quantized page resolution g = {g} outside 1..=32"),
            });
        }
        let entry = self.entry_bytes(g);
        if HEADER_BYTES + n * entry > block.len() {
            return Err(IqError::Decode {
                detail: format!(
                    "quantized page claims {n} entries of {entry} bytes in a {}-byte block",
                    block.len()
                ),
            });
        }
        Ok(QuantPageView {
            g,
            dim: self.dim,
            entry,
            body: &block[HEADER_BYTES..HEADER_BYTES + n * entry],
        })
    }
}

/// A zero-copy, header-validated view of a quantized page.
///
/// Produced by [`QuantizedPageCodec::try_view`], which checks the block
/// length against the claimed entry count exactly once; every accessor here
/// then decodes straight from precomputed row offsets — no per-entry
/// `BitReader` construction, no per-entry bounds checks, no allocation.
#[derive(Clone, Copy, Debug)]
pub struct QuantPageView<'a> {
    g: u32,
    dim: usize,
    /// Bytes per entry row (id + byte-aligned packed cells).
    entry: usize,
    /// Exactly `len × entry` bytes of entry rows.
    body: &'a [u8],
}

impl QuantPageView<'_> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.body.len() / self.entry
    }

    /// Whether the page has no entries.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Resolution in bits per dimension.
    pub fn bits(&self) -> u32 {
        self.g
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Id of entry `i`.
    #[inline]
    pub fn id(&self, i: usize) -> u32 {
        let off = i * self.entry;
        u32::from_le_bytes(self.body[off..off + 4].try_into().expect("4 bytes"))
    }

    /// Decodes the cell numbers of entry `i` into `out` (length `dim`).
    /// Because every entry's packed cells start at a byte boundary, the
    /// common widths hit the unrolled fast paths of
    /// [`unpack_cells`].
    #[inline]
    pub fn cells_into(&self, i: usize, out: &mut [u32]) {
        debug_assert_eq!(out.len(), self.dim);
        let off = i * self.entry;
        unpack_cells(&self.body[off + 4..off + self.entry], self.g, out);
    }

    /// Streams every `(id, cells)` entry through `f`, decoding into the
    /// caller's reusable `scratch` buffer: zero heap allocations in the
    /// steady state (the scratch grows once to `dim` and is reused).
    pub fn for_each_entry(&self, scratch: &mut Vec<u32>, mut f: impl FnMut(u32, &[u32])) {
        scratch.resize(self.dim, 0);
        for e in 0..self.len() {
            let id = self.id(e);
            self.cells_into(e, &mut scratch[..]);
            f(id, &scratch[..]);
        }
    }

    /// Streams every `(id, coords)` entry of an exact (`g == 32`) page
    /// through `f`, decoding the coordinates into the caller's reusable
    /// `scratch`: the page's points themselves (Section 3.1: such a page
    /// has no level 3). Zero heap allocations in the steady state. A
    /// quantized page holds no exact points and yields nothing.
    pub fn for_each_point(&self, scratch: &mut Vec<f32>, mut f: impl FnMut(u32, &[f32])) {
        if self.g != EXACT_BITS {
            return;
        }
        scratch.resize(self.dim, 0.0);
        for row in self.body.chunks_exact(self.entry) {
            let (id, coords) = row.split_at(4);
            for (x, c) in scratch.iter_mut().zip(coords.chunks_exact(4)) {
                *x = f32::from_le_bytes(c.try_into().expect("4 bytes"));
            }
            f(
                u32::from_le_bytes(id.try_into().expect("4 bytes")),
                &scratch[..],
            );
        }
    }

    /// Decodes **all** entries' cells into an entry-major `len × dim` block
    /// (`out[e * dim..][..dim]` is entry `e`) via the SIMD unpack kernel —
    /// the batch form of [`Self::cells_into`], identical bit patterns. `out`
    /// is a reusable scratch; it is cleared and resized.
    pub fn unpack_all(&self, out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.len() * self.dim, 0);
        if self.dim == 0 || self.body.is_empty() {
            return;
        }
        crate::simd::unpack_block(self.body, self.entry, 4, self.g, self.dim, out);
    }
}

/// Codec for exact (third-level) pages: rows of `u32 id | d × f32`
/// coordinates. Storing the id here (redundantly with level 2) makes the
/// exact page self-contained, which is what the corruption-fallback path
/// relies on.
#[derive(Clone, Copy, Debug)]
pub struct ExactPageCodec {
    dim: usize,
}

impl ExactPageCodec {
    /// Creates a codec for dimension `dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0);
        Self { dim }
    }

    /// Bytes per entry (id + coordinates).
    pub fn entry_bytes(&self) -> usize {
        4 + 4 * self.dim
    }

    /// Encodes `(id, coordinates)` rows into a byte buffer.
    pub fn encode<'a>(&self, entries: impl Iterator<Item = (u32, &'a [f32])>) -> Vec<u8> {
        let mut out = Vec::new();
        for (id, p) in entries {
            debug_assert_eq!(p.len(), self.dim);
            out.extend_from_slice(&id.to_le_bytes());
            for &x in p {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        out
    }

    /// Decodes one entry from exactly [`Self::entry_bytes`] bytes into a
    /// caller-provided coordinate buffer of length `dim`, returning the
    /// entry's id — the allocation-free decoder of refinements and of the
    /// exact-region scans. A truncated entry surfaces as
    /// [`IqError::Decode`].
    ///
    /// # Panics
    /// Panics if `out.len() != dim` (programmer error, not a data error).
    pub fn try_decode_entry_into(&self, bytes: &[u8], out: &mut [f32]) -> IqResult<u32> {
        assert_eq!(
            out.len(),
            self.dim,
            "coordinate buffer must have length dim"
        );
        if bytes.len() != self.entry_bytes() {
            return Err(IqError::Decode {
                detail: format!(
                    "exact entry of {} bytes, expected {}",
                    bytes.len(),
                    self.entry_bytes()
                ),
            });
        }
        let id = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
        for (x, c) in out.iter_mut().zip(bytes[4..].chunks_exact(4)) {
            *x = f32::from_le_bytes(c.try_into().expect("4 bytes"));
        }
        Ok(id)
    }

    /// Which blocks of a page (given the page's starting block) hold entry
    /// `i`: returns `(first_block, nblocks, byte_offset_in_first_block)`.
    /// An entry can straddle a block boundary.
    pub fn entry_span(&self, i: usize, block_size: usize) -> (u64, u64, usize) {
        let start_byte = i * self.entry_bytes();
        let end_byte = start_byte + self.entry_bytes();
        let first = (start_byte / block_size) as u64;
        let last = ((end_byte - 1) / block_size) as u64;
        (first, last - first + 1, start_byte % block_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mbr(d: usize) -> Mbr {
        Mbr::from_bounds(vec![0.0; d], vec![1.0; d])
    }

    /// The cell numbers of entry `i`.
    fn cells(view: &QuantPageView<'_>, i: usize) -> Vec<u32> {
        let mut out = vec![0; view.dim()];
        view.cells_into(i, &mut out);
        out
    }

    /// Every `(id, coords)` the exact-point iterator yields.
    fn points(view: &QuantPageView<'_>) -> Vec<(u32, Vec<f32>)> {
        let mut out = Vec::new();
        view.for_each_point(&mut Vec::new(), |id, p| out.push((id, p.to_vec())));
        out
    }

    #[test]
    fn capacity_decreases_with_bits() {
        let c = QuantizedPageCodec::new(16, 8192);
        let caps: Vec<usize> = (1..=32).map(|g| c.capacity(g)).collect();
        assert!(caps.windows(2).all(|w| w[0] >= w[1]));
        // d = 16: entry at 1 bit = 4 + 2 = 6 bytes -> (8192-4)/6 = 1364.
        assert_eq!(c.capacity(1), 1364);
        // At 32 bits: 4 + 64 = 68 bytes -> 120.
        assert_eq!(c.capacity(32), 120);
    }

    #[test]
    fn max_bits_for_counts() {
        let c = QuantizedPageCodec::new(16, 8192);
        assert_eq!(c.max_bits_for(0), Some(32));
        assert_eq!(c.max_bits_for(1), Some(32));
        assert_eq!(c.max_bits_for(120), Some(32));
        assert_eq!(c.max_bits_for(121), Some(31));
        assert_eq!(c.max_bits_for(1364), Some(1));
        assert_eq!(c.max_bits_for(1365), None);
    }

    #[test]
    fn encode_decode_quantized() {
        let c = QuantizedPageCodec::new(3, 256);
        let m = mbr(3);
        let pts: Vec<(u32, Vec<f32>)> = vec![(7, vec![0.1, 0.9, 0.5]), (42, vec![0.0, 1.0, 0.25])];
        let block = c.encode(&m, 4, pts.iter().map(|(id, p)| (*id, p.as_slice())));
        assert_eq!(block.len(), 256);
        let dec = c.try_view(&block).expect("valid page");
        assert_eq!(dec.len(), 2);
        assert_eq!(dec.bits(), 4);
        assert_eq!(dec.id(0), 7);
        assert_eq!(dec.id(1), 42);
        let grid = GridQuantizer::new(&m, 4);
        for (i, (_, p)) in pts.iter().enumerate() {
            assert_eq!(cells(&dec, i), grid.encode(p));
            assert!(grid.cell_box(&cells(&dec, i)).contains_point(p));
        }
    }

    #[test]
    fn exact_special_case_roundtrips_bitexact() {
        let c = QuantizedPageCodec::new(2, 128);
        let m = mbr(2);
        let p = [0.123_456_79f32, -5.5];
        let block = c.encode(&m, EXACT_BITS, [(9u32, &p[..])].into_iter());
        let dec = c.try_view(&block).expect("valid page");
        assert_eq!(points(&dec), vec![(9, p.to_vec())]);
        // Non-exact pages yield no points.
        let block = c.encode(&m, 8, [(9u32, &[0.5f32, 0.5][..])].into_iter());
        assert_eq!(points(&c.try_view(&block).expect("valid page")), vec![]);
    }

    #[test]
    fn exact_page_codec_roundtrip() {
        let c = ExactPageCodec::new(4);
        let rows: Vec<(u32, Vec<f32>)> =
            vec![(11, vec![1., 2., 3., 4.]), (97, vec![5., 6., 7., 8.])];
        let bytes = c.encode(rows.iter().map(|(id, r)| (*id, r.as_slice())));
        assert_eq!(bytes.len(), 2 * 20);
        let entry = |i: usize| {
            let mut coords = vec![0.0f32; 4];
            let id = c
                .try_decode_entry_into(&bytes[i * 20..(i + 1) * 20], &mut coords)
                .expect("valid entry");
            (id, coords)
        };
        assert_eq!(entry(0), (11, rows[0].1.clone()));
        assert_eq!(entry(1), (97, rows[1].1.clone()));
    }

    #[test]
    fn truncated_exact_entry_is_an_error() {
        let c = ExactPageCodec::new(4);
        let err = c
            .try_decode_entry_into(&[0u8; 7], &mut [0.0; 4])
            .unwrap_err();
        assert!(err.is_corruption());
    }

    #[test]
    fn entry_span_straddles_blocks() {
        let c = ExactPageCodec::new(4); // 20 bytes/entry
                                        // Block size 24: entry 1 occupies bytes 20..40 -> blocks 0..=1.
        assert_eq!(c.entry_span(0, 24), (0, 1, 0));
        assert_eq!(c.entry_span(1, 24), (0, 2, 20));
        assert_eq!(c.entry_span(6, 24), (5, 1, 0));
    }

    #[test]
    fn corrupt_quant_pages_decode_to_errors_not_panics() {
        let c = QuantizedPageCodec::new(3, 256);
        // Too short for a header.
        assert!(c.try_view(&[0u8; 2]).is_err());
        // g outside 1..=32.
        let mut block = vec![0u8; 256];
        block[0] = 1; // count = 1
        block[2] = 77; // g
        assert!(c.try_view(&block).is_err());
        // Count overflowing the block at a legal g.
        let mut block = vec![0u8; 256];
        block[0] = 0xFF;
        block[1] = 0xFF;
        block[2] = 32;
        let err = c.try_view(&block).unwrap_err();
        assert!(err.is_corruption(), "{err}");
    }

    #[test]
    fn every_single_bit_flip_decodes_or_errors_cleanly() {
        // No flipped bit may panic the decoder (errors and silent
        // misdecodes are acceptable at this layer — checksums above catch
        // the silent ones). Every view that validates is decoded in full.
        let c = QuantizedPageCodec::new(2, 64);
        let m = mbr(2);
        let entries = [(3u32, &[0.25f32, 0.75][..]), (8, &[0.5, 0.5])];
        let (mut scratch, mut cells, mut coords) = (Vec::new(), Vec::new(), Vec::new());
        for g in [6, EXACT_BITS] {
            let block = c.encode(&m, g, entries.into_iter());
            for bit in 0..block.len() * 8 {
                let mut tampered = block.clone();
                tampered[bit / 8] ^= 1 << (bit % 8);
                if let Ok(view) = c.try_view(&tampered) {
                    view.for_each_entry(&mut scratch, |_, _| {});
                    view.unpack_all(&mut cells);
                    view.for_each_point(&mut coords, |_, _| {});
                }
            }
        }
    }

    proptest! {
        /// Every decoded cell box contains its original point, for random
        /// pages at random resolutions.
        #[test]
        fn prop_quant_roundtrip(
            pts in proptest::collection::vec(
                proptest::collection::vec(0.0f32..1.0, 5), 1..20),
            g in 1u32..12,
        ) {
            let c = QuantizedPageCodec::new(5, 2048);
            let m = mbr(5);
            let block = c.encode(
                &m,
                g,
                pts.iter().enumerate().map(|(i, p)| (i as u32, p.as_slice())),
            );
            let dec = c.try_view(&block).expect("valid page");
            prop_assert_eq!(dec.len(), pts.len());
            let grid = GridQuantizer::new(&m, g);
            for (i, p) in pts.iter().enumerate() {
                prop_assert_eq!(dec.id(i) as usize, i);
                prop_assert!(grid.cell_box(&cells(&dec, i)).contains_point(p));
            }
        }
    }
}
