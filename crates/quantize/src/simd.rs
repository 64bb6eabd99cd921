//! The quantized-domain hot path of every level-2 page scan.
//!
//! Two kernels back it:
//!
//! * **unpack** — decode the packed `g`-bit cell numbers of a whole page
//!   into an entry-major `u32` block (`QuantPageView::unpack_all`);
//! * **fold** — `fold_rows` folds a dimension-major table over that block,
//!   one value per entry: the `DistTable` MINDIST/MAXDIST keys (the ADC loop
//!   of PQ systems) and the `WindowTable` window flags.
//!
//! The unpack has a scalar implementation (the portable fallback and the
//! property-test oracle) and an AVX2 gather. The fold is one safe loop with
//! no tier of its own: it measured faster than AVX2 and SSE4.1 gather
//! folds (DESIGN.md, "SIMD kernels & batched scans"). The
//! active tier is picked **once** per process via
//! [`is_x86_feature_detected!`], can be pinned down (never up) with
//! [`set_kernel_override`], and is forced to scalar when the
//! `IQ_FORCE_SCALAR=1` environment variable is set at startup. The tier
//! also selects the AVX2 build of the distance-table rows
//! (`DistTable::build`) and of the eq 5 convolution in `iq-cost`.
//!
//! # Bit-identity contract
//!
//! The AVX2 unpack yields exactly the bits of the scalar decoder.
//! `fold_rows` keeps one accumulator per entry and walks dimensions in
//! index order with the caller's operator, so every key it produces is
//! bit-for-bit equal to the per-entry fold — which is itself bit-for-bit
//! equal to `Metric::mindist_key` on the grid cell box.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// The SIMD tier a kernel runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Portable scalar code; always available, the conformance oracle.
    Scalar,
    /// AVX2: 8-wide gather-based unpack, AVX2 builds of the table rows and
    /// the eq 5 convolution.
    Avx2,
}

impl Kernel {
    /// Stable lowercase name, as exported by the `simd_dispatch` gauge.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
        }
    }

    /// Numeric code for metric export (scalar 0, avx2 2; 1 was a retired
    /// SSE4.1 tier).
    pub fn code(self) -> u8 {
        match self {
            Kernel::Scalar => 0,
            Kernel::Avx2 => 2,
        }
    }
}

/// 0 = no override, else `Kernel::code() + 1`.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);
static DETECTED: OnceLock<Kernel> = OnceLock::new();

fn detect() -> Kernel {
    if std::env::var("IQ_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0") {
        return Kernel::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Kernel::Avx2;
    }
    Kernel::Scalar
}

/// The kernel every batch entry point dispatches to: the one-time CPU
/// detection result, clamped down by [`set_kernel_override`] if one is set.
#[inline]
pub fn kernel() -> Kernel {
    let detected = *DETECTED.get_or_init(detect);
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => Kernel::Scalar,
        _ => detected,
    }
}

/// Name of the active kernel (`avx2` / `scalar`).
pub fn kernel_name() -> &'static str {
    kernel().name()
}

/// Pins the dispatch tier for this process (benchmarks and tests). The
/// override can only select a tier the CPU supports — asking for a tier
/// above the detected one keeps the detected tier, so forcing can never
/// introduce illegal instructions. `None` restores runtime detection.
/// Returns the tier now in effect.
pub fn set_kernel_override(k: Option<Kernel>) -> Kernel {
    OVERRIDE.store(k.map_or(0, |k| k.code() + 1), Ordering::Relaxed);
    kernel()
}

// ---------------------------------------------------------------------------
// unpack: packed g-bit cells -> entry-major u32 block
// ---------------------------------------------------------------------------

/// Unpacks the cell vectors of `n = out.len() / dim` fixed-stride entries.
///
/// Entry `j`'s packed cells start at byte `j * entry + cell_off` of `body`
/// (the page layout: a 4-byte id precedes the cells, so `cell_off` is 4).
/// `out[j * dim..][..dim]` receives entry `j`'s cells. Results are identical
/// to calling [`crate::unpack_cells`] per entry.
pub fn unpack_block(
    body: &[u8],
    entry: usize,
    cell_off: usize,
    width: u32,
    dim: usize,
    out: &mut [u32],
) {
    debug_assert_eq!(out.len() % dim.max(1), 0);
    let n = out.len().checked_div(dim).unwrap_or(0);
    debug_assert!(
        n == 0 || (n - 1) * entry + cell_off + (dim * width as usize).div_ceil(8) <= body.len()
    );
    #[cfg(target_arch = "x86_64")]
    if kernel() == Kernel::Avx2 && (1..=25).contains(&width) && dim > 0 {
        // SAFETY: AVX2 presence was verified by runtime detection.
        unsafe { unpack_block_avx2(body, entry, cell_off, width, dim, out) };
        return;
    }
    unpack_block_scalar(body, entry, cell_off, width, dim, out);
}

fn unpack_block_scalar(
    body: &[u8],
    entry: usize,
    cell_off: usize,
    width: u32,
    dim: usize,
    out: &mut [u32],
) {
    for (j, row) in out.chunks_exact_mut(dim.max(1)).enumerate() {
        let off = j * entry + cell_off;
        crate::bits::unpack_cells(&body[off..off + (entry - cell_off)], width, row);
    }
}

/// AVX2 unpack for widths 1..=25: one 8-lane dword gather per 8 cells.
///
/// Cell `i` of an entry occupies bits `[i*w, (i+1)*w)` of the entry's cell
/// bytes; because entries start byte-aligned, the byte offset `(i*w)/8` and
/// bit shift `(i*w)%8` of every cell are the same for all entries, so each
/// group of 8 cells computes them once from the lane index and then gathers
/// that group for every entry. Each gather reads 4 bytes at `base + off[i]`
/// (`shift + width <= 7 + 25 = 32` always fits a dword). Entries whose last
/// gather would read past `body` fall back to the scalar decoder — the
/// gather may legitimately read a neighbouring entry's bytes (they are
/// masked off), but never out of bounds. No heap allocation.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn unpack_block_avx2(
    body: &[u8],
    entry: usize,
    cell_off: usize,
    width: u32,
    dim: usize,
    out: &mut [u32],
) {
    use std::arch::x86_64::*;
    let n = out.len() / dim;
    // The last cell's dword starts `max_off` bytes into an entry's cells:
    // entries before `safe` gather it inside `body`, the rest (a suffix,
    // as entry starts grow with `j`) decode scalar.
    let max_off = (dim - 1) * width as usize / 8;
    let safe = body
        .len()
        .checked_sub(cell_off + max_off + 4)
        .map_or(0, |room| (room / entry + 1).min(n));
    for j in safe..n {
        let off = j * entry + cell_off;
        crate::bits::unpack_cells(
            &body[off..off + (entry - cell_off)],
            width,
            &mut out[j * dim..(j + 1) * dim],
        );
    }
    let mask = _mm256_set1_epi32(((1u64 << width) - 1) as i32);
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let last = _mm256_set1_epi32(dim as i32 - 1);
    for v in (0..dim).step_by(8) {
        // Cells `v..v + 8`, the last cell repeated past `dim` (a duplicate
        // gather of a valid address).
        let cell = _mm256_min_epi32(_mm256_add_epi32(lane, _mm256_set1_epi32(v as i32)), last);
        let bit = _mm256_mullo_epi32(cell, _mm256_set1_epi32(width as i32));
        let offv = _mm256_srli_epi32::<3>(bit);
        let shv = _mm256_and_si256(bit, _mm256_set1_epi32(7));
        let lanes = (dim - v).min(8);
        for j in 0..safe {
            let p = body.as_ptr().add(j * entry + cell_off);
            let raw = _mm256_i32gather_epi32::<1>(p.cast(), offv);
            let vals = _mm256_and_si256(_mm256_srlv_epi32(raw, shv), mask);
            let row = &mut out[j * dim + v..j * dim + v + lanes];
            if lanes == 8 {
                _mm256_storeu_si256(row.as_mut_ptr().cast(), vals);
            } else {
                let mut tmp = [0u32; 8];
                _mm256_storeu_si256(tmp.as_mut_ptr().cast(), vals);
                row.copy_from_slice(&tmp[..lanes]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// fold: table rows over an entry block
// ---------------------------------------------------------------------------

/// Folds dimension-major table rows (`rows[i * cells + c]` is cell `c` of
/// dimension `i`) over an entry-major cell block (`block[j * dim..][..dim]`
/// is entry `j`'s cells): `out[j]` is `seed` folded with `f` over entry
/// `j`'s `d` looked-up cells in dimension order. The `DistTable` keys fold
/// with `Metric::combine`, the `WindowTable` flags with `&`.
///
/// Four entries go at a time, each with its own accumulator, so every
/// output is bit-identical to the per-entry loop.
///
/// # Panics
/// Panics if `block` does not hold `out.len()` entries, if `rows` is
/// shorter than `dim * cells`, or if a cell number is `cells` or more.
pub(crate) fn fold_rows<T: Copy>(
    rows: &[T],
    cells: usize,
    dim: usize,
    block: &[u32],
    seed: T,
    f: impl Fn(T, T) -> T,
    out: &mut [T],
) {
    assert_eq!(block.len(), out.len() * dim, "block/out length mismatch");
    if dim == 0 {
        out.fill(seed);
        return;
    }
    let rows = &rows[..dim * cells];
    let mut quads = out.chunks_exact_mut(4);
    let mut entries = block.chunks_exact(4 * dim);
    for (o, b) in (&mut quads).zip(&mut entries) {
        let (b0, b) = b.split_at(dim);
        let (b1, b) = b.split_at(dim);
        let (b2, b3) = b.split_at(dim);
        let mut acc = [seed; 4];
        let dims = rows.chunks_exact(cells).zip(b0).zip(b1).zip(b2).zip(b3);
        for ((((row, &c0), &c1), &c2), &c3) in dims {
            acc[0] = f(acc[0], row[c0 as usize]);
            acc[1] = f(acc[1], row[c1 as usize]);
            acc[2] = f(acc[2], row[c2 as usize]);
            acc[3] = f(acc[3], row[c3 as usize]);
        }
        o.copy_from_slice(&acc);
    }
    let rest = entries.remainder().chunks_exact(dim);
    for (o, cs) in quads.into_remainder().iter_mut().zip(rest) {
        *o = rows
            .chunks_exact(cells)
            .zip(cs)
            .fold(seed, |acc, (row, &c)| f(acc, row[c as usize]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_detection_is_cached_and_nameable() {
        let k = kernel();
        assert_eq!(k, kernel());
        assert!(["avx2", "scalar"].contains(&kernel_name()));
        assert!(k.code() <= 2);
    }

    #[test]
    fn override_clamps_to_detected_tier() {
        let detected = kernel();
        // Forcing scalar always works.
        assert_eq!(set_kernel_override(Some(Kernel::Scalar)), Kernel::Scalar);
        // Asking for a tier above the detected one keeps the detected tier.
        let forced = set_kernel_override(Some(Kernel::Avx2));
        assert!(forced.code() <= detected.code());
        assert_eq!(set_kernel_override(None), detected);
    }

    /// The per-entry fold `fold_rows` must reproduce: one accumulator,
    /// dimensions in index order.
    fn fold_entrywise<T: Copy>(
        rows: &[T],
        cells: usize,
        dim: usize,
        block: &[u32],
        seed: T,
        f: impl Fn(T, T) -> T,
    ) -> Vec<T> {
        block
            .chunks_exact(dim)
            .map(|cs| {
                let mut acc = seed;
                for (i, &c) in cs.iter().enumerate() {
                    acc = f(acc, rows[i * cells + c as usize]);
                }
                acc
            })
            .collect()
    }

    /// The per-entry window-flag AND, with the early exit `classify` takes.
    fn and_entrywise(seed: u8, flags: &[u8], cells: usize, dim: usize, block: &[u32]) -> Vec<u8> {
        block
            .chunks_exact(dim)
            .map(|cs| {
                let mut all = seed;
                for (i, &c) in cs.iter().enumerate() {
                    all &= flags[i * cells + c as usize];
                    if all == 0 {
                        break;
                    }
                }
                all
            })
            .collect()
    }

    #[test]
    fn fold_rows_matches_entrywise_loops() {
        let (dim, cells) = (5, 16);
        let rows: Vec<f64> = (0..dim * cells).map(|i| (i as f64) * 0.37 - 3.0).collect();
        let flags: Vec<u8> = (0..dim * cells).map(|i| [3, 1, 3, 0][i % 4]).collect();
        // Every remainder of the 4-entry loop, with and without full quads.
        for n in 0..=9 {
            let block: Vec<u32> = (0..n * dim)
                .map(|i| (i as u32 * 7 + 3) % cells as u32)
                .collect();
            let ops: [fn(f64, f64) -> f64; 2] = [|a, c| a + c, f64::max];
            for op in ops {
                let want = fold_entrywise(&rows, cells, dim, &block, 0.0, op);
                let mut got = vec![f64::NAN; n];
                fold_rows(&rows, cells, dim, &block, 0.0, op, &mut got);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "n = {n}");
            }
            let want = and_entrywise(3, &flags, cells, dim, &block);
            let mut got = vec![0xFF; n];
            fold_rows(&flags, cells, dim, &block, 3, |a, f| a & f, &mut got);
            assert_eq!(got, want, "n = {n}");
        }
    }
}
