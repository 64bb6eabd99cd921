//! Runtime-dispatched SIMD kernels for the quantized-domain hot path.
//!
//! Three kernels back every level-2 page scan:
//!
//! * **unpack** — decode the packed `g`-bit cell numbers of a whole page
//!   into an entry-major `u32` block (`QuantPageView::unpack_all`);
//! * **fold** — accumulate `DistTable` rows over dimensions for a block of
//!   entries (MINDIST/MAXDIST keys, the ADC loop of PQ systems);
//! * **flags** — AND-fold `WindowTable` per-dimension flags for a block of
//!   entries (window classification).
//!
//! Each kernel has a scalar implementation (the portable fallback and the
//! property-test oracle) and an AVX2 implementation, with an SSE4.1 middle
//! tier for the f64 fold. The active tier is picked **once** per process via
//! [`is_x86_feature_detected!`], can be pinned down (never up) with
//! [`set_kernel_override`], and is forced to scalar when the
//! `IQ_FORCE_SCALAR=1` environment variable is set at startup.
//!
//! # Bit-identity contract
//!
//! All SIMD paths are *vertical*: one lane per entry (or per query), and the
//! per-entry fold still walks dimensions in index order with the same IEEE
//! f64 add / max the scalar code uses. `_mm256_add_pd` is an IEEE add per
//! lane, and `_mm256_max_pd` agrees with `f64::max` on the non-NaN,
//! non-negative contribution domain, so every key produced here is
//! bit-for-bit equal to the scalar fold — which is itself bit-for-bit equal
//! to `Metric::mindist_key` on the grid cell box. The kernels never reorder
//! or re-associate arithmetic across dimensions.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// The SIMD tier a kernel runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Portable scalar code; always available, the conformance oracle.
    Scalar,
    /// SSE4.1: 2-wide f64 folds (unpack and flag kernels stay scalar).
    Sse41,
    /// AVX2: 4-wide f64 folds, 8-wide gather-based unpack, 8-wide flags.
    Avx2,
}

impl Kernel {
    /// Stable lowercase name, as exported by the `simd_dispatch` gauge.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Sse41 => "sse41",
            Kernel::Avx2 => "avx2",
        }
    }

    /// Numeric code for metric export (scalar 0, sse41 1, avx2 2).
    pub fn code(self) -> u8 {
        match self {
            Kernel::Scalar => 0,
            Kernel::Sse41 => 1,
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
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        if std::arch::is_x86_feature_detected!("sse4.1") {
            return Kernel::Sse41;
        }
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
        2 if detected.code() >= 1 => Kernel::Sse41,
        3 if detected.code() >= 2 => Kernel::Avx2,
        _ => detected,
    }
}

/// Name of the active kernel (`avx2` / `sse41` / `scalar`).
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

/// How per-dimension contributions fold into a key: a sum for the additive
/// metrics (L2 in squared key space, L1), a max for L∞. Mirrors
/// `Metric::combine` with seed `0.0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FoldOp {
    /// `acc + contrib` (Euclidean, Manhattan).
    Sum,
    /// `acc.max(contrib)` (Maximum).
    Max,
}

impl FoldOp {
    #[inline]
    fn fold(self, acc: f64, contrib: f64) -> f64 {
        match self {
            FoldOp::Sum => acc + contrib,
            FoldOp::Max => acc.max(contrib),
        }
    }
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
/// bit shift `(i*w)%8` of every cell are the same for all entries and are
/// precomputed once per page. Each gather reads 4 bytes at `base + off[i]`
/// (`shift + width <= 7 + 25 = 32` always fits a dword). Entries whose last
/// gather would read past `body` fall back to the scalar decoder — the
/// gather may legitimately read a neighbouring entry's bytes (they are
/// masked off), but never out of bounds.
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
    let w = width as usize;
    let n = out.len() / dim;
    // Per-cell byte offsets and bit shifts, padded to a multiple of 8 by
    // repeating the last cell (duplicate gathers of a valid address).
    let vecs = dim.div_ceil(8);
    let mut offs = vec![0i32; vecs * 8];
    let mut shifts = vec![0i32; vecs * 8];
    for i in 0..vecs * 8 {
        let cell = i.min(dim - 1);
        offs[i] = ((cell * w) / 8) as i32;
        shifts[i] = ((cell * w) % 8) as i32;
    }
    let max_off = offs[dim - 1] as usize;
    let mask = _mm256_set1_epi32(((1u64 << width) - 1) as i32);
    let base_ptr = body.as_ptr();
    for j in 0..n {
        let base = j * entry + cell_off;
        if base + max_off + 4 > body.len() {
            // Tail entries where a 4-byte gather would run off the body.
            let off = j * entry + cell_off;
            crate::bits::unpack_cells(
                &body[off..off + (entry - cell_off)],
                width,
                &mut out[j * dim..(j + 1) * dim],
            );
            continue;
        }
        let p = base_ptr.add(base);
        let row = out[j * dim..].as_mut_ptr();
        for v in 0..vecs {
            let lanes = (dim - v * 8).min(8);
            let offv = _mm256_loadu_si256(offs.as_ptr().add(v * 8).cast());
            let shv = _mm256_loadu_si256(shifts.as_ptr().add(v * 8).cast());
            let raw = _mm256_i32gather_epi32::<1>(p.cast(), offv);
            let vals = _mm256_and_si256(_mm256_srlv_epi32(raw, shv), mask);
            if lanes == 8 {
                _mm256_storeu_si256(row.add(v * 8).cast(), vals);
            } else {
                let mut tmp = [0i32; 8];
                _mm256_storeu_si256(tmp.as_mut_ptr().cast(), vals);
                for (l, t) in tmp.iter().take(lanes).enumerate() {
                    *row.add(v * 8 + l) = *t as u32;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// fold: DistTable rows over an entry block
// ---------------------------------------------------------------------------

/// Folds one dimension-major table (`rows[i * cells + c]`) over an
/// entry-major cell block, writing one key per entry. Bit-identical to the
/// scalar per-entry fold.
pub fn fold_block(
    op: FoldOp,
    rows: &[f64],
    cells: usize,
    dim: usize,
    block: &[u32],
    out: &mut [f64],
) {
    let n = out.len();
    debug_assert_eq!(block.len(), n * dim);
    debug_assert_eq!(rows.len(), dim * cells);
    assert!(
        dim * cells <= i32::MAX as usize,
        "table too large for i32 gather indices"
    );
    match kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier verified by runtime detection.
        Kernel::Avx2 => unsafe { fold_block_avx2(op, rows, cells, dim, block, out) },
        #[cfg(target_arch = "x86_64")]
        Kernel::Sse41 => unsafe { fold_block_sse41(op, rows, cells, dim, block, out) },
        _ => fold_block_scalar(op, rows, cells, dim, block, out),
    }
}

/// Folds two dimension-major tables (lower and upper bound rows) over an
/// entry-major cell block in one pass, sharing the index computation.
// The paired lo/hi tables and outputs are the kernel ABI, not a struct.
#[allow(clippy::too_many_arguments)]
pub fn fold_block2(
    op: FoldOp,
    lo_rows: &[f64],
    hi_rows: &[f64],
    cells: usize,
    dim: usize,
    block: &[u32],
    out_lo: &mut [f64],
    out_hi: &mut [f64],
) {
    let n = out_lo.len();
    debug_assert_eq!(out_hi.len(), n);
    debug_assert_eq!(block.len(), n * dim);
    assert!(
        dim * cells <= i32::MAX as usize,
        "table too large for i32 gather indices"
    );
    match kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier verified by runtime detection.
        Kernel::Avx2 => unsafe {
            fold_block2_avx2(op, lo_rows, hi_rows, cells, dim, block, out_lo, out_hi)
        },
        _ => {
            fold_block_scalar(op, lo_rows, cells, dim, block, out_lo);
            fold_block_scalar(op, hi_rows, cells, dim, block, out_hi);
        }
    }
}

fn fold_block_scalar(
    op: FoldOp,
    rows: &[f64],
    cells: usize,
    dim: usize,
    block: &[u32],
    out: &mut [f64],
) {
    for (j, key) in out.iter_mut().enumerate() {
        let cs = &block[j * dim..(j + 1) * dim];
        let mut acc = 0.0f64;
        for (i, &c) in cs.iter().enumerate() {
            acc = op.fold(acc, rows[i * cells + c as usize]);
        }
        *key = acc;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fold_block_avx2(
    op: FoldOp,
    rows: &[f64],
    cells: usize,
    dim: usize,
    block: &[u32],
    out: &mut [f64],
) {
    use std::arch::x86_64::*;
    let n = out.len();
    let rp = rows.as_ptr();
    let mut j = 0;
    while j + 4 <= n {
        let mut acc = _mm256_setzero_pd();
        for i in 0..dim {
            let base = (i * cells) as i32;
            let idx = _mm_set_epi32(
                base + block[(j + 3) * dim + i] as i32,
                base + block[(j + 2) * dim + i] as i32,
                base + block[(j + 1) * dim + i] as i32,
                base + block[j * dim + i] as i32,
            );
            let v = _mm256_i32gather_pd::<8>(rp, idx);
            acc = match op {
                FoldOp::Sum => _mm256_add_pd(acc, v),
                FoldOp::Max => _mm256_max_pd(acc, v),
            };
        }
        _mm256_storeu_pd(out.as_mut_ptr().add(j), acc);
        j += 4;
    }
    fold_block_scalar(op, rows, cells, dim, &block[j * dim..], &mut out[j..]);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.1")]
unsafe fn fold_block_sse41(
    op: FoldOp,
    rows: &[f64],
    cells: usize,
    dim: usize,
    block: &[u32],
    out: &mut [f64],
) {
    use std::arch::x86_64::*;
    let n = out.len();
    let mut j = 0;
    while j + 2 <= n {
        let mut acc = _mm_setzero_pd();
        for i in 0..dim {
            let base = i * cells;
            let v = _mm_set_pd(
                rows[base + block[(j + 1) * dim + i] as usize],
                rows[base + block[j * dim + i] as usize],
            );
            acc = match op {
                FoldOp::Sum => _mm_add_pd(acc, v),
                FoldOp::Max => _mm_max_pd(acc, v),
            };
        }
        _mm_storeu_pd(out.as_mut_ptr().add(j), acc);
        j += 2;
    }
    fold_block_scalar(op, rows, cells, dim, &block[j * dim..], &mut out[j..]);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn fold_block2_avx2(
    op: FoldOp,
    lo_rows: &[f64],
    hi_rows: &[f64],
    cells: usize,
    dim: usize,
    block: &[u32],
    out_lo: &mut [f64],
    out_hi: &mut [f64],
) {
    use std::arch::x86_64::*;
    let n = out_lo.len();
    let lp = lo_rows.as_ptr();
    let hp = hi_rows.as_ptr();
    let mut j = 0;
    while j + 4 <= n {
        let mut alo = _mm256_setzero_pd();
        let mut ahi = _mm256_setzero_pd();
        for i in 0..dim {
            let base = (i * cells) as i32;
            let idx = _mm_set_epi32(
                base + block[(j + 3) * dim + i] as i32,
                base + block[(j + 2) * dim + i] as i32,
                base + block[(j + 1) * dim + i] as i32,
                base + block[j * dim + i] as i32,
            );
            let vlo = _mm256_i32gather_pd::<8>(lp, idx);
            let vhi = _mm256_i32gather_pd::<8>(hp, idx);
            match op {
                FoldOp::Sum => {
                    alo = _mm256_add_pd(alo, vlo);
                    ahi = _mm256_add_pd(ahi, vhi);
                }
                FoldOp::Max => {
                    alo = _mm256_max_pd(alo, vlo);
                    ahi = _mm256_max_pd(ahi, vhi);
                }
            }
        }
        _mm256_storeu_pd(out_lo.as_mut_ptr().add(j), alo);
        _mm256_storeu_pd(out_hi.as_mut_ptr().add(j), ahi);
        j += 4;
    }
    fold_block_scalar(op, lo_rows, cells, dim, &block[j * dim..], &mut out_lo[j..]);
    fold_block_scalar(op, hi_rows, cells, dim, &block[j * dim..], &mut out_hi[j..]);
}

// ---------------------------------------------------------------------------
// flags: WindowTable AND-fold over an entry block
// ---------------------------------------------------------------------------

/// AND-folds the dimension-major window flags (`flags[i * cells + c]`) over
/// an entry-major cell block; `out[j]` is the surviving flag byte of entry
/// `j` (seed `seed`, usually `FLAG_INTERSECTS | FLAG_CONTAINED`). The fold
/// is order-independent, so lane order does not matter. `flags` must carry
/// at least 3 padding bytes past `dim * cells` for the 4-byte gathers.
pub fn and_fold_flags(
    seed: u8,
    flags: &[u8],
    cells: usize,
    dim: usize,
    block: &[u32],
    out: &mut [u8],
) {
    let n = out.len();
    debug_assert_eq!(block.len(), n * dim);
    assert!(
        dim * cells <= i32::MAX as usize,
        "table too large for i32 gather indices"
    );
    #[cfg(target_arch = "x86_64")]
    if kernel() == Kernel::Avx2 && flags.len() >= dim * cells + 3 {
        // SAFETY: tier verified by runtime detection; flags has gather padding.
        unsafe { and_fold_flags_avx2(seed, flags, cells, dim, block, out) };
        return;
    }
    and_fold_flags_scalar(seed, flags, cells, dim, block, out);
}

fn and_fold_flags_scalar(
    seed: u8,
    flags: &[u8],
    cells: usize,
    dim: usize,
    block: &[u32],
    out: &mut [u8],
) {
    for (j, o) in out.iter_mut().enumerate() {
        let cs = &block[j * dim..(j + 1) * dim];
        let mut all = seed;
        for (i, &c) in cs.iter().enumerate() {
            all &= flags[i * cells + c as usize];
            if all == 0 {
                break;
            }
        }
        *o = all;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn and_fold_flags_avx2(
    seed: u8,
    flags: &[u8],
    cells: usize,
    dim: usize,
    block: &[u32],
    out: &mut [u8],
) {
    use std::arch::x86_64::*;
    let n = out.len();
    let fp = flags.as_ptr();
    let byte = _mm256_set1_epi32(0xFF);
    let mut j = 0;
    while j + 8 <= n {
        let mut all = _mm256_set1_epi32(i32::from(seed));
        for i in 0..dim {
            let base = (i * cells) as i32;
            let idx = _mm256_set_epi32(
                base + block[(j + 7) * dim + i] as i32,
                base + block[(j + 6) * dim + i] as i32,
                base + block[(j + 5) * dim + i] as i32,
                base + block[(j + 4) * dim + i] as i32,
                base + block[(j + 3) * dim + i] as i32,
                base + block[(j + 2) * dim + i] as i32,
                base + block[(j + 1) * dim + i] as i32,
                base + block[j * dim + i] as i32,
            );
            let g = _mm256_and_si256(_mm256_i32gather_epi32::<1>(fp.cast(), idx), byte);
            all = _mm256_and_si256(all, g);
        }
        let mut tmp = [0i32; 8];
        _mm256_storeu_si256(tmp.as_mut_ptr().cast(), all);
        for (l, t) in tmp.iter().enumerate() {
            out[j + l] = *t as u8;
        }
        j += 8;
    }
    and_fold_flags_scalar(seed, flags, cells, dim, &block[j * dim..], &mut out[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_detection_is_cached_and_nameable() {
        let k = kernel();
        assert_eq!(k, kernel());
        assert!(["avx2", "sse41", "scalar"].contains(&kernel_name()));
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

    #[test]
    fn fold_block_matches_scalar_on_all_kernels() {
        let dim = 5;
        let cells = 16;
        let rows: Vec<f64> = (0..dim * cells).map(|i| (i as f64) * 0.37 - 3.0).collect();
        let n = 13;
        let block: Vec<u32> = (0..n * dim)
            .map(|i| (i as u32 * 7 + 3) % cells as u32)
            .collect();
        for op in [FoldOp::Sum, FoldOp::Max] {
            let mut want = vec![0.0; n];
            fold_block_scalar(op, &rows, cells, dim, &block, &mut want);
            let mut got = vec![0.0; n];
            fold_block(op, &rows, cells, dim, &block, &mut got);
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn and_fold_matches_scalar() {
        let dim = 3;
        let cells = 8;
        let flags: Vec<u8> = (0..dim * cells + 3).map(|i| (i % 4) as u8).collect();
        let n = 21;
        let block: Vec<u32> = (0..n * dim)
            .map(|i| (i as u32 * 5 + 1) % cells as u32)
            .collect();
        let mut want = vec![0u8; n];
        and_fold_flags_scalar(3, &flags, cells, dim, &block, &mut want);
        let mut got = vec![0u8; n];
        and_fold_flags(3, &flags, cells, dim, &block, &mut got);
        assert_eq!(want, got);
    }
}
