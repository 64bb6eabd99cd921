//! Bit packing and grid quantization codecs.
//!
//! The IQ-tree approximates the points of a data page by overlaying a
//! `2^g × … × 2^g` grid on the page's MBR (Section 3.1): each point is
//! represented by the `g`-bit cell number per dimension. This crate provides
//! the reusable pieces:
//!
//! * [`bits`] — a bit-level writer/reader for packed cell numbers,
//! * [`grid`] — the grid quantizer mapping points to cells and cells back
//!   to their box approximations,
//! * [`page`] — the on-disk codecs for quantized data pages (fixed one
//!   block, per-page resolution `g`, the 32-bit exact special case) and for
//!   exact (third-level) pages,
//! * [`table`] — quantized-domain distance kernels: per-(query, grid)
//!   lookup tables that reduce MINDIST/MAXDIST filtering and window
//!   classification to `d` table lookups, bit-identical to the naive
//!   decode-then-`Metric` path,
//! * [`simd`] — the batch page kernels: the whole-page unpack (an AVX2
//!   gather or scalar, picked once at runtime) and the one safe row fold
//!   behind the batch MINDIST/MAXDIST keys and window classification.

pub mod bits;
pub mod grid;
pub mod page;
pub mod simd;
pub mod table;

pub use bits::{unpack_cells, BitReader, BitWriter};
pub use grid::GridQuantizer;
pub use page::{ExactPageCodec, QuantPageView, QuantizedPageCodec, EXACT_BITS};
pub use simd::{kernel_name, set_kernel_override, Kernel};
pub use table::{CellMatch, DistTable, WindowTable};
