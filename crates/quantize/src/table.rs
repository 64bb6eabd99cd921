//! Quantized-domain distance kernels: per-(query, page-grid) lookup tables.
//!
//! The naive level-2 scan reconstructs every candidate's cell box as an
//! [`Mbr`] and recomputes MINDIST scalar by scalar. But for a fixed query
//! and a fixed page grid, the contribution of dimension `i` to MINDIST only
//! depends on the cell number `c` — a `dim × 2^g` table of precomputed
//! contributions reduces candidate filtering to `d` table lookups and `d`
//! folds, the asymmetric-distance idea from fast vector-quantization search
//! applied to the IQ-tree's per-page grids (and the VA-file's global one).
//!
//! Bit-for-bit contract: [`DistTable::mindist_key`] equals
//! `Metric::mindist_key(q, &grid.cell_box(cells))` exactly, and
//! [`DistTable::maxdist`] equals `Metric::maxdist(q, &grid.cell_box(cells))`
//! exactly, for the [`GridQuantizer`](crate::grid::GridQuantizer) built from
//! the same `(mbr, g)`. The tables therefore change query *speed*, never
//! query *answers* — the engine-conformance suite relies on this. The
//! guarantee holds because both paths round each cell edge through the same
//! `f32` cast and fold per-dimension contributions in index order with the
//! same [`Metric::combine`].
//!
//! A table materializes only the rows its caller reads:
//! [`DistTable::build`] fills the MINDIST rows (the k-NN walk reads nothing
//! else), [`DistTable::build_bounds`] the MINDIST and MAXDIST rows (the
//! range filter and the VA-file read both bounds of every entry). A MAXDIST
//! read on a MINDIST-only table computes its contributions on the fly, so
//! it can never see a stale row. Each row is one straight-line loop over
//! the dimension's f32-rounded cell edges, computed once per dimension;
//! the loop is compiled at baseline and with AVX2 and picked by the
//! [`simd::kernel`] tier, with the same bits either way.
//!
//! For very fine grids (`2^g` large relative to the page population),
//! materializing the table costs more than it saves; the table then keeps
//! only the `O(dim)` grid parameters and computes contributions on the fly —
//! still allocation-free and still bit-identical, just without the lookup.

use crate::page::EXACT_BITS;
use crate::simd;
use iq_geometry::{Mbr, Metric};

/// Hard cap on materialized cells per dimension (beyond this the lazy path
/// is used regardless of the population hint).
const MAX_TABLE_CELLS: usize = 1 << 16;

/// Edge `c` of a grid dimension with lower bound `lb` and cell width `w`:
/// `lb + c·w` rounded through `f32`, then widened back. Cell `c` spans
/// edges `c` and `c + 1` — exactly the bounds
/// [`GridQuantizer::cell_lb`](crate::grid::GridQuantizer::cell_lb) /
/// [`GridQuantizer::cell_ub`](crate::grid::GridQuantizer::cell_ub) produce.
#[inline(always)]
fn grid_edge(lb: f64, w: f64, c: f64) -> f64 {
    f64::from((lb + c * w) as f32)
}

/// Writes all `out.len()` edges `0, 1, ..` of one grid dimension (see
/// [`grid_edge`]). The edge number goes through `i32` so the loop
/// vectorizes; `out` never holds more than `MAX_TABLE_CELLS + 1` edges.
#[inline(always)]
fn grid_edges(lb: f64, w: f64, out: &mut [f64]) {
    for (c, e) in out.iter_mut().enumerate() {
        *e = grid_edge(lb, w, f64::from(c as i32));
    }
}

/// Writes `contrib(gap(x, lower[c], upper[c]))` for every cell `c` of one
/// row: a straight-line loop over adjacent edge pairs.
#[inline(always)]
fn fill_row(
    metric: Metric,
    row: &mut [f64],
    lower: &[f64],
    upper: &[f64],
    gap: impl Fn(f64, f64) -> f64,
) {
    let cells = row.iter_mut().zip(lower).zip(upper);
    match metric {
        Metric::Euclidean => {
            for ((o, &lo), &hi) in cells {
                let g = gap(lo, hi);
                *o = g * g;
            }
        }
        Metric::Maximum | Metric::Manhattan => {
            for ((o, &lo), &hi) in cells {
                *o = gap(lo, hi);
            }
        }
    }
}

/// The table kernel: fills the `dim × cells` MINDIST rows `lo` and, when
/// `hi` is non-empty, the MAXDIST rows `hi`, using `edges` (`cells + 1`
/// long) as per-dimension scratch. Every cell holds exactly
/// `metric.contrib(Metric::box_gap(..))` / `metric.contrib(Metric::far_gap(..))`
/// of that cell's f32-rounded edges, so the tier it is compiled for never
/// changes a bit.
#[inline(always)]
fn fill_rows(
    metric: Metric,
    q: &[f64],
    grid_lb: &[f64],
    width: &[f64],
    edges: &mut [f64],
    lo: &mut [f64],
    hi: &mut [f64],
) {
    let cells = edges.len() - 1;
    for (i, ((&x, &lb), &w)) in q.iter().zip(grid_lb).zip(width).enumerate() {
        grid_edges(lb, w, edges);
        let (lower, upper) = (&edges[..cells], &edges[1..]);
        let row = i * cells..(i + 1) * cells;
        fill_row(metric, &mut lo[row.clone()], lower, upper, |l, u| {
            Metric::box_gap(x, l, u)
        });
        if !hi.is_empty() {
            fill_row(metric, &mut hi[row], lower, upper, |l, u| {
                Metric::far_gap(x, l, u)
            });
        }
    }
}

/// [`fill_rows`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fill_rows_avx2(
    metric: Metric,
    q: &[f64],
    grid_lb: &[f64],
    width: &[f64],
    edges: &mut [f64],
    lo: &mut [f64],
    hi: &mut [f64],
) {
    fill_rows(metric, q, grid_lb, width, edges, lo, hi);
}

/// Per-(query, grid) distance-contribution tables for quantized-domain
/// filtering.
///
/// Reusable: [`DistTable::build`] refills the internal buffers without
/// allocating once their capacity has grown to the largest page seen, so a
/// scan over many pages is allocation-free in the steady state.
#[derive(Clone, Debug)]
pub struct DistTable {
    metric: Metric,
    dim: usize,
    /// Cells per dimension (`2^g`).
    cells: usize,
    /// Whether the MINDIST rows are materialized.
    materialized: bool,
    /// Whether the MAXDIST rows are materialized too
    /// ([`DistTable::build_bounds`] on a materialized table).
    with_max: bool,
    /// `dim × cells` lower-bound contributions in key space (row per
    /// dimension): `metric.contrib(box_gap(q_i, cell_lb, cell_ub))`.
    lo: Vec<f64>,
    /// `dim × cells` farthest-corner contributions in key space:
    /// `metric.contrib(far_gap(q_i, cell_lb, cell_ub))`. Read only when
    /// `with_max`: a MINDIST-only build leaves it stale.
    hi: Vec<f64>,
    /// Query coordinates widened to f64.
    q: Vec<f64>,
    /// Grid lower bound per dimension, widened to f64.
    grid_lb: Vec<f64>,
    /// Cell width per dimension (0 for degenerate dimensions).
    width: Vec<f64>,
    /// The `cells + 1` edges of the dimension being filled (build scratch).
    edges: Vec<f64>,
}

impl Default for DistTable {
    fn default() -> Self {
        Self::new()
    }
}

impl DistTable {
    /// Creates an empty table; call [`Self::build`] before querying it.
    pub fn new() -> Self {
        Self {
            metric: Metric::Euclidean,
            dim: 0,
            cells: 0,
            materialized: false,
            with_max: false,
            lo: Vec::new(),
            hi: Vec::new(),
            q: Vec::new(),
            grid_lb: Vec::new(),
            width: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// (Re)builds the MINDIST table for query `q` over the grid `(mbr, g)`,
    /// reusing all internal buffers. `hint_n` is the expected number of
    /// candidates the table will filter (the page population): the per-cell
    /// rows are only materialized when the grid is coarse enough that the
    /// build cost amortizes over the scan; otherwise contributions are
    /// computed lazily — identical results either way.
    ///
    /// Only the MINDIST rows are filled: MAXDIST reads ([`Self::maxdist_key`],
    /// [`Self::maxdist`], the upper half of [`Self::bounds_keys`]) on this
    /// table take the lazy path. Use [`Self::build_bounds`] when both bounds
    /// are read per entry.
    ///
    /// # Panics
    /// Panics if `g` is 0 or ≥ 32 (the exact case has no grid) or if the
    /// query dimension does not match the MBR.
    pub fn build(&mut self, mbr: &Mbr, g: u32, metric: Metric, q: &[f32], hint_n: usize) {
        self.fill(mbr, g, metric, q, hint_n, false);
    }

    /// Like [`Self::build`], but also materializes the MAXDIST rows, for
    /// callers that read both bounds of every entry (the range filter and
    /// the VA-file).
    ///
    /// # Panics
    /// As [`Self::build`].
    pub fn build_bounds(&mut self, mbr: &Mbr, g: u32, metric: Metric, q: &[f32], hint_n: usize) {
        self.fill(mbr, g, metric, q, hint_n, true);
    }

    fn fill(&mut self, mbr: &Mbr, g: u32, metric: Metric, q: &[f32], hint_n: usize, max: bool) {
        assert!(
            (1..EXACT_BITS).contains(&g),
            "grid resolution must be in 1..=31 bits"
        );
        assert_eq!(q.len(), mbr.dim(), "query dimension mismatch");
        self.metric = metric;
        self.dim = q.len();
        let cells = 1usize << g;
        self.cells = cells;
        let cells_f = f64::from(1u32 << g);
        self.q.clear();
        self.q.extend(q.iter().map(|&x| f64::from(x)));
        self.grid_lb.clear();
        self.grid_lb
            .extend((0..self.dim).map(|i| f64::from(mbr.lb(i))));
        self.width.clear();
        self.width
            .extend((0..self.dim).map(|i| mbr.extent(i) / cells_f));
        // Materialize when the build cost (dim × cells) is small relative to
        // the lookups it replaces (hint_n × dim): coarse grids over populous
        // pages win big, fine grids over sparse pages fall back to the lazy
        // path.
        self.materialized = cells <= MAX_TABLE_CELLS && cells <= 8 * hint_n.max(1);
        self.with_max = self.materialized && max;
        if !self.materialized {
            return;
        }
        // Every row cell is overwritten below; resizing only when the
        // shape changes skips a fill pass over the rows.
        self.lo.resize(self.dim * cells, 0.0);
        if self.with_max {
            self.hi.resize(self.dim * cells, 0.0);
        }
        self.edges.resize(cells + 1, 0.0);
        let (lo, edges) = (&mut self.lo[..], &mut self.edges[..]);
        // An empty `hi` tells the kernel to skip the MAXDIST rows.
        let hi = if self.with_max {
            &mut self.hi[..]
        } else {
            &mut []
        };
        let (q, grid_lb, width) = (&self.q, &self.grid_lb, &self.width);
        #[cfg(target_arch = "x86_64")]
        if simd::kernel() == simd::Kernel::Avx2 {
            // SAFETY: the AVX2 tier is selected only after runtime
            // detection found AVX2 on this CPU.
            unsafe { fill_rows_avx2(metric, q, grid_lb, width, edges, lo, hi) };
            return;
        }
        fill_rows(metric, q, grid_lb, width, edges, lo, hi);
    }

    /// The metric the table was built for.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Whether the per-cell MINDIST rows are materialized (true for coarse
    /// grids).
    pub fn is_materialized(&self) -> bool {
        self.materialized
    }

    /// The f32-rounded lower/upper edges of cell `c` in dimension `i` — the
    /// exact bounds [`GridQuantizer::cell_lb`](crate::grid::GridQuantizer)
    /// would produce.
    #[inline]
    fn cell_edges(&self, i: usize, c: u32) -> (f64, f64) {
        let (lb, w) = (self.grid_lb[i], self.width[i]);
        (
            grid_edge(lb, w, f64::from(c)),
            grid_edge(lb, w, f64::from(c + 1)),
        )
    }

    /// MINDIST from the query to the cell box, in key space (squared for
    /// Euclidean) — bit-identical to
    /// `metric.mindist_key(q, &grid.cell_box(cells))`.
    #[inline]
    pub fn mindist_key(&self, cells: &[u32]) -> f64 {
        debug_assert_eq!(cells.len(), self.dim);
        let mut acc = 0.0f64;
        if self.materialized {
            for (i, &c) in cells.iter().enumerate() {
                acc = self
                    .metric
                    .combine(acc, self.lo[i * self.cells + c as usize]);
            }
        } else {
            for (i, &c) in cells.iter().enumerate() {
                let (lo, hi) = self.cell_edges(i, c);
                let gap = Metric::box_gap(self.q[i], lo, hi);
                acc = self.metric.combine(acc, self.metric.contrib(gap));
            }
        }
        acc
    }

    /// MAXDIST from the query to the cell box, in key space (squared for
    /// Euclidean) — the raw fold, before any square root. The VA-file's
    /// two-phase filter works entirely in key space and uses this directly.
    #[inline]
    pub fn maxdist_key(&self, cells: &[u32]) -> f64 {
        debug_assert_eq!(cells.len(), self.dim);
        let mut acc = 0.0f64;
        if self.with_max {
            for (i, &c) in cells.iter().enumerate() {
                acc = self
                    .metric
                    .combine(acc, self.hi[i * self.cells + c as usize]);
            }
        } else {
            for (i, &c) in cells.iter().enumerate() {
                let (lo, hi) = self.cell_edges(i, c);
                let gap = Metric::far_gap(self.q[i], lo, hi);
                acc = self.metric.combine(acc, self.metric.contrib(gap));
            }
        }
        acc
    }

    /// MAXDIST from the query to the cell box, as a *distance* (the
    /// Euclidean fold takes its square root at the end) — bit-identical to
    /// `metric.maxdist(q, &grid.cell_box(cells))`.
    #[inline]
    pub fn maxdist(&self, cells: &[u32]) -> f64 {
        self.metric.key_to_distance(self.maxdist_key(cells))
    }

    /// Batch [`Self::mindist_key`] over an entry-major cell block
    /// (`block[j * dim..][..dim]` is entry `j`'s cells), one key per entry.
    /// Folds the materialized rows with `simd::fold_rows`; bit-identical
    /// to the per-entry calls either way.
    pub fn mindist_keys(&self, block: &[u32], out: &mut Vec<f64>) {
        let n = block.len().checked_div(self.dim).unwrap_or(0);
        debug_assert_eq!(block.len(), n * self.dim);
        out.clear();
        out.resize(n, 0.0);
        if self.materialized {
            self.fold_keys(&self.lo, block, out);
        } else {
            for (j, key) in out.iter_mut().enumerate() {
                *key = self.mindist_key(&block[j * self.dim..(j + 1) * self.dim]);
            }
        }
    }

    /// Batch MINDIST *and* MAXDIST keys over an entry-major cell block in
    /// one pass (the VA-file filter and the range scan need both bounds per
    /// entry). Bit-identical to [`Self::mindist_key`] / [`Self::maxdist_key`].
    /// The row fold needs both row sets ([`Self::build_bounds`]); on a
    /// table built by [`Self::build`] both keys come from the lazy path.
    pub fn bounds_keys(&self, block: &[u32], out_lo: &mut Vec<f64>, out_hi: &mut Vec<f64>) {
        let n = block.len().checked_div(self.dim).unwrap_or(0);
        debug_assert_eq!(block.len(), n * self.dim);
        out_lo.clear();
        out_lo.resize(n, 0.0);
        out_hi.clear();
        out_hi.resize(n, 0.0);
        if self.with_max {
            self.fold_keys(&self.lo, block, out_lo);
            self.fold_keys(&self.hi, block, out_hi);
        } else {
            for j in 0..n {
                let cs = &block[j * self.dim..(j + 1) * self.dim];
                out_lo[j] = self.mindist_key(cs);
                out_hi[j] = self.maxdist_key(cs);
            }
        }
    }

    /// One key per entry of `block`: the materialized `rows` folded with
    /// [`Metric::combine`] from seed `0.0`, as [`Self::mindist_key`] does.
    fn fold_keys(&self, rows: &[f64], block: &[u32], out: &mut [f64]) {
        simd::fold_rows(
            rows,
            self.cells,
            self.dim,
            block,
            0.0,
            |acc, c| self.metric.combine(acc, c),
            out,
        );
    }
}

/// How a grid cell relates to a query window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellMatch {
    /// The cell box does not intersect the window: the candidate is out.
    Disjoint,
    /// The cell box overlaps the window boundary: the candidate needs exact
    /// refinement.
    Partial,
    /// The cell box lies entirely inside the window: the candidate is in,
    /// no refinement needed.
    Inside,
}

const FLAG_INTERSECTS: u8 = 1;
const FLAG_CONTAINED: u8 = 2;

/// Per-(window, grid) cell classification table for window queries — the
/// window-query analogue of [`DistTable`].
///
/// Bit-for-bit contract: [`WindowTable::classify`] reproduces exactly the
/// decisions `window.intersects(&cell_box)` / `window.contains_mbr(&cell_box)`
/// would make on the f32 cell box, because each per-dimension flag is
/// computed from the same f32-rounded cell edges and the conjunction over
/// dimensions is the same.
#[derive(Clone, Debug)]
pub struct WindowTable {
    dim: usize,
    cells: usize,
    materialized: bool,
    /// `dim × cells` flags (FLAG_INTERSECTS | FLAG_CONTAINED).
    flags: Vec<u8>,
    /// Window bounds, widened from f32 (exactly, so every comparison
    /// decides as it would on the f32 values).
    win_lb: Vec<f64>,
    win_ub: Vec<f64>,
    grid_lb: Vec<f64>,
    width: Vec<f64>,
    /// The `cells + 1` edges of the dimension being filled (build scratch).
    edges: Vec<f64>,
}

impl Default for WindowTable {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowTable {
    /// Creates an empty table; call [`Self::build`] before querying it.
    pub fn new() -> Self {
        Self {
            dim: 0,
            cells: 0,
            materialized: false,
            flags: Vec::new(),
            win_lb: Vec::new(),
            win_ub: Vec::new(),
            grid_lb: Vec::new(),
            width: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// (Re)builds the classification table for `window` over the grid
    /// `(mbr, g)`, reusing internal buffers. See [`DistTable::build`] for
    /// the role of `hint_n`.
    ///
    /// # Panics
    /// Panics if `g` is 0 or ≥ 32 or the window dimension does not match.
    pub fn build(&mut self, mbr: &Mbr, g: u32, window: &Mbr, hint_n: usize) {
        assert!(
            (1..EXACT_BITS).contains(&g),
            "grid resolution must be in 1..=31 bits"
        );
        assert_eq!(window.dim(), mbr.dim(), "window dimension mismatch");
        self.dim = mbr.dim();
        let cells = 1usize << g;
        self.cells = cells;
        let cells_f = f64::from(1u32 << g);
        self.win_lb.clear();
        self.win_ub.clear();
        self.grid_lb.clear();
        self.width.clear();
        for i in 0..self.dim {
            self.win_lb.push(f64::from(window.lb(i)));
            self.win_ub.push(f64::from(window.ub(i)));
            self.grid_lb.push(f64::from(mbr.lb(i)));
            self.width.push(mbr.extent(i) / cells_f);
        }
        self.materialized = cells <= MAX_TABLE_CELLS && cells <= 8 * hint_n.max(1);
        self.flags.clear();
        if !self.materialized {
            return;
        }
        self.flags.reserve(self.dim * cells);
        self.edges.resize(cells + 1, 0.0);
        for i in 0..self.dim {
            grid_edges(self.grid_lb[i], self.width[i], &mut self.edges);
            let (win_lb, win_ub) = (self.win_lb[i], self.win_ub[i]);
            self.flags.extend(
                self.edges
                    .windows(2)
                    .map(|e| Self::dim_flags(win_lb, win_ub, e[0], e[1])),
            );
        }
    }

    /// The per-dimension flags, matching `Mbr::intersects` /
    /// `Mbr::contains_mbr` comparisons exactly (closed intervals; every
    /// operand is an f32 value, widened exactly).
    #[inline]
    fn dim_flags(win_lb: f64, win_ub: f64, cell_lb: f64, cell_ub: f64) -> u8 {
        let mut f = 0u8;
        if win_lb <= cell_ub && cell_lb <= win_ub {
            f |= FLAG_INTERSECTS;
        }
        if win_lb <= cell_lb && cell_ub <= win_ub {
            f |= FLAG_CONTAINED;
        }
        f
    }

    /// Classifies a candidate's cell vector against the window —
    /// bit-identical to testing `window.intersects(&grid.cell_box(cells))`
    /// and `window.contains_mbr(&grid.cell_box(cells))`.
    #[inline]
    pub fn classify(&self, cells: &[u32]) -> CellMatch {
        debug_assert_eq!(cells.len(), self.dim);
        let mut all = FLAG_INTERSECTS | FLAG_CONTAINED;
        if self.materialized {
            for (i, &c) in cells.iter().enumerate() {
                all &= self.flags[i * self.cells + c as usize];
                if all == 0 {
                    return CellMatch::Disjoint;
                }
            }
        } else {
            for (i, &c) in cells.iter().enumerate() {
                let (lb, w) = (self.grid_lb[i], self.width[i]);
                let cell_lb = grid_edge(lb, w, f64::from(c));
                let cell_ub = grid_edge(lb, w, f64::from(c + 1));
                all &= Self::dim_flags(self.win_lb[i], self.win_ub[i], cell_lb, cell_ub);
                if all == 0 {
                    return CellMatch::Disjoint;
                }
            }
        }
        Self::decide(all)
    }

    /// The match an entry's AND-folded flags stand for.
    #[inline]
    fn decide(all: u8) -> CellMatch {
        if all & FLAG_CONTAINED != 0 {
            CellMatch::Inside
        } else if all & FLAG_INTERSECTS != 0 {
            CellMatch::Partial
        } else {
            CellMatch::Disjoint
        }
    }

    /// Batch [`Self::classify`] over an entry-major cell block, one match
    /// per entry. The per-dimension AND-fold is order-independent, so the
    /// row fold (which skips the per-entry early exit) is decision-identical.
    pub fn classify_batch(&self, block: &[u32], out: &mut Vec<CellMatch>) {
        let n = block.len().checked_div(self.dim).unwrap_or(0);
        debug_assert_eq!(block.len(), n * self.dim);
        out.clear();
        if !self.materialized {
            out.extend((0..n).map(|j| self.classify(&block[j * self.dim..(j + 1) * self.dim])));
            return;
        }
        // Chunks through a stack buffer keep the batch allocation-free.
        let seed = FLAG_INTERSECTS | FLAG_CONTAINED;
        let mut flags = [0u8; 64];
        for cs in block.chunks(flags.len() * self.dim) {
            let flags = &mut flags[..cs.len() / self.dim];
            simd::fold_rows(
                &self.flags,
                self.cells,
                self.dim,
                cs,
                seed,
                |a, f| a & f,
                flags,
            );
            out.extend(flags.iter().copied().map(Self::decide));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridQuantizer;

    fn mbr2() -> Mbr {
        Mbr::from_bounds(vec![-1.0, 2.0], vec![3.0, 4.5])
    }

    #[test]
    fn mindist_matches_naive_on_a_grid_sweep() {
        let mbr = mbr2();
        let q = [0.4f32, 1.9];
        for metric in [Metric::Euclidean, Metric::Maximum, Metric::Manhattan] {
            for g in [1u32, 3, 5] {
                let grid = GridQuantizer::new(&mbr, g);
                let mut t = DistTable::new();
                t.build(&mbr, g, metric, &q, 1024);
                assert!(t.is_materialized());
                for a in 0..(1u32 << g) {
                    for b in 0..(1u32 << g) {
                        let cells = [a, b];
                        let naive = metric.mindist_key(&q, &grid.cell_box(&cells));
                        assert_eq!(t.mindist_key(&cells).to_bits(), naive.to_bits());
                        let naive_max = metric.maxdist(&q, &grid.cell_box(&cells));
                        assert_eq!(t.maxdist(&cells).to_bits(), naive_max.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn lazy_path_matches_materialized() {
        let mbr = mbr2();
        let q = [2.7f32, 3.3];
        let g = 4;
        let mut hot = DistTable::new();
        hot.build(&mbr, g, Metric::Euclidean, &q, 1 << 20);
        let mut cold = DistTable::new();
        cold.build(&mbr, g, Metric::Euclidean, &q, 0);
        assert!(hot.is_materialized() && !cold.is_materialized());
        for a in 0..(1u32 << g) {
            for b in 0..(1u32 << g) {
                let cells = [a, b];
                assert_eq!(
                    hot.mindist_key(&cells).to_bits(),
                    cold.mindist_key(&cells).to_bits()
                );
                assert_eq!(
                    hot.maxdist(&cells).to_bits(),
                    cold.maxdist(&cells).to_bits()
                );
            }
        }
    }

    #[test]
    fn window_classification_matches_mbr_ops() {
        let mbr = mbr2();
        let window = Mbr::from_bounds(vec![0.0, 2.5], vec![1.5, 3.5]);
        for g in [1u32, 2, 4, 6] {
            let grid = GridQuantizer::new(&mbr, g);
            for hint in [1usize << 20, 0] {
                let mut t = WindowTable::new();
                t.build(&mbr, g, &window, hint);
                for a in 0..(1u32 << g) {
                    for b in 0..(1u32 << g) {
                        let cells = [a, b];
                        let cb = grid.cell_box(&cells);
                        let expect = if window.contains_mbr(&cb) {
                            CellMatch::Inside
                        } else if window.intersects(&cb) {
                            CellMatch::Partial
                        } else {
                            CellMatch::Disjoint
                        };
                        assert_eq!(t.classify(&cells), expect, "g={g} cells={cells:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_dimension_is_handled() {
        let mbr = Mbr::from_bounds(vec![2.0, 0.0], vec![2.0, 1.0]);
        let grid = GridQuantizer::new(&mbr, 3);
        let q = [2.0f32, 0.6];
        let mut t = DistTable::new();
        t.build(&mbr, 3, Metric::Euclidean, &q, 64);
        for b in 0..8u32 {
            let cells = [0u32, b];
            let naive = Metric::Euclidean.mindist_key(&q, &grid.cell_box(&cells));
            assert_eq!(t.mindist_key(&cells).to_bits(), naive.to_bits());
        }
    }
}
