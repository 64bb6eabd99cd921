//! Wall-clock microbenchmarks of the quantized-domain page-scan kernels,
//! reported by `iq bench`: level-2 filter throughput (naive
//! decode-then-`Metric` vs the lookup-table kernel) and the multi-query
//! page-scan amortization sweep.
//!
//! These measure *wall-clock* time of the CPU kernels (unlike the figure
//! runners, which report simulated time): the kernels change how fast the
//! same answers are produced, and the simulated cost model charges both
//! paths identically.

use iq_geometry::{Mbr, Metric};
use iq_quantize::{DistTable, DistTableBlock, GridQuantizer, QuantizedPageCodec};
use std::time::Instant;

/// Deterministic pseudo-uniform values in `[0, 1)` (no RNG state shared
/// with the figure runners).
fn lcg(seed: &mut u64) -> f32 {
    *seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    ((*seed >> 33) as f64 / f64::from(1u32 << 31)) as f32
}

/// Throughput of the level-2 filter over encoded pages, points per second.
#[derive(Clone, Copy, Debug)]
pub struct ScanBench {
    /// Points filtered per second by the naive path (full page decode,
    /// per-entry `cell_box` MBR construction, `Metric::mindist_key`).
    pub naive_pps: f64,
    /// Points filtered per second by the kernel (zero-copy view, streaming
    /// decode, table-lookup MINDIST).
    pub kernel_pps: f64,
    /// `kernel_pps / naive_pps`.
    pub speedup: f64,
}

/// Measures the page-scan filter: identical pages, identical queries,
/// identical keys out of both paths (asserted) — only the kernel differs.
pub fn page_scan_throughput() -> ScanBench {
    let (codec, per_page, pages, queries) = scan_workload(8, 2);

    // Naive: decode the page into vectors, build each entry's cell box,
    // run the metric over it.
    let start = Instant::now();
    let mut naive_sink = 0.0f64;
    for q in &queries {
        for (mbr, block) in &pages {
            let page = codec.try_decode(block).expect("valid page");
            let grid = GridQuantizer::new(mbr, page.bits());
            for i in 0..page.len() {
                naive_sink += Metric::Euclidean.mindist_key(q, &grid.cell_box(page.cells(i)));
            }
        }
    }
    let naive_t = start.elapsed().as_secs_f64();

    // Kernel: per-(query, page) table, streaming decode, lookups.
    let mut table = DistTable::new();
    let mut scratch: Vec<u32> = Vec::new();
    let start = Instant::now();
    let mut kernel_sink = 0.0f64;
    for q in &queries {
        for (mbr, block) in &pages {
            let view = codec.try_view(block).expect("valid page");
            table.build(mbr, view.bits(), Metric::Euclidean, q, view.len());
            view.for_each_entry(&mut scratch, |_, cells| {
                kernel_sink += table.mindist_key(cells);
            });
        }
    }
    let kernel_t = start.elapsed().as_secs_f64();

    // Same pages, same fold order: the sums are bit-identical.
    assert_eq!(
        naive_sink.to_bits(),
        kernel_sink.to_bits(),
        "kernel must not change the keys"
    );

    let points = (queries.len() * pages.len() * per_page) as f64;
    let naive_pps = points / naive_t.max(1e-12);
    let kernel_pps = points / kernel_t.max(1e-12);
    ScanBench {
        naive_pps,
        kernel_pps,
        speedup: kernel_pps / naive_pps.max(1e-12),
    }
}

/// Shared page-scan workload: the codec, entries per page, the encoded
/// pages (MBR + body), and the query points.
type ScanWorkload = (
    QuantizedPageCodec,
    usize,
    Vec<(Mbr, Vec<u8>)>,
    Vec<Vec<f32>>,
);

/// Builds the shared page-scan workload: `n_pages` encoded quantized
/// pages (dimension 8, 6 bits per dimension) plus `n_queries` query
/// points.
fn scan_workload(n_pages: usize, n_queries: usize) -> ScanWorkload {
    const DIM: usize = 8;
    const G: u32 = 6;
    const BLOCK: usize = 4096;
    let codec = QuantizedPageCodec::new(DIM, BLOCK);
    let per_page = codec.capacity(G).min(200);
    let mut seed = 0x51AD_BEA7u64;
    let pages: Vec<(Mbr, Vec<u8>)> = (0..n_pages)
        .map(|p| {
            let base = p as f32 * 0.01;
            let pts: Vec<Vec<f32>> = (0..per_page)
                .map(|_| (0..DIM).map(|_| base + lcg(&mut seed)).collect())
                .collect();
            let mbr = Mbr::of_points(DIM, pts.iter().map(Vec::as_slice));
            let block = codec.encode(
                &mbr,
                G,
                pts.iter()
                    .enumerate()
                    .map(|(i, v)| (i as u32, v.as_slice())),
            );
            (mbr, block)
        })
        .collect();
    let queries: Vec<Vec<f32>> = (0..n_queries)
        .map(|_| (0..DIM).map(|_| lcg(&mut seed) * 1.5).collect())
        .collect();
    (codec, per_page, pages, queries)
}

/// One batch size of the multi-query page-scan amortization sweep.
#[derive(Clone, Copy, Debug)]
pub struct MultiqRow {
    /// Queries evaluated per decoded page.
    pub q: usize,
    /// Nanoseconds per (point, query) evaluation — table build, page
    /// decode and bound folds all included.
    pub ns_per_point_query: f64,
    /// `ns(Q=1) / ns(Q)` — how much the shared decode buys.
    pub amortization: f64,
}

/// Multi-query page-scan sweep: evaluates the same total number of
/// (point, query) pairs at batch sizes Q ∈ {1, 4, 16} through
/// [`DistTableBlock`] + `for_each_entry_multi`, reporting the per-pair
/// cost. Larger Q shares the page decode (and loop overhead) across more
/// queries, so the per-pair cost should fall monotonically.
pub fn page_scan_multiq() -> Vec<MultiqRow> {
    let (codec, per_page, pages, queries) = scan_workload(8, 16);

    let mut block_table = DistTableBlock::new();
    let mut cells: Vec<u32> = Vec::new();
    let mut lo: Vec<f64> = Vec::new();
    let mut hi: Vec<f64> = Vec::new();
    let mut rows: Vec<MultiqRow> = Vec::new();
    let mut base_ns = 0.0f64;
    for q in [1usize, 4, 16] {
        let qs: Vec<&[f32]> = queries[..q].iter().map(Vec::as_slice).collect();
        // Same total (point, query) work at every batch size.
        let iters = 16 / q;
        let mut sink = 0.0f64;
        let start = Instant::now();
        for _ in 0..iters {
            for (mbr, block) in &pages {
                let view = codec.try_view(block).expect("valid page");
                let ok = block_table.build(mbr, view.bits(), Metric::Euclidean, &qs, view.len());
                assert!(ok, "workload fits the materialization budget");
                view.for_each_entry_multi(
                    &block_table,
                    &mut cells,
                    &mut lo,
                    &mut hi,
                    |_, _, lo, _| {
                        for &v in lo {
                            sink += v;
                        }
                    },
                );
            }
        }
        let t = start.elapsed().as_secs_f64();
        assert!(sink.is_finite());
        let pairs = (iters * pages.len() * per_page * q) as f64;
        let ns = t / pairs.max(1e-12) * 1e9;
        if q == 1 {
            base_ns = ns;
        }
        rows.push(MultiqRow {
            q,
            ns_per_point_query: ns,
            amortization: base_ns / ns.max(1e-12),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_bench_produces_positive_throughput() {
        let s = page_scan_throughput();
        assert!(s.naive_pps > 0.0);
        assert!(s.kernel_pps > 0.0);
        assert!(s.speedup > 0.0);
    }

    #[test]
    fn multiq_sweep_covers_all_batch_sizes() {
        let rows = page_scan_multiq();
        let qs: Vec<usize> = rows.iter().map(|r| r.q).collect();
        assert_eq!(qs, vec![1, 4, 16]);
        for r in &rows {
            assert!(r.ns_per_point_query > 0.0);
            assert!(r.amortization > 0.0);
        }
    }
}
