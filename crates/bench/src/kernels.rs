//! Wall-clock microbenchmarks of the quantized-domain page-scan kernels,
//! reported by `iq bench`: level-2 filter throughput (naive
//! decode-then-`Metric` vs the lookup-table kernel).
//!
//! These measure *wall-clock* time of the CPU kernels (unlike the figure
//! runners, which report simulated time): the kernels change how fast the
//! same answers are produced, and the simulated cost model charges both
//! paths identically.

use iq_geometry::{Mbr, Metric};
use iq_quantize::{DistTable, GridQuantizer, QuantizedPageCodec};
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
    /// Points filtered per second by the kernels queries run (zero-copy
    /// view, whole-page unpack, batch table-lookup MINDIST keys).
    pub kernel_pps: f64,
    /// `kernel_pps / naive_pps`.
    pub speedup: f64,
}

/// Measures the page-scan filter over 8 encoded quantized pages
/// (dimension 8, 6 bits per dimension) and 2 query points: identical
/// pages, identical queries, identical keys out of both paths (asserted) —
/// only the kernel differs. The kernel side is the k-NN walk's per-page
/// filter: `QuantPageView::unpack_all` then `DistTable::mindist_keys`.
pub fn page_scan_throughput() -> ScanBench {
    const DIM: usize = 8;
    const G: u32 = 6;
    const BLOCK: usize = 4096;
    let codec = QuantizedPageCodec::new(DIM, BLOCK);
    let per_page = codec.capacity(G).min(200);
    let mut seed = 0x51AD_BEA7u64;
    let pages: Vec<(Mbr, Vec<u8>)> = (0..8)
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
    let queries: Vec<Vec<f32>> = (0..2)
        .map(|_| (0..DIM).map(|_| lcg(&mut seed) * 1.5).collect())
        .collect();

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

    // Kernel: per-(query, page) table, whole-page unpack, batch keys.
    let mut table = DistTable::new();
    let (mut cells, mut keys) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut kernel_sink = 0.0f64;
    for q in &queries {
        for (mbr, block) in &pages {
            let view = codec.try_view(block).expect("valid page");
            view.unpack_all(&mut cells);
            table.build(mbr, view.bits(), Metric::Euclidean, q, view.len());
            table.mindist_keys(&cells, &mut keys);
            for key in &keys {
                kernel_sink += key;
            }
        }
    }
    let kernel_t = start.elapsed().as_secs_f64();

    // Same pages, same keys, summed in entry order: the sums are
    // bit-identical.
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
}
