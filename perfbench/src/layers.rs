//! Layer probes timed outside the query path: the page-scan kernel on
//! the workload's own level-2 pages, and CRC32 over 8 KiB blocks.

use crate::workloads::{Index, BLOCK};
use iq_geometry::Metric;
use iq_quantize::{DistTable, QuantizedPageCodec, EXACT_BITS};
use iq_storage::CHECKSUM_BYTES;
use std::hint::black_box;
use std::time::Instant;

/// Each probe repeats its work until at least this much time has passed.
const PROBE_S: f64 = 0.25;

/// Million quantized entries per second through the existing page-scan
/// kernel (`DistTable::build` per page, `for_each_entry` +
/// `mindist_key` per entry) over every quantized page of the index's
/// level-2 file, read straight from disk.
pub fn page_scan_mentries_s(index: &Index, queries: &[Vec<f32>]) -> Result<f64, String> {
    let path = index.dir.join("quant.bin");
    let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let dim = index.tree.dim();
    let logical = BLOCK - CHECKSUM_BYTES;
    let codec = QuantizedPageCodec::new(dim, logical);
    let metric: Metric = index.tree.metric();
    let mut pages = Vec::new();
    for meta in index.tree.pages() {
        if meta.g >= EXACT_BITS || meta.count == 0 {
            continue;
        }
        let off = meta.quant_block as usize * BLOCK;
        let block = bytes
            .get(off..off + logical)
            .ok_or_else(|| format!("page block {} beyond quant.bin", meta.quant_block))?;
        let view = codec
            .try_view(block)
            .map_err(|e| format!("page view: {e}"))?;
        pages.push((&meta.mbr, view));
    }
    let queries = &queries[..queries.len().min(8)];
    let mut table = DistTable::new();
    let mut scratch = Vec::new();
    let mut entries = 0u64;
    let mut sink = 0.0f64;
    let t0 = Instant::now();
    while entries == 0 || t0.elapsed().as_secs_f64() < PROBE_S {
        for q in queries {
            for (mbr, view) in &pages {
                table.build(mbr, view.bits(), metric, q, view.len());
                view.for_each_entry(&mut scratch, |_, cells| {
                    sink += table.mindist_key(cells);
                });
                entries += view.len() as u64;
            }
        }
        if pages.is_empty() {
            break;
        }
    }
    black_box(sink);
    Ok(entries as f64 / t0.elapsed().as_secs_f64() / 1e6)
}

/// `iq_storage::crc32` throughput over the level files' 8 KiB blocks,
/// in MB (10^6 bytes) per second.
pub fn crc32_mb_s(index: &Index) -> Result<f64, String> {
    let path = index.dir.join("quant.bin");
    let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if bytes.len() < BLOCK {
        return Err(format!("{} holds no whole block", path.display()));
    }
    let mut done = 0u64;
    let mut acc = 0u32;
    let t0 = Instant::now();
    while done == 0 || t0.elapsed().as_secs_f64() < PROBE_S {
        for block in bytes.chunks_exact(BLOCK) {
            acc ^= iq_storage::crc32(black_box(block));
            done += BLOCK as u64;
        }
    }
    black_box(acc);
    Ok(done as f64 / t0.elapsed().as_secs_f64() / 1e6)
}
