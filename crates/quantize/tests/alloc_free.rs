//! The level-2 scan kernels are allocation-free in steady state: once the
//! scratch buffers and table storage have grown to their working size, a
//! page scan the way the engines run it (view + whole-page unpack + table
//! build + batch MINDIST keys, batch MINDIST/MAXDIST keys from a
//! both-bounds table, batch window classification) performs **zero** heap
//! allocations, at whatever unpack tier the host selects. Enforced with a
//! counting global allocator; the counter is thread-local so the harness
//! thread cannot pollute the measurement.
//!
//! Single-test file on purpose: one process, one test thread.

use iq_geometry::{Mbr, Metric};
use iq_quantize::{CellMatch, DistTable, QuantizedPageCodec, WindowTable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

std::thread_local! {
    static LOCAL_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates to `System` verbatim; the counter bump has no effect
// on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    LOCAL_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

const DIM: usize = 8;

/// The tables and reusable buffers one scanning thread keeps across pages.
#[derive(Default)]
struct Scan {
    table: DistTable,
    bounds: DistTable,
    window: WindowTable,
    cells: Vec<u32>,
    keys: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    matches: Vec<CellMatch>,
}

/// One filter pass over a page through the batch kernels the engines call:
/// the k-NN walk's `unpack_all` + `mindist_keys` (`search.rs`), the range
/// scan's and the VA-file's `bounds_keys` on a `build_bounds` table, and the
/// window scan's `classify_batch`.
fn scan_page(
    codec: &QuantizedPageCodec,
    mbr: &Mbr,
    block: &[u8],
    q: &[f32],
    window: &Mbr,
    s: &mut Scan,
) -> f64 {
    let view = codec.try_view(block).expect("valid page");
    let (g, n) = (view.bits(), view.len());
    view.unpack_all(&mut s.cells);
    s.table.build(mbr, g, Metric::Euclidean, q, n);
    s.table.mindist_keys(&s.cells, &mut s.keys);
    s.bounds.build_bounds(mbr, g, Metric::Euclidean, q, n);
    s.bounds.bounds_keys(&s.cells, &mut s.lo, &mut s.hi);
    s.window.build(mbr, g, window, n);
    s.window.classify_batch(&s.cells, &mut s.matches);
    let inside = s
        .matches
        .iter()
        .filter(|&&m| m == CellMatch::Inside)
        .count();
    let ids: f64 = (0..n).map(|e| f64::from(view.id(e))).sum();
    let keys = s.keys.iter().chain(&s.lo).chain(&s.hi).sum::<f64>();
    keys + ids + inside as f64
}

#[test]
fn steady_state_page_scan_is_allocation_free() {
    let lo = vec![0.0f32; DIM];
    let hi = vec![10.0f32; DIM];
    let mbr = Mbr::from_bounds(lo, hi);
    let q: Vec<f32> = (0..DIM).map(|i| 0.37 * i as f32).collect();
    let codec = QuantizedPageCodec::new(DIM, 4096);
    let pts: Vec<Vec<f32>> = (0..40)
        .map(|i| {
            (0..DIM)
                .map(|j| ((i * 7 + j * 3) % 100) as f32 / 10.0)
                .collect()
        })
        .collect();
    // g = 4 materializes the tables; at g = 14 the 40-point page cannot
    // amortize 2^14 cells a row and the tables take the lazy path. Both
    // unpack through the detected tier, and both must be alloc-free.
    let blocks: Vec<Vec<u8>> = [4u32, 14]
        .iter()
        .map(|&g| {
            codec.encode(
                &mbr,
                g,
                pts.iter()
                    .enumerate()
                    .map(|(i, p)| (i as u32, p.as_slice())),
            )
        })
        .collect();

    let window = Mbr::from_bounds(vec![2.0; DIM], vec![7.5; DIM]);
    let mut scan = Scan::default();
    // Warm-up: grows the scratch buffer and the table storage to their
    // steady-state capacity.
    let mut warm = 0.0;
    for block in &blocks {
        warm += scan_page(&codec, &mbr, block, &q, &window, &mut scan);
    }

    let before = allocations();
    let mut steady = 0.0;
    for _ in 0..3 {
        for block in &blocks {
            steady += scan_page(&codec, &mbr, block, &q, &window, &mut scan);
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state page scans must not touch the allocator"
    );
    assert!((steady - 3.0 * warm).abs() < 1e-9, "same pages, same keys");
}
