//! The cost model is parameterized by the hardware, not just by the data:
//! index the same points for three devices with very different
//! seek/transfer ratios and watch the *access strategy* adapt — on a
//! seek-bound disk the scheduler coalesces almost everything into sweeps,
//! on a transfer-bound device it happily seeks. (The chosen page structure
//! itself is robust across realistic disks, because the block-capacity
//! ladder quantizes the options coarsely — also visible here.)
//!
//! Run with: `cargo run --release --example disk_tuning`

use iqtree_repro::data::{self, Workload};
use iqtree_repro::engine::{AccessMethod, Query};
use iqtree_repro::geometry::Metric;
use iqtree_repro::storage::{CpuModel, DiskModel, MemDevice, SimClock};
use iqtree_repro::tree::{IqTree, IqTreeOptions};

fn main() {
    let w = Workload::generate(60_000, 20, |n| data::uniform(12, n, 17));

    // Three devices with very different seek/transfer ratios (the
    // over-read horizon v = t_seek/t_xfer is what the model feeds on).
    let disks = [
        (
            "seek-bound disk (40ms seek, 0.4ms/blk, v=100)",
            DiskModel {
                t_seek: 0.040,
                t_xfer: 0.0004,
                block_size: 8192,
            },
        ),
        (
            "late-90s disk (10ms seek, 1ms/blk, v=10)",
            DiskModel::default(),
        ),
        (
            "transfer-bound device (0.2ms seek, 1ms/blk, v=0.2)",
            DiskModel {
                t_seek: 0.0002,
                t_xfer: 0.001,
                block_size: 8192,
            },
        ),
    ];

    println!("same 60k 12-d uniform points, three disks:\n");
    for (name, disk) in disks {
        let mut clock = SimClock::new(disk, CpuModel::default());
        let tree = IqTree::build(
            &w.db,
            Metric::Euclidean,
            IqTreeOptions::default(),
            || Box::new(MemDevice::new(disk.block_size)),
            &mut clock,
        );
        let mut total = 0.0;
        let mut seeks = 0u64;
        for q in w.queries.iter() {
            clock.reset();
            tree.run(&mut clock, &Query::knn(q, 1))
                .expect("valid query");
            total += clock.total_time();
            seeks += clock.stats().seeks;
        }
        let nq = w.queries.len() as f64;
        println!("{name}");
        println!(
            "  over-read horizon {:>5.0} blocks | chose {:>4} pages at {:?}",
            disk.overread_horizon(),
            tree.num_pages(),
            tree.bits_histogram(),
        );
        println!(
            "  avg NN query: {:>8.2} ms simulated, {:.1} seeks\n",
            total / nq * 1e3,
            seeks as f64 / nq,
        );
    }
    println!(
        "the page structure is stable across these devices (the capacity\n\
         ladder offers only a few discrete options), but the time-optimized\n\
         access strategy is not: with expensive seeks it reads a handful of\n\
         long sweeps (~3 seeks/query), with near-free seeks it jumps\n\
         directly to the pages it wants (~13 seeks/query) - Section 2's\n\
         trade-off re-balanced per device."
    );
}
