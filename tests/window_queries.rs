//! Integration: window (hyperrectangle) queries agree across all four
//! methods and match a brute-force filter.

use iqtree_repro::data::{self, Workload};
use iqtree_repro::engine::{AccessMethod, Query};
use iqtree_repro::geometry::{Mbr, Metric};
use iqtree_repro::scan::SeqScan;
use iqtree_repro::storage::{MemDevice, SimClock};
use iqtree_repro::tree::{IqTree, IqTreeOptions};
use iqtree_repro::vafile::VaFile;
use iqtree_repro::xtree::XTree;

fn dev() -> Box<MemDevice> {
    Box::new(MemDevice::new(4096))
}

#[test]
fn window_results_agree_across_methods() {
    for (name, w, dim) in [
        (
            "uniform",
            Workload::generate(5_000, 1, |n| data::uniform(6, n, 101)),
            6,
        ),
        (
            "weather",
            Workload::generate(5_000, 1, |n| data::weather_like(9, n, 102)),
            9,
        ),
    ] {
        let mut clock = SimClock::default();
        let iq = IqTree::build(
            &w.db,
            Metric::Euclidean,
            IqTreeOptions::default(),
            || dev(),
            &mut clock,
        );
        let xt = XTree::build(&w.db, Metric::Euclidean, dev(), dev(), &mut clock);
        let va = VaFile::build(&w.db, Metric::Euclidean, 4, dev(), dev(), &mut clock);
        let scan = SeqScan::build(&w.db, Metric::Euclidean, dev(), &mut clock);

        for (lo, hi) in [(0.2f32, 0.5f32), (0.0, 1.0), (0.45, 0.55), (0.9, 0.95)] {
            let win = Mbr::from_bounds(vec![lo; dim], vec![hi; dim]);
            let mut a = iq
                .run(&mut clock, &Query::Window(&win))
                .expect("valid query")
                .ids();
            let mut b = xt
                .run(&mut clock, &Query::Window(&win))
                .expect("valid query")
                .ids();
            let mut c = va
                .run(&mut clock, &Query::Window(&win))
                .expect("valid query")
                .ids();
            let mut d = scan
                .run(&mut clock, &Query::Window(&win))
                .expect("valid query")
                .ids();
            for v in [&mut a, &mut b, &mut c, &mut d] {
                v.sort_unstable();
            }
            let mut expect: Vec<u32> = (0..w.db.len() as u32)
                .filter(|&i| win.contains_point(w.db.point(i as usize)))
                .collect();
            expect.sort_unstable();
            assert_eq!(a, expect, "{name} iq window [{lo},{hi}]");
            assert_eq!(b, expect, "{name} xt window [{lo},{hi}]");
            assert_eq!(c, expect, "{name} va window [{lo},{hi}]");
            assert_eq!(d, expect, "{name} scan window [{lo},{hi}]");
        }
    }
}

#[test]
fn empty_window_returns_nothing() {
    let w = Workload::generate(1_000, 1, |n| data::uniform(4, n, 103));
    let mut clock = SimClock::default();
    let iq = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || dev(),
        &mut clock,
    );
    let win = Mbr::from_bounds(vec![2.0; 4], vec![3.0; 4]); // outside the cube
    assert!(iq
        .run(&mut clock, &Query::Window(&win))
        .expect("valid query")
        .is_empty());
}

#[test]
fn iq_window_uses_batched_fetch() {
    // A fat window touches many pages; the optimal fetch must coalesce
    // them into far fewer seeks than pages.
    let w = Workload::generate(30_000, 1, |n| data::uniform(8, n, 104));
    let mut clock = SimClock::default();
    let iq = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || dev(),
        &mut clock,
    );
    let win = Mbr::from_bounds(vec![0.1; 8], vec![0.9; 8]);
    clock.reset();
    let hits = iq
        .run(&mut clock, &Query::Window(&win))
        .expect("valid query")
        .ids();
    assert!(!hits.is_empty());
    let pages_touched = clock.stats().blocks_read;
    assert!(
        clock.stats().seeks * 3 < pages_touched,
        "expected coalesced runs: {} seeks for {} blocks",
        clock.stats().seeks,
        pages_touched
    );
}
