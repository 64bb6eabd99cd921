//! Optimal batch fetching of a known set of blocks (Section 2, Figure 1).
//!
//! Given the sorted disk positions of the `n` blocks an index selected, the
//! planner walks the list and decides, between consecutive selected blocks,
//! whether to seek or to over-read the gap: over-read exactly when
//! `(p_{i+1} − p_i − 1) · t_xfer < t_seek`. Seeger et al. (VLDB '93) proved
//! this greedy rule time-optimal (with unbounded buffer); in the extremes it
//! degenerates to a single full scan or to pure random accesses, which is the
//! behaviour the paper highlights.

use crate::buffer::BlockBuffer;
use crate::model::{DiskModel, SimClock};
use crate::retry::read_to_vec_retry;
use crate::BlockDevice;

/// A contiguous run of blocks to read in one sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// First block of the run.
    pub start: u64,
    /// Number of blocks (selected + over-read).
    pub len: u64,
}

impl Run {
    /// Whether `pos` falls inside the run.
    pub fn contains(&self, pos: u64) -> bool {
        pos >= self.start && pos < self.start + self.len
    }
}

/// Plans the optimal fetch schedule for `positions` (must be sorted
/// ascending; duplicates are tolerated).
///
/// # Example
///
/// ```
/// use iq_storage::{plan_fetch, DiskModel, Run};
///
/// let disk = DiskModel::default(); // over-read horizon = 10 blocks
/// // Blocks 0 and 4 are close: over-read the gap. Block 1000 is far: seek.
/// let runs = plan_fetch(&[0, 4, 1000], &disk);
/// assert_eq!(runs, vec![Run { start: 0, len: 5 }, Run { start: 1000, len: 1 }]);
/// ```
///
/// # Panics
/// Panics (debug) if positions are not sorted.
pub fn plan_fetch(positions: &[u64], model: &DiskModel) -> Vec<Run> {
    debug_assert!(
        positions.windows(2).all(|w| w[0] <= w[1]),
        "positions must be sorted"
    );
    let mut runs: Vec<Run> = Vec::new();
    for &p in positions {
        match runs.last_mut() {
            Some(run) if run.contains(p) => {}
            Some(run) => {
                let gap = p - (run.start + run.len);
                // Over-read the gap iff cheaper than a seek (Figure 1).
                if (gap as f64) * model.t_xfer < model.t_seek {
                    run.len = p - run.start + 1;
                } else {
                    runs.push(Run { start: p, len: 1 });
                }
            }
            None => runs.push(Run { start: p, len: 1 }),
        }
    }
    runs
}

/// The modeled cost of executing a fetch plan: one seek plus the transfer
/// of every block of every run. (Assumes the head is not already positioned
/// at the first run, the conservative case.)
pub fn plan_fetch_cost(runs: &[Run], model: &DiskModel) -> f64 {
    runs.iter()
        .map(|r| model.t_seek + r.len as f64 * model.t_xfer)
        .sum()
}

/// Plans and executes the fetch against a device and keeps each run it
/// reads in `buf`; callers then take the blocks they selected from the
/// buffer. Each run's read is retried on transient faults
/// ([`read_to_vec_retry`]). A run that stays unreadable is left out and
/// the fetch goes on with the next, so the buffer lacks exactly the blocks
/// of the runs that failed. Returns how many runs were read.
pub fn fetch_blocks(
    dev: &dyn BlockDevice,
    clock: &mut SimClock,
    positions: &[u64],
    buf: &mut BlockBuffer,
) -> u64 {
    let mut read = 0;
    for run in plan_fetch(positions, clock.disk()) {
        if let Ok(bytes) = read_to_vec_retry(dev, clock, run.start, run.len) {
            buf.keep(run.start, bytes);
            read += 1;
        }
    }
    read
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IqError, IqResult, MemDevice};

    fn model(t_seek: f64, t_xfer: f64) -> DiskModel {
        DiskModel {
            t_seek,
            t_xfer,
            block_size: 64,
        }
    }

    #[test]
    fn empty_plan() {
        assert!(plan_fetch(&[], &model(0.01, 0.001)).is_empty());
    }

    #[test]
    fn dense_positions_become_one_run() {
        // Gaps of 1-2 blocks, horizon v = 10 → all merged.
        let runs = plan_fetch(&[0, 2, 3, 6], &model(0.01, 0.001));
        assert_eq!(runs, vec![Run { start: 0, len: 7 }]);
    }

    #[test]
    fn huge_gaps_become_random_accesses() {
        let runs = plan_fetch(&[0, 1000, 2000], &model(0.01, 0.001));
        assert_eq!(runs.len(), 3);
        assert!(runs.iter().all(|r| r.len == 1));
    }

    #[test]
    fn boundary_gap_exactly_at_horizon_seeks() {
        // v = 10: gap of exactly 10 blocks → 10 * t_xfer == t_seek, i.e. the
        // strict `<` of the paper's rule does NOT over-read.
        let runs = plan_fetch(&[0, 11], &model(0.01, 0.001));
        assert_eq!(runs.len(), 2);
        // Gap of 9 (< horizon) → over-read.
        let runs = plan_fetch(&[0, 10], &model(0.01, 0.001));
        assert_eq!(runs, vec![Run { start: 0, len: 11 }]);
    }

    #[test]
    fn duplicates_are_tolerated() {
        let runs = plan_fetch(&[5, 5, 5], &model(0.01, 0.001));
        assert_eq!(runs, vec![Run { start: 5, len: 1 }]);
    }

    #[test]
    fn plan_cost_between_scan_and_random() {
        let m = model(0.01, 0.001);
        // 50 selected blocks evenly spread over 500.
        let positions: Vec<u64> = (0..50).map(|i| i * 10).collect();
        let runs = plan_fetch(&positions, &m);
        let cost = plan_fetch_cost(&runs, &m);
        assert!(cost <= m.random_cost(50) + 1e-12, "never worse than random");
        // Dense case: must be close to a scan of the touched range.
        assert!(cost <= m.scan_cost(500) + m.t_seek);
    }

    #[test]
    fn greedy_is_optimal_vs_bruteforce() {
        // Exhaustively check small instances: every subset of gap decisions.
        let m = model(0.004, 0.001); // horizon v = 4
        let cases: Vec<Vec<u64>> = vec![
            vec![0, 3, 4, 9, 20],
            vec![0, 5, 6, 7, 30, 31],
            vec![2, 4, 8, 16, 32],
            vec![0, 1, 2, 3],
        ];
        for positions in cases {
            let greedy = plan_fetch_cost(&plan_fetch(&positions, &m), &m);
            // Brute force: each of the n-1 gaps is independently "seek" or
            // "over-read"; cost decomposes per gap, plus one seek + one xfer
            // per selected block.
            let mut best = f64::INFINITY;
            let gaps: Vec<u64> = positions.windows(2).map(|w| w[1] - w[0] - 1).collect();
            for mask in 0..(1u32 << gaps.len()) {
                let mut cost = m.t_seek + positions.len() as f64 * m.t_xfer;
                for (i, &g) in gaps.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        cost += g as f64 * m.t_xfer; // over-read
                    } else {
                        cost += m.t_seek; // seek
                    }
                }
                best = best.min(cost);
            }
            assert!(
                (greedy - best).abs() < 1e-12,
                "greedy {greedy} vs optimal {best} for {positions:?}"
            );
        }
    }

    #[test]
    fn greedy_is_optimal_randomized() {
        // Randomized extension of the exhaustive check: up to 14 gaps,
        // random horizons.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let v = rng.gen_range(1..=12) as f64;
            let m = model(0.001 * v, 0.001);
            let n = rng.gen_range(2..=14);
            let mut positions: Vec<u64> = (0..n).map(|_| rng.gen_range(0..200)).collect();
            positions.sort_unstable();
            positions.dedup();
            if positions.len() < 2 {
                continue;
            }
            let greedy = plan_fetch_cost(&plan_fetch(&positions, &m), &m);
            let gaps: Vec<u64> = positions.windows(2).map(|w| w[1] - w[0] - 1).collect();
            let mut best = f64::INFINITY;
            for mask in 0..(1u32 << gaps.len()) {
                let mut cost = m.t_seek + positions.len() as f64 * m.t_xfer;
                for (i, &g) in gaps.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        cost += g as f64 * m.t_xfer;
                    } else {
                        cost += m.t_seek;
                    }
                }
                best = best.min(cost);
            }
            assert!(
                (greedy - best).abs() < 1e-12,
                "v={v} positions={positions:?}: greedy {greedy} vs {best}"
            );
        }
    }

    #[test]
    fn fetch_blocks_reads_correct_data() {
        let m = model(0.01, 0.001);
        let mut dev = MemDevice::new(64);
        let mut clock = SimClock::new(m, crate::CpuModel::free());
        for i in 0..20u8 {
            dev.append(&mut clock, &[i; 64]).unwrap();
        }
        clock.reset();
        let mut buf = BlockBuffer::new(64);
        assert_eq!(fetch_blocks(&dev, &mut clock, &[1, 2, 18], &mut buf), 2);
        assert_eq!(clock.stats().seeks, 2);
        assert_eq!(clock.stats().blocks_read, 3);
        // Selected and over-read blocks are found; blocks outside every
        // run are not.
        assert_eq!(buf.block(1), Some(&[1u8; 64][..]));
        assert_eq!(buf.block(2), Some(&[2u8; 64][..]));
        assert_eq!(buf.block(18), Some(&[18u8; 64][..]));
        for pos in [0, 3, 17, 19] {
            assert!(!buf.contains(pos), "block {pos}");
        }
    }

    /// A device whose reads fail, transiently, whenever they cover block
    /// `bad`.
    struct FailsAt {
        inner: MemDevice,
        bad: u64,
    }

    impl BlockDevice for FailsAt {
        fn block_size(&self) -> usize {
            self.inner.block_size()
        }

        fn num_blocks(&self) -> u64 {
            self.inner.num_blocks()
        }

        fn read_blocks(&self, clock: &mut SimClock, start: u64, buf: &mut [u8]) -> IqResult<()> {
            let n = (buf.len() / self.block_size()) as u64;
            if (start..start + n).contains(&self.bad) {
                return Err(IqError::Io {
                    op: "read",
                    block: self.bad,
                    transient: true,
                    detail: "flaky".into(),
                });
            }
            self.inner.read_blocks(clock, start, buf)
        }

        fn append(&mut self, clock: &mut SimClock, data: &[u8]) -> IqResult<u64> {
            self.inner.append(clock, data)
        }

        fn write_blocks(&mut self, clock: &mut SimClock, start: u64, data: &[u8]) -> IqResult<()> {
            self.inner.write_blocks(clock, start, data)
        }

        fn device_id(&self) -> u64 {
            self.inner.device_id()
        }
    }

    #[test]
    fn a_failed_run_does_not_stop_the_fetch() {
        let m = model(0.01, 0.001);
        let mut clock = SimClock::new(m, crate::CpuModel::free());
        let mut inner = MemDevice::new(64);
        for i in 0..20u8 {
            inner.append(&mut clock, &[i; 64]).unwrap();
        }
        // Two runs, [1, 3] and [18, 18]; block 2 of the first never reads.
        let dev = FailsAt { inner, bad: 2 };
        clock.reset();
        let mut buf = BlockBuffer::new(64);
        // The first run was retried and left out; the second was read.
        assert_eq!(fetch_blocks(&dev, &mut clock, &[1, 3, 18], &mut buf), 1);
        let attempts = crate::RetryPolicy::default().max_attempts;
        assert_eq!(clock.stats().io_retries, u64::from(attempts - 1));
        assert_eq!(clock.stats().blocks_read, 1);
        assert_eq!(buf.block(18), Some(&[18u8; 64][..]));
        assert!((0..18).all(|b| !buf.contains(b)));
    }
}
