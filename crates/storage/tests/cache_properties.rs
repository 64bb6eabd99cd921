//! Property tests: a [`CachedDevice`] must be observationally identical to
//! the bare device it wraps — same bytes under any interleaving of ranged
//! reads and write-through writes — and a fully-resident read must charge
//! nothing to the simulated clock.

use iq_storage::{BlockDevice, CachedDevice, CpuModel, DiskModel, MemDevice, SimClock};
use proptest::prelude::*;

const BS: usize = 64;

fn clock() -> SimClock {
    SimClock::new(DiskModel::default(), CpuModel::free())
}

/// (op, block, len, fill): op 0 = ranged read, 1 = overwrite, 2 = append.
type Op = (u8, u64, u64, u8);

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..3, 0u64..24, 1u64..5, 0u8..=254), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of reads, overwrites and appends observes exactly
    /// the bytes a bare MemDevice would produce, and never pays more
    /// simulated I/O.
    #[test]
    fn prop_cache_is_transparent(ops in ops_strategy(), cap in 1usize..10) {
        let mut plain = MemDevice::new(BS);
        let mut cached = CachedDevice::new(Box::new(MemDevice::new(BS)), cap);
        let mut pc = clock();
        let mut cc = clock();
        // Both devices start with 8 seeded blocks.
        for i in 0..8u8 {
            plain.append(&mut pc, &[i; BS]).unwrap();
            cached.append(&mut cc, &[i; BS]).unwrap();
        }
        for (op, block, len, fill) in ops {
            let nblocks = plain.num_blocks();
            match op {
                0 => {
                    let start = block % nblocks;
                    let len = len.min(nblocks - start);
                    prop_assert_eq!(
                        plain.read_to_vec(&mut pc, start, len).unwrap(),
                        cached.read_to_vec(&mut cc, start, len).unwrap(),
                        "read [{}, {}) diverged", start, start + len
                    );
                }
                1 => {
                    let start = block % nblocks;
                    let len = len.min(nblocks - start);
                    let data = vec![fill; len as usize * BS];
                    plain.write_blocks(&mut pc, start, &data).unwrap();
                    cached.write_blocks(&mut cc, start, &data).unwrap();
                }
                _ => {
                    let data = vec![fill; len as usize * BS];
                    plain.append(&mut pc, &data).unwrap();
                    cached.append(&mut cc, &data).unwrap();
                }
            }
            prop_assert_eq!(plain.num_blocks(), cached.num_blocks());
        }
        // Final sweep: every block identical.
        let n = plain.num_blocks();
        prop_assert_eq!(
            plain.read_to_vec(&mut pc, 0, n).unwrap(),
            cached.read_to_vec(&mut cc, 0, n).unwrap()
        );
        // The cache can only save simulated time, never add it.
        prop_assert!(cc.io_time() <= pc.io_time(),
            "cached {} > plain {}", cc.io_time(), pc.io_time());
    }

    /// A read whose blocks are all resident charges zero simulated I/O.
    #[test]
    fn prop_resident_reads_are_free(start in 0u64..12, len in 1u64..5) {
        let mut dev = CachedDevice::new(Box::new(MemDevice::new(BS)), 16);
        let mut c = clock();
        for i in 0..16u8 {
            dev.append(&mut c, &[i; BS]).unwrap();
        }
        dev.clear(); // cold pool, warm contents
        let len = len.min(16 - start);
        let first = dev.read_to_vec(&mut c, start, len).unwrap();
        c.reset();
        let again = dev.read_to_vec(&mut c, start, len).unwrap();
        prop_assert_eq!(first, again);
        prop_assert_eq!(c.io_time(), 0.0);
        prop_assert_eq!(c.stats().seeks, 0);
        prop_assert_eq!(c.stats().blocks_read, 0);
    }
}
