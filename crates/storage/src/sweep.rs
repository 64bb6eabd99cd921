//! One front-to-back sweep over a file of positional records.
//!
//! The sequential scan keeps its exact points, and the VA-file its packed
//! approximations, back to back in one flat file: fixed-size records whose
//! ids are their positions. Both read the file in one sequential sweep,
//! and both degrade the same way when part of it stays unreadable. This
//! is that sweep, written once.

use crate::device::BlockDevice;
use crate::model::SimClock;
use crate::retry::read_to_vec_retry;

/// Blocks fetched per read of a sweep (bounds buffer memory; has no
/// effect on simulated cost because the reads stay sequential).
const SCAN_CHUNK_BLOCKS: u64 = 256;

/// What one [`sweep_records`] call covered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sweep {
    /// Records handed to the visitor.
    pub visited: u64,
    /// Records lost to chunks that stayed unreadable.
    pub lost: u64,
    /// Blocks swept, read or skipped.
    pub blocks: u64,
}

/// Sweeps the first `n` records of `record` bytes each from the start of
/// `dev`, in chunks of `SCAN_CHUNK_BLOCKS` (256) blocks. `visit(first,
/// records)` receives whole records in place, `records.len()` a multiple
/// of `record`, record `j` of the slice having id `first + j`; a record
/// straddling two chunks is completed from a carry of less than one
/// record. Under a finite `deadline` (simulated seconds) the sweep reads
/// one block at a time and stops once the clock reaches it: the reads stay
/// sequential, so the cost is the same, but the budget resolves at block
/// granularity. With an infinite deadline `visited + lost == n`.
///
/// Each chunk read is retried ([`read_to_vec_retry`]). A chunk that stays
/// unreadable is skipped: ids are positional, so the sweep resumes at the
/// first record that starts after it, and the records it held, including
/// one straddling into it, are lost.
///
/// # Panics
/// Panics if `record == 0`.
pub fn sweep_records(
    dev: &dyn BlockDevice,
    clock: &mut SimClock,
    record: usize,
    n: usize,
    deadline: f64,
    mut visit: impl FnMut(usize, &[u8]),
) -> Sweep {
    assert!(record > 0, "records must have at least one byte");
    let bs = dev.block_size();
    let total = dev.num_blocks();
    let chunk = if deadline.is_finite() {
        1
    } else {
        SCAN_CHUNK_BLOCKS
    };
    // Id of the next record to visit or lose.
    let mut next = 0usize;
    let mut lost = 0usize;
    // Bytes at the head of the next chunk that belong to a lost record.
    let mut skip = 0usize;
    let mut carry: Vec<u8> = Vec::with_capacity(record);
    let mut block = 0u64;
    while block < total && next < n {
        if clock.total_time() >= deadline {
            break;
        }
        let nb = chunk.min(total - block);
        let read = read_to_vec_retry(dev, clock, block, nb);
        block += nb;
        let Ok(buf) = read else {
            let end = block as usize * bs;
            let resume = end.div_ceil(record).min(n);
            lost += resume - next;
            next = resume;
            skip = (resume * record).saturating_sub(end);
            carry.clear();
            continue;
        };
        let mut off = skip.min(buf.len());
        skip -= off;
        if !carry.is_empty() {
            let need = (record - carry.len()).min(buf.len() - off);
            carry.extend_from_slice(&buf[off..off + need]);
            off += need;
            if carry.len() < record {
                continue;
            }
            visit(next, &carry);
            next += 1;
            carry.clear();
        }
        let whole = ((buf.len() - off) / record).min(n - next);
        if whole > 0 {
            visit(next, &buf[off..off + whole * record]);
            next += whole;
            off += whole * record;
        }
        if next < n {
            carry.extend_from_slice(&buf[off..]);
        }
    }
    debug_assert!(
        next == n || block < total,
        "a file of {total} blocks of {bs} bytes holds fewer than {n} records of {record} bytes"
    );
    Sweep {
        visited: (next - lost) as u64,
        lost: lost as u64,
        blocks: block,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDevice;

    /// `n` records of `record` bytes, record `i` filled with `i as u8`.
    fn file(bs: usize, record: usize, n: usize) -> MemDevice {
        let bytes: Vec<u8> = (0..n).flat_map(|i| vec![i as u8; record]).collect();
        let mut dev = MemDevice::new(bs);
        dev.append(&mut SimClock::default(), &bytes)
            .expect("append");
        dev
    }

    /// The ids a sweep visits, each checked against its record's bytes.
    fn visited(
        dev: &dyn BlockDevice,
        record: usize,
        n: usize,
        deadline: f64,
    ) -> (Vec<usize>, Sweep) {
        let mut ids = Vec::new();
        let s = sweep_records(
            dev,
            &mut SimClock::default(),
            record,
            n,
            deadline,
            |first, recs| {
                assert_eq!(recs.len() % record, 0);
                for (j, r) in recs.chunks_exact(record).enumerate() {
                    assert!(
                        r.iter().all(|&b| b == (first + j) as u8),
                        "record {}",
                        first + j
                    );
                    ids.push(first + j);
                }
            },
        );
        (ids, s)
    }

    #[test]
    fn straddling_records_are_completed_from_the_carry() {
        // 20-byte records in 64-byte blocks straddle block boundaries;
        // 300-byte ones are larger than a block.
        for (record, n) in [(20, 50), (300, 9)] {
            for deadline in [f64::INFINITY, 1e9] {
                let dev = file(64, record, n);
                let (ids, s) = visited(&dev, record, n, deadline);
                assert_eq!(ids, (0..n).collect::<Vec<_>>(), "record {record}");
                assert_eq!(
                    (s.visited, s.lost, s.blocks),
                    (n as u64, 0, dev.num_blocks())
                );
            }
        }
    }

    #[test]
    fn a_deadline_stops_between_blocks() {
        let dev = file(64, 20, 50);
        let mut clock = SimClock::default();
        let t_block = clock.disk().t_xfer;
        let deadline = clock.disk().t_seek + 2.5 * t_block;
        let mut seen = 0;
        let s = sweep_records(&dev, &mut clock, 20, 50, deadline, |_, recs| {
            seen += recs.len() / 20
        });
        // Blocks 0..3 (192 bytes) hold 9 whole records.
        assert_eq!((s.blocks, s.visited, s.lost, seen), (3, 9, 0, 9));
    }
}
