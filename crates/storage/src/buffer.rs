//! The block buffer behind every block a query has already read.
//!
//! The paper reads in multi-block sweeps — the Figure 1 batch fetch of
//! Section 2 and the run extension around the k-NN pivot of Section 2.1 —
//! and a query then takes the sweep apart block by block. A refinement
//! (Section 3.2) reads one exact entry, whose block often holds entries the
//! same query refines later. [`BlockBuffer`] keeps every block a query — or
//! one micro-batch of queries — has read, keyed by absolute block number,
//! so each block is read at most once while the buffer lives. Only reads
//! that succeeded are kept: a failed read leaves no trace, so the next
//! access that needs the block reads it again.

use crate::error::{IqError, IqResult};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Blocks of one file that read successfully, by absolute block number.
///
/// Reads are moved in whole — a planned multi-block run or one retried
/// span — and never copied, so the buffer holds at most the bytes its
/// owner's reads returned.
pub struct BlockBuffer {
    block_size: usize,
    /// Block number → `(index into reads, byte offset of the block)`.
    index: HashMap<u64, (usize, usize)>,
    /// Every kept read.
    reads: Vec<Vec<u8>>,
    /// Stitch scratch for a span straddling a block boundary.
    stitch: Vec<u8>,
}

impl BlockBuffer {
    /// An empty buffer for a file of `block_size`-byte blocks.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self {
            block_size,
            index: HashMap::new(),
            reads: Vec::new(),
            stitch: Vec::new(),
        }
    }

    /// Whether `block` is held.
    pub fn contains(&self, block: u64) -> bool {
        self.index.contains_key(&block)
    }

    /// The bytes of `block`, if held.
    pub fn block(&self, block: u64) -> Option<&[u8]> {
        let &(read, off) = self.index.get(&block)?;
        Some(&self.reads[read][off..off + self.block_size])
    }

    /// Keeps a successful read of consecutive blocks starting at `first`
    /// (whole blocks only; a trailing partial block is dropped). A block
    /// already held keeps its bytes.
    pub fn keep(&mut self, first: u64, bytes: Vec<u8>) {
        let read = self.reads.len();
        let mut used = false;
        for i in 0..bytes.len() / self.block_size {
            if let Entry::Vacant(e) = self.index.entry(first + i as u64) {
                e.insert((read, i * self.block_size));
                used = true;
            }
        }
        if used {
            self.reads.push(bytes);
        }
    }

    /// The `len` bytes that start `off` bytes into block `first`, stitched
    /// together when they straddle a block boundary. The span's blocks
    /// come from the buffer; if any is missing, `read(lo, n)` reads the
    /// `n` blocks from the first missing one to the last once, and its
    /// bytes are kept only when it succeeds.
    ///
    /// Fails when the read fails or does not deliver the span.
    ///
    /// # Panics
    /// Panics (debug) if `off` is not inside block `first`.
    pub fn span(
        &mut self,
        first: u64,
        off: usize,
        len: usize,
        read: impl FnOnce(u64, u64) -> IqResult<Vec<u8>>,
    ) -> IqResult<&[u8]> {
        let bs = self.block_size;
        debug_assert!(off < bs, "the span starts inside its first block");
        let blocks = first..first + (off + len).div_ceil(bs) as u64;
        let mut missing = blocks.clone().filter(|&b| !self.contains(b));
        if let Some(lo) = missing.next() {
            let hi = missing.next_back().unwrap_or(lo);
            let bytes = read(lo, hi - lo + 1)?;
            self.keep(lo, bytes);
        }
        let lost = |b: u64| IqError::Decode {
            detail: format!("block {b} is missing from its read"),
        };
        if blocks.end - blocks.start == 1 {
            let bytes = self.block(first).ok_or_else(|| lost(first))?;
            return Ok(&bytes[off..off + len]);
        }
        // Straddles a block boundary: stitch.
        let mut stitch = std::mem::take(&mut self.stitch);
        stitch.clear();
        let mut from = off;
        for b in blocks {
            let Some(bytes) = self.block(b) else {
                self.stitch = stitch;
                return Err(lost(b));
            };
            let take = (bs - from).min(len - stitch.len());
            stitch.extend_from_slice(&bytes[from..from + take]);
            from = 0;
        }
        self.stitch = stitch;
        Ok(&self.stitch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BS: usize = 64;

    /// A file of `n` `entry`-byte entries in 64-byte blocks: byte `j` of
    /// entry `i` is `i * 7 + j` (mod 256).
    fn file(n: usize, entry: usize) -> Vec<u8> {
        let mut bytes: Vec<u8> = (0..n)
            .flat_map(|i| (0..entry).map(move |j| (i * 7 + j) as u8))
            .collect();
        bytes.resize(bytes.len().div_ceil(BS) * BS, 0);
        bytes
    }

    /// Entry `slot` of `file(_, entry)`: its starting block and offset.
    fn at(slot: usize, entry: usize) -> (u64, usize) {
        ((slot * entry / BS) as u64, slot * entry % BS)
    }

    fn blocks(bytes: &[u8], first: u64, n: u64) -> IqResult<Vec<u8>> {
        Ok(bytes[first as usize * BS..(first + n) as usize * BS].to_vec())
    }

    #[test]
    fn reads_each_block_once_and_stitches_straddling_entries() {
        let bytes = file(20, 16);
        let mut buf = BlockBuffer::new(BS);
        let mut reads = Vec::new();
        for slot in [0usize, 1, 3, 4, 2, 7, 3] {
            let (first, off) = at(slot, 16);
            let entry = buf
                .span(first, off, 16, |first, n| {
                    reads.push((first, n));
                    blocks(&bytes, first, n)
                })
                .expect("entry reads");
            assert_eq!(entry, &bytes[slot * 16..(slot + 1) * 16]);
        }
        // 16-byte entries in 64-byte blocks: slots 0–3 share block 0,
        // slots 4–7 block 1.
        assert_eq!(reads, [(0, 1), (1, 1)]);
        assert!(buf.contains(0) && buf.contains(1) && !buf.contains(2));

        // 20-byte entries: entry 3 covers bytes 60..80, straddling blocks
        // 0 and 1; with block 0 held, only block 1 is read.
        let bytes = file(8, 20);
        let mut buf = BlockBuffer::new(BS);
        let mut reads = Vec::new();
        for slot in [0usize, 3] {
            let (first, off) = at(slot, 20);
            let entry = buf
                .span(first, off, 20, |first, n| {
                    reads.push((first, n));
                    blocks(&bytes, first, n)
                })
                .expect("entry reads");
            assert_eq!(entry, &bytes[slot * 20..(slot + 1) * 20]);
        }
        assert_eq!(reads, [(0, 1), (1, 1)]);
    }

    #[test]
    fn a_failed_read_is_not_kept() {
        let bytes = file(8, 16);
        let mut buf = BlockBuffer::new(BS);
        let err = buf.span(0, 16, 16, |_, _| {
            Err(IqError::Decode {
                detail: "unreadable".into(),
            })
        });
        assert!(err.is_err());
        assert!(!buf.contains(0));
        let mut calls = 0;
        let entry = buf
            .span(0, 32, 16, |first, n| {
                calls += 1;
                blocks(&bytes, first, n)
            })
            .expect("the retry reads the block")
            .to_vec();
        assert_eq!((&entry[..], calls), (&bytes[32..48], 1));
    }

    #[test]
    fn kept_runs_serve_every_block_they_cover() {
        let bytes = file(20, 16);
        let mut buf = BlockBuffer::new(BS);
        buf.keep(1, blocks(&bytes, 1, 3).expect("in range"));
        // A later overlapping read does not replace held blocks.
        buf.keep(3, blocks(&bytes, 3, 2).expect("in range"));
        assert!((1..=4).all(|b| buf.contains(b)) && !buf.contains(0) && !buf.contains(5));
        assert_eq!(buf.block(2), Some(&bytes[2 * BS..3 * BS]));
        for slot in 4..20 {
            let (first, off) = at(slot, 16);
            let entry = buf
                .span(first, off, 16, |_, _| panic!("block is held"))
                .expect("held");
            assert_eq!(entry, &bytes[slot * 16..(slot + 1) * 16]);
        }
    }
}
