//! The exact-block buffer behind every refinement.
//!
//! A refinement (Section 3.2) reads one exact entry, a random access into
//! the third-level file. The block it lands in often holds entries the
//! same query refines later, so [`ExactBlocks`] keeps every exact block a
//! query — or one micro-batch of queries — has read, keyed by absolute
//! block number, and each block is read at most once while the buffer
//! lives. Only reads that succeeded are kept: a failed read leaves no
//! trace, so the next refinement that needs the block reads it again.

use crate::ExactPageCodec;
use iq_storage::{IqError, IqResult};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Exact-file blocks that read successfully, by absolute block number.
///
/// Reads are moved in whole — a planned multi-block run or one retried
/// span — and never copied, so the buffer holds at most the bytes its
/// owner's reads returned.
pub struct ExactBlocks {
    block_size: usize,
    /// Block number → `(index into reads, byte offset of the block)`.
    index: HashMap<u64, (usize, usize)>,
    /// Every kept read.
    reads: Vec<Vec<u8>>,
    /// Stitch scratch for an entry straddling a block boundary.
    entry: Vec<u8>,
}

impl ExactBlocks {
    /// An empty buffer for a file of `block_size`-byte blocks.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self {
            block_size,
            index: HashMap::new(),
            reads: Vec::new(),
            entry: Vec::new(),
        }
    }

    /// Whether `block` is held.
    pub fn contains(&self, block: u64) -> bool {
        self.index.contains_key(&block)
    }

    /// The bytes of `block`, if held.
    fn block(&self, block: u64) -> Option<&[u8]> {
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

    /// Decodes entry `slot` of the exact region starting at block `start`
    /// into `out` and returns the entry's id. The entry's blocks come from
    /// the buffer; if any is missing, `read(first, n)` reads the span of
    /// missing blocks once, and its bytes are kept only when it succeeds.
    ///
    /// Fails when the read fails or the entry does not decode.
    pub fn entry_into(
        &mut self,
        codec: &ExactPageCodec,
        start: u64,
        slot: usize,
        out: &mut [f32],
        read: impl FnOnce(u64, u64) -> IqResult<Vec<u8>>,
    ) -> IqResult<u32> {
        let bs = self.block_size;
        let (first, nblocks, off) = codec.entry_span(slot, bs);
        let span = start + first..start + first + nblocks;
        let mut missing = span.clone().filter(|&b| !self.contains(b));
        if let Some(lo) = missing.next() {
            let hi = missing.next_back().unwrap_or(lo);
            let bytes = read(lo, hi - lo + 1)?;
            self.keep(lo, bytes);
        }
        let lost = |b: u64| IqError::Decode {
            detail: format!("exact block {b} is missing from its read"),
        };
        let eb = codec.entry_bytes();
        if nblocks == 1 {
            let bytes = self.block(span.start).ok_or_else(|| lost(span.start))?;
            return codec.try_decode_entry_into(&bytes[off..off + eb], out);
        }
        // Straddles a block boundary: stitch.
        let mut entry = std::mem::take(&mut self.entry);
        entry.clear();
        let mut from = off;
        for b in span {
            let Some(bytes) = self.block(b) else {
                self.entry = entry;
                return Err(lost(b));
            };
            let take = (bs - from).min(eb - entry.len());
            entry.extend_from_slice(&bytes[from..from + take]);
            from = 0;
        }
        let id = codec.try_decode_entry_into(&entry, out);
        self.entry = entry;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BS: usize = 64;

    /// A 3-d exact file of `n` 16-byte entries in 64-byte blocks: entry
    /// `i` has id `i` and coordinates `[i, i + 0.5, i + 0.25]`.
    fn file(n: u32) -> (ExactPageCodec, Vec<u8>) {
        let codec = ExactPageCodec::new(3);
        let rows: Vec<(u32, Vec<f32>)> = (0..n)
            .map(|i| (i, vec![i as f32, i as f32 + 0.5, i as f32 + 0.25]))
            .collect();
        let mut bytes = codec.encode(rows.iter().map(|(i, p)| (*i, p.as_slice())));
        bytes.resize(bytes.len().div_ceil(BS) * BS, 0);
        (codec, bytes)
    }

    fn blocks(bytes: &[u8], first: u64, n: u64) -> IqResult<Vec<u8>> {
        Ok(bytes[first as usize * BS..(first + n) as usize * BS].to_vec())
    }

    #[test]
    fn reads_each_block_once_and_stitches_straddling_entries() {
        let (codec, bytes) = file(20);
        let mut buf = ExactBlocks::new(BS);
        let mut out = [0.0f32; 3];
        let mut reads = Vec::new();
        for slot in [0usize, 1, 3, 4, 2, 7, 3] {
            let id = buf
                .entry_into(&codec, 0, slot, &mut out, |first, n| {
                    reads.push((first, n));
                    blocks(&bytes, first, n)
                })
                .expect("entry decodes");
            assert_eq!(id, slot as u32);
            assert_eq!(out, [slot as f32, slot as f32 + 0.5, slot as f32 + 0.25]);
        }
        // 16-byte entries in 64-byte blocks: slots 0–3 share block 0,
        // slots 4–7 block 1.
        assert_eq!(reads, [(0, 1), (1, 1)]);
        assert!(buf.contains(0) && buf.contains(1) && !buf.contains(2));

        // 20-byte entries: entry 3 covers bytes 60..80, straddling blocks
        // 0 and 1; with block 0 held, only block 1 is read.
        let codec = ExactPageCodec::new(4);
        let rows: Vec<Vec<f32>> = (0..8).map(|i| vec![i as f32; 4]).collect();
        let mut bytes = codec.encode(rows.iter().enumerate().map(|(i, p)| (i as u32, &p[..])));
        bytes.resize(3 * BS, 0);
        let mut buf = ExactBlocks::new(BS);
        let mut out = [0.0f32; 4];
        let mut reads = Vec::new();
        for slot in [0usize, 3] {
            buf.entry_into(&codec, 0, slot, &mut out, |first, n| {
                reads.push((first, n));
                blocks(&bytes, first, n)
            })
            .expect("entry decodes");
            assert_eq!(out, [slot as f32; 4]);
        }
        assert_eq!(reads, [(0, 1), (1, 1)]);
    }

    #[test]
    fn a_failed_read_is_not_kept() {
        let (codec, bytes) = file(8);
        let mut buf = ExactBlocks::new(BS);
        let mut out = [0.0f32; 3];
        let err = buf.entry_into(&codec, 0, 1, &mut out, |_, _| {
            Err(IqError::Decode {
                detail: "unreadable".into(),
            })
        });
        assert!(err.is_err());
        assert!(!buf.contains(0));
        let mut calls = 0;
        let id = buf
            .entry_into(&codec, 0, 2, &mut out, |first, n| {
                calls += 1;
                blocks(&bytes, first, n)
            })
            .expect("the retry reads the block");
        assert_eq!((id, calls), (2, 1));
    }

    #[test]
    fn kept_runs_serve_every_block_they_cover() {
        let (codec, bytes) = file(20);
        let mut buf = ExactBlocks::new(BS);
        buf.keep(1, blocks(&bytes, 1, 3).expect("in range"));
        // A later overlapping read does not replace held blocks.
        buf.keep(3, blocks(&bytes, 3, 2).expect("in range"));
        assert!((1..=4).all(|b| buf.contains(b)) && !buf.contains(0) && !buf.contains(5));
        assert_eq!(buf.block(2), Some(&bytes[2 * BS..3 * BS]));
        let mut out = [0.0f32; 3];
        for slot in 4..20 {
            let id = buf
                .entry_into(&codec, 0, slot, &mut out, |_, _| panic!("block is held"))
                .expect("held");
            assert_eq!(id, slot as u32);
        }
    }
}
