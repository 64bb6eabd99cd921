//! Checksummed write-ahead logging for crash-consistent IQ-tree updates.
//!
//! The paper's IQ-tree is described as a static structure built by a bulk
//! pass; this workspace also supports dynamic inserts and deletes, which
//! mutate three base files (directory, quantized pages, exact regions) in
//! place. A crash between two of those writes would leave the index
//! inconsistent. This crate supplies the durability layer that prevents
//! that:
//!
//! * [`WalRecord`] — typed records: logical transaction headers
//!   (insert/delete/checkpoint), physical redo images
//!   (page-write/page-append/truncate-level) and semantic markers
//!   (requantize/split).
//! * [`encode_frame`] / [`scan`] — the self-checking frame format
//!   (`len | lsn | kind | payload | crc32`) and a scanner that separates
//!   committed transactions from an unfinished transaction and a torn
//!   tail, byte-accurately.
//! * [`Wal`] — the writer enforcing *commit-frame-last, sync-before-apply*;
//!   its [`Wal::open`] recovers a surviving log.
//!
//! The tree itself wires this in (`iq-tree`): every mutation stages its
//! base-file writes in memory, logs them plus a commit frame, syncs, and
//! only then applies the staged writes — so at any crash point the base
//! files hold exactly the state of some committed prefix, and replaying
//! the log reproduces the rest.

#![forbid(unsafe_code)]

pub mod frame;
pub mod log;
pub mod record;

pub use frame::{encode_frame, scan, CommittedTxn, Frame, WalScan, FRAME_OVERHEAD};
pub use log::Wal;
pub use record::{Level, WalRecord};

#[cfg(test)]
mod proptests {
    use crate::frame::{encode_frame, scan};
    use crate::record::{Level, WalRecord};
    use proptest::prelude::*;

    /// One record drawn from a heterogeneous tuple: `sel` picks the
    /// variant, the other fields feed whichever variant was picked (the
    /// compat proptest subset has no `prop_oneof`).
    fn arb_record() -> impl Strategy<Value = WalRecord> {
        (
            0u8..8,
            0u64..u64::MAX,
            proptest::collection::vec(-1e6f64..1e6, 0..6),
            proptest::collection::vec(0u8..=255, 0..64),
            0u8..3,
            0u32..64,
        )
            .prop_map(|(sel, n, point, bytes, lvl, g)| {
                let level = Level::ALL[lvl as usize];
                match sel {
                    0 => WalRecord::Insert { id: n, point },
                    1 => WalRecord::Delete { id: n, point },
                    2 => WalRecord::PageWrite {
                        level,
                        block: n,
                        bytes,
                    },
                    3 => WalRecord::PageAppend {
                        level,
                        block: n,
                        bytes,
                    },
                    4 => WalRecord::TruncateLevel { level, nblocks: n },
                    5 => WalRecord::Requantize { page: n, g },
                    6 => WalRecord::Split {
                        page: n,
                        new_page: n ^ 1,
                    },
                    _ => WalRecord::Checkpoint { generation: n },
                }
            })
    }

    fn log_of(txns: &[Vec<WalRecord>]) -> (Vec<u8>, Vec<u64>) {
        let mut bytes = Vec::new();
        let mut commit_offsets = Vec::new();
        let mut lsn = 0u64;
        for (t, recs) in txns.iter().enumerate() {
            for r in recs {
                encode_frame(&mut bytes, lsn, r);
                lsn += 1;
            }
            encode_frame(&mut bytes, lsn, &WalRecord::Commit { txn: t as u64 });
            lsn += 1;
            commit_offsets.push(bytes.len() as u64);
        }
        (bytes, commit_offsets)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any prefix of a valid log recovers exactly the transactions
        /// whose commit frame lies inside the prefix.
        #[test]
        fn prefix_recovers_exactly_committed_txns(
            txns in proptest::collection::vec(
                proptest::collection::vec(arb_record(), 0..4), 1..4),
            frac in 0.0f64..1.0,
        ) {
            let (bytes, commit_offsets) = log_of(&txns);
            let cut = (bytes.len() as f64 * frac) as usize;
            let s = scan(&bytes[..cut]);
            let expect = commit_offsets.iter().filter(|&&o| o <= cut as u64).count();
            prop_assert_eq!(s.txns.len(), expect);
            for (i, t) in s.txns.iter().enumerate() {
                prop_assert_eq!(&t.records, &txns[i]);
            }
            prop_assert_eq!(s.valid_len + s.torn_bytes, cut as u64);
        }

        /// A single corrupted byte never yields extra or altered
        /// transactions — at worst it truncates the recoverable suffix.
        #[test]
        fn corruption_only_truncates(
            txns in proptest::collection::vec(
                proptest::collection::vec(arb_record(), 0..3), 1..3),
            pos_frac in 0.0f64..1.0,
            mask in 1u8..=255,
        ) {
            let (bytes, _) = log_of(&txns);
            let clean = scan(&bytes);
            let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
            let mut bad = bytes.clone();
            bad[pos] ^= mask;
            let s = scan(&bad);
            prop_assert!(s.txns.len() <= clean.txns.len());
            for (got, want) in s.txns.iter().zip(clean.txns.iter()) {
                prop_assert_eq!(got, want);
            }
        }
    }
}
