//! Typed storage errors.
//!
//! Everything that can go wrong between a query and the disk is an
//! [`IqError`]: device I/O failures (real or injected), reads outside the
//! allocated file, per-block checksum mismatches, structural decode
//! failures, and superblock/format-version problems. The read path of the
//! whole workspace returns `IqResult` instead of panicking, so callers can
//! retry transient faults and degrade gracefully on corruption.

use std::fmt;

/// Result alias used across the storage, codec and index crates.
pub type IqResult<T> = Result<T, IqError>;

/// A storage-layer error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IqError {
    /// A device-level I/O failure. `transient` marks faults worth retrying
    /// (e.g. an injected transient error or an interrupted syscall).
    Io {
        /// The operation that failed (`"read"`, `"write"`, `"append"`).
        op: &'static str,
        /// First block of the failed access.
        block: u64,
        /// Whether a retry may succeed.
        transient: bool,
        /// Human-readable cause.
        detail: String,
    },
    /// An access outside the device's allocated blocks (typically caused by
    /// corrupt metadata pointing into the void).
    OutOfBounds {
        /// The operation that was attempted.
        op: &'static str,
        /// First requested block.
        start: u64,
        /// Number of requested blocks.
        nblocks: u64,
        /// Blocks actually allocated on the device.
        available: u64,
    },
    /// A block's stored CRC32 disagrees with its contents.
    ChecksumMismatch {
        /// The corrupt block.
        block: u64,
        /// Checksum stored on disk.
        stored: u32,
        /// Checksum computed over the payload read.
        computed: u32,
    },
    /// A page, directory entry, WAL frame or input file failed structural
    /// validation while decoding (bad header, counts exceeding capacity,
    /// truncated bit stream, unparsable coordinate, …). `detail` names
    /// what was malformed.
    Decode {
        /// What was malformed.
        detail: String,
    },
    /// The superblock is missing or malformed (wrong magic, inconsistent
    /// geometry, bad root checksum).
    Superblock {
        /// What was wrong.
        detail: String,
    },
    /// The on-disk format version is not supported by this build.
    Version {
        /// Version found in the superblock.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// A query the index cannot answer: a point of the wrong dimension or
    /// with a non-finite coordinate, a radius that is not a finite
    /// non-negative number, a window with non-finite bounds, or an
    /// approximation knob out of range. Nothing was read or charged.
    InvalidQuery {
        /// What was wrong.
        detail: String,
    },
    /// A bounded retry loop exhausted its attempts; `last` is the final
    /// error observed.
    RetriesExhausted {
        /// Attempts performed.
        attempts: u32,
        /// The last underlying error.
        last: Box<IqError>,
    },
}

impl IqError {
    /// Whether retrying the failed operation may succeed (transient device
    /// faults only — corruption and format errors are permanent).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            IqError::Io {
                transient: true,
                ..
            }
        )
    }

    /// The corrupt block index, for checksum mismatches.
    pub fn corrupt_block(&self) -> Option<u64> {
        match self {
            IqError::ChecksumMismatch { block, .. } => Some(*block),
            IqError::RetriesExhausted { last, .. } => last.corrupt_block(),
            _ => None,
        }
    }

    /// Whether the error indicates data corruption (as opposed to a device
    /// fault): a checksum mismatch or a structural decode failure.
    pub fn is_corruption(&self) -> bool {
        match self {
            IqError::ChecksumMismatch { .. } | IqError::Decode { .. } => true,
            IqError::RetriesExhausted { last, .. } => last.is_corruption(),
            _ => false,
        }
    }
}

impl fmt::Display for IqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IqError::Io {
                op,
                block,
                transient,
                detail,
            } => {
                let kind = if *transient { "transient " } else { "" };
                write!(f, "{kind}I/O error during {op} at block {block}: {detail}")
            }
            IqError::OutOfBounds {
                op,
                start,
                nblocks,
                available,
            } => write!(
                f,
                "{op} of {nblocks} block(s) at {start} exceeds device size {available}"
            ),
            IqError::ChecksumMismatch {
                block,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch at block {block}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            IqError::Decode { detail } => write!(f, "malformed data: {detail}"),
            IqError::Superblock { detail } => write!(f, "invalid superblock: {detail}"),
            IqError::Version { found, supported } => write!(
                f,
                "unsupported on-disk format version {found} (this build supports {supported})"
            ),
            IqError::InvalidQuery { detail } => write!(f, "invalid query: {detail}"),
            IqError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for IqError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_classification() {
        let t = IqError::Io {
            op: "read",
            block: 3,
            transient: true,
            detail: "injected".into(),
        };
        assert!(t.is_transient());
        let p = IqError::ChecksumMismatch {
            block: 3,
            stored: 1,
            computed: 2,
        };
        assert!(!p.is_transient());
        assert!(p.is_corruption());
        assert_eq!(p.corrupt_block(), Some(3));
    }

    #[test]
    fn retries_exhausted_forwards_classification() {
        let inner = IqError::ChecksumMismatch {
            block: 9,
            stored: 0,
            computed: 1,
        };
        let e = IqError::RetriesExhausted {
            attempts: 4,
            last: Box::new(inner),
        };
        assert!(e.is_corruption());
        assert_eq!(e.corrupt_block(), Some(9));
        assert!(!e.is_transient());
    }

    #[test]
    fn display_is_informative() {
        let e = IqError::Version {
            found: 1,
            supported: 2,
        };
        let s = e.to_string();
        assert!(s.contains('1') && s.contains('2'), "{s}");
    }
}
