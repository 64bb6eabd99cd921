//! Persistence: the versioned on-disk format and reopening an IQ-tree
//! from its three files.
//!
//! Logical block 0 of the directory file holds the **superblock**: magic,
//! format version, logical block size, dimension, metric, page and point
//! counts, the lengths of the other two level files and a CRC32 over the
//! directory entry payload (which starts at logical block 1). Every block
//! of every file additionally carries a per-block CRC32 maintained by
//! [`ChecksummedDevice`], verified on every read.
//!
//! [`IqTree::open`] validates all of it and returns a typed [`IqError`]
//! instead of panicking: a truncated file, a version from the future, a
//! flipped bit in the directory or metadata that disagrees with the files
//! it describes all surface as distinct, inspectable errors. The
//! directory check is one function, shared with
//! [`crate::verify::verify_index`], so the two agree on every index.
//!
//! [`ChecksummedDevice`]: iq_storage::ChecksummedDevice
//! [`FileDevice`]: iq_storage::FileDevice

use crate::{dir_entry_bytes, IqTree, IqTreeOptions, PageMeta};
use iq_cost::{DirectoryParams, RefineParams};
use iq_geometry::Metric;
use iq_quantize::{ExactPageCodec, QuantizedPageCodec};
use iq_storage::{crc32, read_to_vec_retry, BlockDevice, IqError, IqResult, SimClock};

/// File magic at the start of the superblock.
pub const SUPERBLOCK_MAGIC: [u8; 8] = *b"IQTRIDX\0";

/// Current on-disk format version. Version 1 was the headerless,
/// unchecksummed layout; version 2 added the superblock, per-block CRCs
/// and id-prefixed exact entries; version 3 added the superblock
/// generation (bumped by every checkpoint) for WAL-era disambiguation.
/// Version-2 indexes still open — read-only, since their updates would
/// not be crash-consistent under the new protocol.
pub const FORMAT_VERSION: u32 = 3;

/// Oldest on-disk format this build still reads (read-only).
pub const MIN_READ_VERSION: u32 = 2;

/// Serialized size of the superblock payload (version 3; version 2 lacks
/// the trailing generation).
const SUPERBLOCK_BYTES: usize = 8 + 4 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 4 + 8;

fn metric_code(metric: Metric) -> u8 {
    match metric {
        Metric::Euclidean => 0,
        Metric::Maximum => 1,
        Metric::Manhattan => 2,
    }
}

fn metric_from_code(code: u8) -> Option<Metric> {
    match code {
        0 => Some(Metric::Euclidean),
        1 => Some(Metric::Maximum),
        2 => Some(Metric::Manhattan),
        _ => None,
    }
}

/// The decoded header in logical block 0 of the directory file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Superblock {
    /// On-disk format version this header was decoded from (or will be
    /// encoded as — [`IqTree`] always writes [`FORMAT_VERSION`]).
    pub version: u32,
    /// Logical block size all three files share.
    pub block_size: u32,
    /// Dimensionality of the indexed points.
    pub dim: u32,
    /// Metric the index was built for.
    pub metric: Metric,
    /// Number of directory entries (= quantized pages).
    pub n_pages: u64,
    /// Total number of indexed points.
    pub n_points: u64,
    /// Length of the quantized (level-2) file in logical blocks.
    pub quant_blocks: u64,
    /// Length of the exact (level-3) file in logical blocks.
    pub exact_blocks: u64,
    /// CRC32 over the directory entry payload (blocks 1..).
    pub dir_crc: u32,
    /// Checkpoint generation (version 3+; 0 for version-2 indexes). The
    /// WAL restarts its sequence numbers after every checkpoint, so the
    /// generation tells recovery which era a log belongs to.
    pub generation: u64,
}

impl Superblock {
    /// Serializes into one logical block of `bs` bytes (zero-padded).
    pub fn encode(&self, bs: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(bs);
        out.extend_from_slice(&SUPERBLOCK_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.block_size.to_le_bytes());
        out.extend_from_slice(&self.dim.to_le_bytes());
        out.extend_from_slice(&u32::from(metric_code(self.metric)).to_le_bytes());
        out.extend_from_slice(&self.n_pages.to_le_bytes());
        out.extend_from_slice(&self.n_points.to_le_bytes());
        out.extend_from_slice(&self.quant_blocks.to_le_bytes());
        out.extend_from_slice(&self.exact_blocks.to_le_bytes());
        out.extend_from_slice(&self.dir_crc.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        debug_assert_eq!(out.len(), SUPERBLOCK_BYTES);
        assert!(out.len() <= bs, "block size {bs} too small for superblock");
        out.resize(bs, 0);
        out
    }

    /// Decodes and validates a superblock from the bytes of logical
    /// block 0 (magic, version and metric code are checked; everything
    /// else is the caller's to cross-check against the actual files).
    pub fn decode(block: &[u8]) -> IqResult<Self> {
        if block.len() < SUPERBLOCK_BYTES {
            return Err(IqError::Superblock {
                detail: format!(
                    "block of {} bytes cannot hold a {SUPERBLOCK_BYTES}-byte superblock",
                    block.len()
                ),
            });
        }
        if block[..8] != SUPERBLOCK_MAGIC {
            return Err(IqError::Superblock {
                detail: format!("bad magic {:02x?} (not an IQ-tree index)", &block[..8]),
            });
        }
        let u32_at = |o: usize| u32::from_le_bytes(block[o..o + 4].try_into().expect("4 bytes"));
        let u64_at = |o: usize| u64::from_le_bytes(block[o..o + 8].try_into().expect("8 bytes"));
        let version = u32_at(8);
        if !(MIN_READ_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(IqError::Version {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let metric_raw = u32_at(20);
        let metric = u8::try_from(metric_raw)
            .ok()
            .and_then(metric_from_code)
            .ok_or_else(|| IqError::Superblock {
                detail: format!("unknown metric code {metric_raw}"),
            })?;
        Ok(Self {
            version,
            block_size: u32_at(12),
            dim: u32_at(16),
            metric,
            n_pages: u64_at(24),
            n_points: u64_at(32),
            quant_blocks: u64_at(40),
            exact_blocks: u64_at(48),
            dir_crc: u32_at(56),
            // Version 2 predates the generation field; its bytes at offset
            // 60 are zero padding either way.
            generation: if version >= 3 { u64_at(60) } else { 0 },
        })
    }
}

fn superblock_err(detail: String) -> IqError {
    IqError::Superblock { detail }
}

/// Decodes the superblock of a directory file of `dir_blocks` logical
/// blocks; `read` returns the bytes of block 0.
pub(crate) fn read_superblock(
    dir_blocks: u64,
    read: impl FnOnce() -> IqResult<Vec<u8>>,
) -> IqResult<Superblock> {
    if dir_blocks == 0 {
        return Err(superblock_err(
            "directory file is empty (no superblock)".into(),
        ));
    }
    Superblock::decode(&read()?)
}

/// What [`check_directory`] found.
pub(crate) struct DirectoryCheck {
    /// Every problem, in check order; empty for a valid directory.
    pub(crate) problems: Vec<IqError>,
    /// The entries that decoded, each with its index in the directory.
    pub(crate) entries: Vec<(usize, PageMeta)>,
    /// The payload blocks as read (empty when they were not read).
    pub(crate) payload: Vec<u8>,
    /// The page codec, when the superblock's dimension fits a page.
    pub(crate) codec: Option<QuantizedPageCodec>,
}

/// The one check of a directory (level 1) against its superblock and the
/// level files, shared by [`IqTree::open`] and
/// [`crate::verify::verify_index`]. In this order it checks the block
/// size, both level-file lengths, that the directory file holds
/// `n_pages` entries (the byte count computed without overflow), that
/// the dimension fits a page, the payload CRC, every entry and the point
/// sum. `read_payload(n)` reads the `n` payload blocks after the
/// superblock; it is called only when the file holds them. Every problem
/// is recorded; a check whose input is missing is skipped.
pub(crate) fn check_directory(
    sb: &Superblock,
    bs: usize,
    dir_blocks: u64,
    quant_blocks: u64,
    exact_blocks: u64,
    read_payload: impl FnOnce(u64) -> IqResult<Vec<u8>>,
) -> DirectoryCheck {
    let mut problems = Vec::new();
    if sb.block_size as usize != bs {
        problems.push(superblock_err(format!(
            "superblock records block size {}, device uses {bs}",
            sb.block_size
        )));
    }
    if sb.quant_blocks != quant_blocks {
        problems.push(superblock_err(format!(
            "superblock records {} quantized blocks, file has {quant_blocks}",
            sb.quant_blocks
        )));
    }
    if sb.exact_blocks > exact_blocks {
        problems.push(superblock_err(format!(
            "superblock records {} exact blocks, file has only {exact_blocks}",
            sb.exact_blocks
        )));
    }

    let dim = sb.dim as usize;
    let eb = dir_entry_bytes(dim);
    let payload = match sb.n_pages.checked_mul(eb as u64) {
        None => {
            problems.push(superblock_err(format!(
                "superblock records {} pages, whose {eb}-byte entries overflow a file",
                sb.n_pages
            )));
            None
        }
        Some(len) => match len.div_ceil(bs as u64) {
            blocks if blocks >= dir_blocks => {
                problems.push(superblock_err(format!(
                    "directory file too short: {dir_blocks} blocks for {} pages",
                    sb.n_pages
                )));
                None
            }
            0 => Some(Vec::new()),
            blocks => read_payload(blocks).map_err(|e| problems.push(e)).ok(),
        },
    };
    // The page codec's precondition: a header and one exact entry fit.
    let codec = (dim > 0 && bs >= 4 + 4 + 4 * dim).then(|| QuantizedPageCodec::new(dim, bs));
    if codec.is_none() {
        problems.push(superblock_err(format!(
            "superblock dimension {dim} does not fit a {bs}-byte page"
        )));
    }

    let mut entries = Vec::new();
    if let (Some(payload), Some(codec)) = (&payload, &codec) {
        // One CRC covers the whole payload, so a mismatch names all of its
        // blocks: any of them may differ.
        let computed = crc32(payload);
        if computed != sb.dir_crc {
            problems.push(IqError::Decode {
                detail: format!(
                    "directory payload (blocks 1..={}) fails its checksum: stored {:#010x}, computed {computed:#010x}",
                    payload.len().div_ceil(bs),
                    sb.dir_crc
                ),
            });
        }
        // The payload holds at least `n_pages` entries: checked above.
        let mut points = 0u64;
        for (e, entry) in payload
            .chunks_exact(eb)
            .take(sb.n_pages as usize)
            .enumerate()
        {
            match PageMeta::decode(entry, codec, sb) {
                Ok(meta) => {
                    points += u64::from(meta.count);
                    entries.push((e, meta));
                }
                Err(msg) => problems.push(IqError::Decode {
                    detail: format!("directory entry {e}: {msg}"),
                }),
            }
        }
        if points != sb.n_points {
            problems.push(superblock_err(format!(
                "superblock records {} points, directory entries sum to {points}",
                sb.n_points
            )));
        }
    }
    DirectoryCheck {
        problems,
        entries,
        payload: payload.unwrap_or_default(),
        codec,
    }
}

impl IqTree {
    /// Opens an IQ-tree whose three files already exist (e.g. created by a
    /// previous [`IqTree::build`] against [`FileDevice`]s).
    ///
    /// The superblock is read from logical block 0 of the directory file
    /// and validated against the caller's expectations and the actual file
    /// lengths; the entry payload (blocks 1..) is then read sequentially,
    /// CRC-checked as a whole against the superblock and decoded with
    /// per-entry validation. Any inconsistency — wrong magic, a format
    /// version from the future, a failed block or payload checksum, an
    /// entry pointing outside its file — is returned as the matching
    /// [`IqError`] variant. When `opts.cache_blocks` is set, each device
    /// is wrapped in a buffer pool exactly as [`IqTree::build`] would.
    ///
    /// [`FileDevice`]: iq_storage::FileDevice
    pub fn open(
        dim: usize,
        metric: Metric,
        opts: IqTreeOptions,
        dir: Box<dyn BlockDevice>,
        quant: Box<dyn BlockDevice>,
        exact: Box<dyn BlockDevice>,
        clock: &mut SimClock,
    ) -> IqResult<Self> {
        let dir = crate::wrap_device(dir, opts.cache_blocks, "dir");
        let quant = crate::wrap_device(quant, opts.cache_blocks, "quant");
        let exact = crate::wrap_device(exact, opts.cache_blocks, "exact");
        Self::open_wrapped(dim, metric, opts, dir, quant, exact, clock)
    }

    /// Like [`IqTree::open`], but additionally adopts the index's
    /// write-ahead log: the surviving log is scanned, its torn tail and any
    /// unfinished transaction are truncated away, committed transactions
    /// are replayed onto the level files (idempotently — records are
    /// positional after-images), and only then is the index validated and
    /// opened. The returned tree keeps the log attached, so further
    /// updates stay crash-consistent.
    ///
    /// This is THE way to open an index that takes dynamic updates: after
    /// a crash at any point of any update, it restores exactly the state
    /// of the committed operation prefix.
    #[allow(clippy::too_many_arguments)]
    pub fn open_with_wal(
        dim: usize,
        metric: Metric,
        opts: IqTreeOptions,
        dir: Box<dyn BlockDevice>,
        quant: Box<dyn BlockDevice>,
        exact: Box<dyn BlockDevice>,
        wal_store: Box<dyn iq_storage::wal::WalStore>,
        clock: &mut SimClock,
    ) -> IqResult<(Self, crate::RecoveryReport)> {
        let mut dir = crate::wrap_device(dir, opts.cache_blocks, "dir");
        let mut quant = crate::wrap_device(quant, opts.cache_blocks, "quant");
        let mut exact = crate::wrap_device(exact, opts.cache_blocks, "exact");
        let (wal, scan) = iq_wal::Wal::open(wal_store, clock)?;
        let replayed = crate::durability::replay_txns(
            &scan.txns,
            dir.as_mut(),
            quant.as_mut(),
            exact.as_mut(),
            clock,
        )?;
        let report = crate::RecoveryReport {
            replayed_txns: scan.txns.len(),
            replayed_frames: replayed,
            discarded_bytes: (scan.valid_len - scan.committed_len) + scan.torn_bytes,
            uncommitted_frames: scan.uncommitted.len(),
            stop_reason: scan.stop_reason.clone(),
            wal_bytes: scan.committed_len,
        };
        let mut tree = Self::open_wrapped(dim, metric, opts, dir, quant, exact, clock)?;
        if tree.read_only {
            return Err(superblock_err(
                "cannot attach a WAL to a read-only (older-format) index".into(),
            ));
        }
        tree.wal = Some(wal);
        Ok((tree, report))
    }

    /// [`IqTree::open`] over devices already wrapped in the standard stack.
    pub(crate) fn open_wrapped(
        dim: usize,
        metric: Metric,
        opts: IqTreeOptions,
        dir: Box<dyn BlockDevice>,
        quant: Box<dyn BlockDevice>,
        exact: Box<dyn BlockDevice>,
        clock: &mut SimClock,
    ) -> IqResult<Self> {
        let bs = dir.block_size();
        if quant.block_size() != bs || exact.block_size() != bs {
            return Err(superblock_err(format!(
                "level files disagree on block size: dir {bs}, quant {}, exact {}",
                quant.block_size(),
                exact.block_size()
            )));
        }
        let sb = read_superblock(dir.num_blocks(), || {
            read_to_vec_retry(dir.as_ref(), clock, 0, 1)
        })?;
        if sb.dim as usize != dim {
            return Err(superblock_err(format!(
                "superblock records dimension {}, caller expects {dim}",
                sb.dim
            )));
        }
        if sb.metric != metric {
            return Err(superblock_err(format!(
                "superblock records metric {:?}, caller expects {metric:?}",
                sb.metric
            )));
        }
        let mut check = check_directory(
            &sb,
            bs,
            dir.num_blocks(),
            quant.num_blocks(),
            exact.num_blocks(),
            |n| read_to_vec_retry(dir.as_ref(), clock, 1, n),
        );
        if !check.problems.is_empty() {
            return Err(check.problems.swap_remove(0));
        }
        let codec = check
            .codec
            .expect("a directory without problems has a codec");
        let pages: Vec<PageMeta> = check.entries.into_iter().map(|(_, meta)| meta).collect();
        let n = sb.n_points as usize;
        let fractal = opts.fractal_dim.unwrap_or(dim as f64);
        let mut dir_params = DirectoryParams::new(metric, dim, fractal, n.max(1));
        dir_params.dir_entry_bytes = dir_entry_bytes(dim);
        Ok(Self {
            dim,
            metric,
            opts,
            codec,
            exact_codec: ExactPageCodec::new(dim),
            dir,
            quant,
            exact,
            pages,
            dir_bytes: check.payload,
            n,
            refine_params: RefineParams::fractal(metric, dim, fractal, n.max(1)),
            dir_params,
            trace: Default::default(),
            wasted_exact_blocks: 0,
            wal: None,
            txn: None,
            generation: sb.generation,
            read_only: sb.version < FORMAT_VERSION,
            poisoned: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::random_ds;
    use iq_engine::{AccessMethod, Query};
    use iq_storage::FileDevice;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iqtree-persist-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn file_dev(dir: &std::path::Path, name: &str, create: bool) -> Box<dyn BlockDevice> {
        let path = dir.join(name);
        Box::new(if create {
            FileDevice::create(&path, 1024).expect("create")
        } else {
            FileDevice::open(&path, 1024).expect("open")
        })
    }

    #[test]
    fn superblock_roundtrips() {
        let sb = Superblock {
            version: FORMAT_VERSION,
            block_size: 1020,
            dim: 7,
            metric: Metric::Manhattan,
            n_pages: 41,
            n_points: 12_345,
            quant_blocks: 41,
            exact_blocks: 99,
            dir_crc: 0xDEAD_BEEF,
            generation: 17,
        };
        let block = sb.encode(1020);
        assert_eq!(block.len(), 1020);
        assert_eq!(Superblock::decode(&block).expect("valid"), sb);
    }

    #[test]
    fn superblock_rejects_bad_magic_and_future_version() {
        let sb = Superblock {
            version: FORMAT_VERSION,
            block_size: 508,
            dim: 2,
            metric: Metric::Euclidean,
            n_pages: 1,
            n_points: 1,
            quant_blocks: 1,
            exact_blocks: 0,
            dir_crc: 0,
            generation: 0,
        };
        let mut block = sb.encode(508);
        block[0] ^= 0xFF;
        assert!(matches!(
            Superblock::decode(&block),
            Err(IqError::Superblock { .. })
        ));
        let mut block = sb.encode(508);
        block[8] = 0xFE; // version 254
        assert!(matches!(
            Superblock::decode(&block),
            Err(IqError::Version { found: 254, .. })
        ));
    }

    #[test]
    fn build_close_reopen_query() {
        let dir = temp_dir("roundtrip");
        let ds = random_ds(2_000, 6, 91);
        let mut clock = SimClock::default();
        let names = ["dir.bin", "quant.bin", "exact.bin"];
        let mut name_iter = names.iter();
        let tree = IqTree::build(
            &ds,
            Metric::Euclidean,
            IqTreeOptions::default(),
            || file_dev(&dir, name_iter.next().expect("three devices"), true),
            &mut clock,
        );
        let q = vec![0.42f32; 6];
        let expect = tree
            .run(&mut clock, &Query::knn(&q, 5))
            .expect("valid query")
            .into_ranked()
            .0;
        let pages_before = tree.num_pages();
        drop(tree);

        // Reopen from disk and run the same query.
        let reopened = IqTree::open(
            6,
            Metric::Euclidean,
            IqTreeOptions::default(),
            file_dev(&dir, "dir.bin", false),
            file_dev(&dir, "quant.bin", false),
            file_dev(&dir, "exact.bin", false),
            &mut clock,
        )
        .expect("clean index opens");
        assert_eq!(reopened.len(), 2_000);
        assert_eq!(reopened.num_pages(), pages_before);
        let got = reopened
            .run(&mut clock, &Query::knn(&q, 5))
            .expect("valid query")
            .into_ranked()
            .0;
        assert_eq!(got, expect);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn open_rejects_wrong_expectations() {
        let dir = temp_dir("mismatch");
        let ds = random_ds(300, 4, 93);
        let mut clock = SimClock::default();
        let names = ["d.bin", "q.bin", "e.bin"];
        let mut it = names.iter();
        let tree = IqTree::build(
            &ds,
            Metric::Euclidean,
            IqTreeOptions::default(),
            || file_dev(&dir, it.next().expect("three"), true),
            &mut clock,
        );
        drop(tree);
        let reopen = |dim, metric, clock: &mut SimClock| {
            IqTree::open(
                dim,
                metric,
                IqTreeOptions::default(),
                file_dev(&dir, "d.bin", false),
                file_dev(&dir, "q.bin", false),
                file_dev(&dir, "e.bin", false),
                clock,
            )
        };
        // Wrong dimension and wrong metric are both refused.
        assert!(matches!(
            reopen(5, Metric::Euclidean, &mut clock),
            Err(IqError::Superblock { .. })
        ));
        assert!(matches!(
            reopen(4, Metric::Maximum, &mut clock),
            Err(IqError::Superblock { .. })
        ));
        // A quantized file that is not the index's quantized file.
        let bogus = IqTree::open(
            4,
            Metric::Euclidean,
            IqTreeOptions::default(),
            file_dev(&dir, "d.bin", false),
            file_dev(&dir, "e.bin", false),
            file_dev(&dir, "e.bin", false),
            &mut clock,
        );
        assert!(bogus.is_err());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn reopened_tree_supports_updates() {
        let dir = temp_dir("updates");
        let ds = random_ds(800, 4, 92);
        let mut clock = SimClock::default();
        let names = ["d.bin", "q.bin", "e.bin"];
        let mut it = names.iter();
        let tree = IqTree::build(
            &ds,
            Metric::Euclidean,
            IqTreeOptions::default(),
            || file_dev(&dir, it.next().expect("three"), true),
            &mut clock,
        );
        drop(tree);
        let mut reopened = IqTree::open(
            4,
            Metric::Euclidean,
            IqTreeOptions::default(),
            file_dev(&dir, "d.bin", false),
            file_dev(&dir, "q.bin", false),
            file_dev(&dir, "e.bin", false),
            &mut clock,
        )
        .expect("clean index opens");
        let p = [0.9f32, 0.8, 0.7, 0.6];
        reopened.insert(&mut clock, 12_345, &p).unwrap();
        assert_eq!(
            reopened
                .run(&mut clock, &Query::knn(&p, 1))
                .expect("valid query")
                .into_ranked()
                .0[0]
                .0,
            12_345
        );
        assert!(reopened.delete(&mut clock, 12_345, &p).unwrap());
        assert_eq!(reopened.len(), 800);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A version-2 index (the pre-WAL format) still opens and answers
    /// queries, but read-only: updates are refused with a typed error and
    /// a WAL cannot be attached.
    #[test]
    fn version_2_index_opens_read_only() {
        let dir = temp_dir("v2-compat");
        let ds = random_ds(500, 4, 94);
        let mut clock = SimClock::default();
        let names = ["d.bin", "q.bin", "e.bin"];
        let mut it = names.iter();
        let tree = IqTree::build(
            &ds,
            Metric::Euclidean,
            IqTreeOptions::default(),
            || file_dev(&dir, it.next().expect("three"), true),
            &mut clock,
        );
        let q = vec![0.3f32; 4];
        let expect = tree
            .run(&mut clock, &Query::knn(&q, 5))
            .expect("valid query")
            .into_ranked()
            .0;
        drop(tree);

        // Downgrade the on-disk superblock to format version 2, exactly as
        // an old writer laid it out: version field 2, no generation, and a
        // recomputed block checksum (the CRC lives in the last 4 bytes of
        // the 1024-byte physical block).
        let path = dir.join("d.bin");
        let mut bytes = std::fs::read(&path).expect("read dir file");
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")),
            FORMAT_VERSION,
        );
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        bytes[60..68].fill(0);
        let crc = iq_storage::crc32(&bytes[..1020]);
        bytes[1020..1024].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write dir file");

        let mut reopened = IqTree::open(
            4,
            Metric::Euclidean,
            IqTreeOptions::default(),
            file_dev(&dir, "d.bin", false),
            file_dev(&dir, "q.bin", false),
            file_dev(&dir, "e.bin", false),
            &mut clock,
        )
        .expect("a v2 index still opens");
        assert!(reopened.is_read_only());
        assert_eq!(reopened.generation(), 0);
        assert_eq!(
            reopened
                .run(&mut clock, &Query::knn(&q, 5))
                .expect("valid query")
                .into_ranked()
                .0,
            expect,
            "queries still exact"
        );

        let err = reopened
            .insert(&mut clock, 9_999, &[0.5; 4])
            .expect_err("v2 indexes refuse updates");
        assert!(matches!(err, IqError::Superblock { .. }), "{err}");
        assert!(
            format!("{err}").contains("read-only"),
            "error names the cause: {err}"
        );
        let err = reopened
            .delete(&mut clock, 0, ds.point(0))
            .expect_err("v2 indexes refuse deletes");
        assert!(matches!(err, IqError::Superblock { .. }), "{err}");

        // And the WAL door is closed too.
        let err = match IqTree::open_with_wal(
            4,
            Metric::Euclidean,
            IqTreeOptions::default(),
            file_dev(&dir, "d.bin", false),
            file_dev(&dir, "q.bin", false),
            file_dev(&dir, "e.bin", false),
            Box::new(iq_storage::MemWal::new()),
            &mut clock,
        ) {
            Ok(_) => panic!("no WAL on a read-only index"),
            Err(e) => e,
        };
        assert!(matches!(err, IqError::Superblock { .. }), "{err}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Builds an `n`-point 4-d Euclidean index on 1 KiB `FileDevice`s in
    /// `dir` and returns the bytes of its directory file.
    fn build_forgeable(dir: &std::path::Path, n: usize) -> Vec<u8> {
        let ds = random_ds(n, 4, 95);
        let mut clock = SimClock::default();
        let mut it = ["d.bin", "q.bin", "e.bin"].into_iter();
        drop(IqTree::build(
            &ds,
            Metric::Euclidean,
            IqTreeOptions::default(),
            || file_dev(dir, it.next().expect("three"), true),
            &mut clock,
        ));
        std::fs::read(dir.join("d.bin")).expect("read dir file")
    }

    /// Writes `pristine` with `patch` at byte `at` as the directory file,
    /// recomputing the CRC of the 1024-byte physical block it lands in (the
    /// last 4 bytes of that block), so only the directory check can tell.
    fn forge(dir: &std::path::Path, pristine: &[u8], at: usize, patch: &[u8]) {
        let mut bytes = pristine.to_vec();
        bytes[at..at + patch.len()].copy_from_slice(patch);
        let block = at / 1024 * 1024;
        let crc = iq_storage::crc32(&bytes[block..block + 1020]);
        bytes[block + 1020..block + 1024].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(dir.join("d.bin"), &bytes).expect("write dir file");
    }

    fn open_forged(dir: &std::path::Path, dim: usize, metric: Metric) -> IqResult<IqTree> {
        IqTree::open(
            dim,
            metric,
            IqTreeOptions::default(),
            file_dev(dir, "d.bin", false),
            file_dev(dir, "q.bin", false),
            file_dev(dir, "e.bin", false),
            &mut SimClock::default(),
        )
    }

    fn verify_forged(dir: &std::path::Path) -> crate::verify::VerifyReport {
        crate::verify::verify_index(
            file_dev(dir, "d.bin", false),
            file_dev(dir, "q.bin", false),
            file_dev(dir, "e.bin", false),
            &mut SimClock::default(),
        )
    }

    /// A superblock whose page count makes `n_pages × entry bytes`
    /// overflow (2^62 × 60 wraps to 0, the second value to 44 bytes) is a
    /// typed error for `open` and a named problem for `verify`.
    #[test]
    fn forged_page_count_is_an_error_not_a_panic() {
        let dir = temp_dir("forged-count");
        let pristine = build_forgeable(&dir, 300);
        for n_pages in [1u64 << 62, 307_445_734_561_825_861] {
            forge(&dir, &pristine, 24, &n_pages.to_le_bytes());
            match open_forged(&dir, 4, Metric::Euclidean) {
                Ok(_) => panic!("{n_pages} pages opened"),
                Err(e) => assert!(matches!(e, IqError::Superblock { .. }), "{e}"),
            }
            let report = verify_forged(&dir);
            assert!(!report.is_clean(), "{n_pages} pages verified clean");
            assert!(
                report
                    .errors
                    .iter()
                    .any(|e| e.contains(&n_pages.to_string())),
                "{:?}",
                report.errors
            );
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A payload that fails its one CRC is corruption, reported by the
    /// payload's block range even when the forged byte lies in block 2.
    #[test]
    fn payload_checksum_mismatch_is_corruption_of_the_payload() {
        let dir = temp_dir("payload-crc");
        let pristine = build_forgeable(&dir, 5_000);
        let payload_blocks = pristine.len() / 1024 - 1;
        assert!(payload_blocks >= 3, "{payload_blocks} payload blocks");
        forge(
            &dir,
            &pristine,
            2 * 1024 + 100,
            &[pristine[2 * 1024 + 100] ^ 1],
        );
        let e = open_forged(&dir, 4, Metric::Euclidean)
            .err()
            .expect("a forged payload must not open");
        assert!(e.is_corruption(), "{e}");
        let msg = e.to_string();
        assert!(
            msg.contains(&format!("directory payload (blocks 1..={payload_blocks})")),
            "{msg}"
        );
        assert_eq!(verify_forged(&dir).errors.first(), Some(&msg));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// `open` and `verify` run one directory check, so they agree on every
    /// forged superblock field and on a forged payload byte: `open` fails
    /// exactly when `verify` reports a problem, and its error is one of
    /// `verify`'s. `open` is given the dimension and metric the forged
    /// superblock records, as `verify` has no other source.
    #[test]
    fn open_and_verify_agree_on_forged_directories() {
        let dir = temp_dir("forged-agree");
        // 1,000 points: pages with exact regions, so the exact-file length
        // is checked too.
        let pristine = build_forgeable(&dir, 1_000);
        let sb = Superblock::decode(&pristine[..1020]).expect("valid superblock");
        assert!(sb.exact_blocks > 0, "{sb:?}");
        let u32s = |v: u32| v.to_le_bytes().to_vec();
        let u64s = |v: u64| v.to_le_bytes().to_vec();
        let cases: Vec<(&str, usize, Vec<u8>)> = vec![
            ("magic", 0, b"XQTRIDX\0".to_vec()),
            ("future version", 8, u32s(99)),
            ("version 2", 8, u32s(2)),
            ("block size", 12, u32s(1016)),
            ("dimension 5", 16, u32s(5)),
            ("dimension 0", 16, u32s(0)),
            ("dimension u32::MAX", 16, u32s(u32::MAX)),
            ("metric L-inf", 20, u32s(1)),
            ("metric code 7", 20, u32s(7)),
            ("one page more", 24, u64s(sb.n_pages + 1)),
            ("no pages", 24, u64s(0)),
            ("2^62 pages", 24, u64s(1 << 62)),
            ("one point more", 32, u64s(sb.n_points + 1)),
            ("one quantized block more", 40, u64s(sb.quant_blocks + 1)),
            ("one quantized block less", 40, u64s(sb.quant_blocks - 1)),
            ("one exact block more", 48, u64s(sb.exact_blocks + 1)),
            ("one exact block less", 48, u64s(sb.exact_blocks - 1)),
            ("payload CRC", 56, u32s(sb.dir_crc ^ 1)),
            ("generation", 60, u64s(sb.generation + 5)),
            ("payload byte", 1024, vec![pristine[1024] ^ 0x40]),
        ];
        let mut failed = 0;
        for (name, at, patch) in &cases {
            forge(&dir, &pristine, *at, patch);
            let forged = std::fs::read(dir.join("d.bin")).expect("read dir file");
            let (dim, metric) = Superblock::decode(&forged[..1020])
                .map_or((4, Metric::Euclidean), |sb| (sb.dim as usize, sb.metric));
            let opened = open_forged(&dir, dim, metric);
            let report = verify_forged(&dir);
            assert_eq!(
                opened.is_err(),
                !report.is_clean(),
                "{name}: verify reports {:?}",
                report.errors
            );
            if let Err(e) = opened {
                failed += 1;
                assert!(
                    report.errors.contains(&e.to_string()),
                    "{name}: open says `{e}`, verify says {:?}",
                    report.errors
                );
            }
        }
        // Version 2, metric L-inf and generation leave a valid index.
        assert_eq!(failed, cases.len() - 3);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
