//! Offline integrity verification of an IQ-tree's three files.
//!
//! [`verify_index`] takes the three *raw* devices (as stored on disk),
//! wraps them in the same [`ChecksummedDevice`] the tree itself uses, and
//! scans every block of every level: per-block CRCs, then the superblock,
//! the directory payload CRC and per-entry metadata invariants through
//! the directory check [`crate::IqTree::open`] runs, the decodability
//! of every quantized page, and cross-level consistency (each page holds
//! exactly the point count its directory entry records, and the ids in its
//! exact region agree entry-for-entry with the ids in the quantized page —
//! both levels are written from the same iteration order on build and on
//! every update). The result is a [`VerifyReport`]
//! that pinpoints each corrupt block by level and index — the `iq verify`
//! CLI command prints it and exits nonzero when anything is wrong.

use crate::persist::{check_directory, read_superblock, Superblock};
use iq_quantize::{ExactPageCodec, EXACT_BITS};
use iq_storage::{BlockDevice, ChecksummedDevice, IqError, IqResult, SimClock};

/// Per-level scan outcome.
#[derive(Clone, Debug, Default)]
pub struct LevelReport {
    /// Level name (`"directory"`, `"quantized"`, `"exact"`).
    pub name: &'static str,
    /// Total blocks in the file.
    pub blocks: u64,
    /// Blocks whose per-block CRC32 failed (or that could not be read).
    pub corrupt_blocks: Vec<u64>,
}

impl LevelReport {
    /// Whether every block of this level verified.
    pub fn is_clean(&self) -> bool {
        self.corrupt_blocks.is_empty()
    }
}

/// What scanning a write-ahead-log image found ([`verify_wal`]).
#[derive(Clone, Debug, Default)]
pub struct WalReport {
    /// Total bytes in the log image.
    pub bytes: u64,
    /// Whole frames that verified (CRC + consecutive LSNs).
    pub frames: u64,
    /// Committed transactions in the valid prefix.
    pub committed_txns: u64,
    /// Frames of an unfinished (uncommitted) trailing transaction —
    /// recovery would discard these.
    pub uncommitted_frames: u64,
    /// Bytes past the last whole frame (a torn tail).
    pub torn_bytes: u64,
    /// Why the frame scan stopped early, if it did.
    pub stop_reason: Option<String>,
}

impl WalReport {
    /// Whether the log is wholly valid with no recovery work pending: no
    /// torn tail, no unfinished transaction, every frame checksummed. A
    /// log that recovery has already processed is always clean.
    pub fn is_clean(&self) -> bool {
        self.stop_reason.is_none() && self.uncommitted_frames == 0 && self.torn_bytes == 0
    }
}

/// Scans a WAL image with the same frame validation recovery applies,
/// reporting instead of truncating.
pub fn verify_wal(image: &[u8]) -> WalReport {
    let s = iq_wal::scan(image);
    WalReport {
        bytes: image.len() as u64,
        frames: s.frames,
        committed_txns: s.txns.len() as u64,
        uncommitted_frames: s.uncommitted.len() as u64,
        torn_bytes: s.torn_bytes,
        stop_reason: s.stop_reason,
    }
}

/// Everything [`verify_index`] found.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Per-level block scans: directory, quantized, exact.
    pub levels: Vec<LevelReport>,
    /// The decoded superblock, when block 0 was readable and valid.
    pub superblock: Option<Superblock>,
    /// Structural problems: superblock errors, directory payload CRC
    /// mismatch, invalid entries, undecodable pages.
    pub errors: Vec<String>,
    /// Quantized blocks that verified their CRC but do not decode as a
    /// page (possible after a torn write with a stale checksum).
    pub undecodable_pages: Vec<u64>,
    /// WAL frame scan, when [`verify_index_with_wal`] was given a log.
    pub wal: Option<WalReport>,
}

impl VerifyReport {
    /// Whether the index (and its WAL, when one was checked) is fully
    /// intact with no recovery work pending.
    pub fn is_clean(&self) -> bool {
        let wal_clean = match &self.wal {
            Some(w) => w.is_clean(),
            None => true,
        };
        self.levels.iter().all(LevelReport::is_clean)
            && self.errors.is_empty()
            && self.undecodable_pages.is_empty()
            && wal_clean
    }

    /// All corrupt blocks across levels as `(level name, block)` pairs.
    pub fn corrupt_blocks(&self) -> Vec<(&'static str, u64)> {
        self.levels
            .iter()
            .flat_map(|l| l.corrupt_blocks.iter().map(|&b| (l.name, b)))
            .collect()
    }
}

/// Scans every block of `dev`, returning the per-level report and the
/// outcome of reading each block (by index).
fn scan_level(
    name: &'static str,
    dev: &dyn BlockDevice,
    clock: &mut SimClock,
) -> (LevelReport, Vec<IqResult<Vec<u8>>>) {
    let blocks = dev.num_blocks();
    let mut report = LevelReport {
        name,
        blocks,
        corrupt_blocks: Vec::new(),
    };
    // One block at a time: a corrupt block must not mask the health of its
    // neighbors, and the simulated cost of a sequential per-block sweep
    // equals one ranged read anyway.
    let contents: Vec<_> = (0..blocks).map(|b| dev.read_to_vec(clock, b, 1)).collect();
    for (b, read) in contents.iter().enumerate() {
        if read.is_err() {
            report.corrupt_blocks.push(b as u64);
        }
    }
    (report, contents)
}

/// Verifies an index given its three raw (unwrapped) level devices.
///
/// The superblock and the directory go through the same check
/// [`crate::IqTree::open`] runs; each problem it records lands in
/// [`VerifyReport::errors`] as the text of the error `open` would return.
/// Never panics on corrupt input: every problem is recorded in the
/// returned [`VerifyReport`].
pub fn verify_index(
    dir: Box<dyn BlockDevice>,
    quant: Box<dyn BlockDevice>,
    exact: Box<dyn BlockDevice>,
    clock: &mut SimClock,
) -> VerifyReport {
    let dir = ChecksummedDevice::new(dir);
    let quant = ChecksummedDevice::new(quant);
    let exact = ChecksummedDevice::new(exact);

    let mut report = VerifyReport::default();
    let (dir_rep, dir_blocks) = scan_level("directory", &dir, clock);
    let (quant_rep, quant_blocks) = scan_level("quantized", &quant, clock);
    let (exact_rep, exact_blocks) = scan_level("exact", &exact, clock);
    report.levels = vec![dir_rep, quant_rep, exact_rep];

    let sb = read_superblock(dir_blocks.len() as u64, || {
        dir_blocks[0].clone().map_err(|e| IqError::Superblock {
            detail: format!("directory block 0 is unreadable: {e}"),
        })
    });
    let sb = match sb {
        Ok(sb) => sb,
        Err(e) => {
            report.errors.push(e.to_string());
            return report;
        }
    };
    report.superblock = Some(sb);
    let check = check_directory(
        &sb,
        dir.block_size(),
        dir.num_blocks(),
        quant.num_blocks(),
        exact.num_blocks(),
        |n| {
            let blocks = dir_blocks[1..=n as usize].iter().cloned();
            Ok(blocks.collect::<IqResult<Vec<_>>>()?.concat())
        },
    );
    report.errors = check.problems.iter().map(ToString::to_string).collect();
    let Some(codec) = check.codec else {
        return report;
    };

    // Every quantized block must decode as a page (the directory maps
    // pages 1:1 onto quantized blocks).
    for (b, bytes) in quant_blocks.iter().enumerate() {
        if let Ok(bytes) = bytes {
            if codec.try_view(bytes).is_err() {
                report.undecodable_pages.push(b as u64);
            }
        }
    }

    // Cross-level consistency for every decodable directory entry: the
    // page must hold exactly `count` entries, and for pages with a
    // separate exact region the level-3 ids must agree with the level-2
    // ids entry for entry. Blocks that already failed the CRC scan are
    // skipped silently — they are reported above.
    let dim = codec.dim();
    let exact_codec = ExactPageCodec::new(dim);
    let entry_len = exact_codec.entry_bytes();
    let mut coords = vec![0.0f32; dim];
    for (e, meta) in &check.entries {
        let Some(Ok(bytes)) = quant_blocks.get(meta.quant_block as usize) else {
            continue;
        };
        let Ok(view) = codec.try_view(bytes) else {
            continue;
        };
        if view.len() != meta.count as usize {
            report.errors.push(format!(
                "directory entry {e}: records {} points, page at block {} holds {}",
                meta.count,
                meta.quant_block,
                view.len()
            ));
            continue;
        }
        if meta.g >= EXACT_BITS || meta.count == 0 {
            continue;
        }
        let region: Option<Vec<u8>> = (meta.exact_start
            ..meta.exact_start + u64::from(meta.exact_blocks))
            .map(|b| exact_blocks.get(b as usize)?.as_ref().ok().cloned())
            .collect::<Option<Vec<Vec<u8>>>>()
            .map(|v| v.concat());
        let Some(region) = region else { continue };
        if region.len() < meta.count as usize * entry_len {
            report.errors.push(format!(
                "directory entry {e}: exact region of {} blocks too short for {} entries",
                meta.exact_blocks, meta.count
            ));
            continue;
        }
        for i in 0..meta.count as usize {
            let entry = &region[i * entry_len..(i + 1) * entry_len];
            match exact_codec.try_decode_entry_into(entry, &mut coords) {
                Ok(id) if id == view.id(i) => {}
                Ok(id) => report.errors.push(format!(
                    "directory entry {e}: exact entry {i} has id {id}, quantized page has {}",
                    view.id(i)
                )),
                Err(err) => report
                    .errors
                    .push(format!("directory entry {e}: exact entry {i}: {err}")),
            }
        }
    }
    report
}

/// [`verify_index`] plus WAL frame validation: the log image is scanned
/// with the same checks recovery applies (frame CRCs, consecutive LSNs,
/// commit-frame boundaries) and the result lands in
/// [`VerifyReport::wal`]. A torn tail or an unfinished transaction makes
/// the report unclean — it means a crash happened and recovery
/// ([`crate::IqTree::open_with_wal`]) has not run yet.
pub fn verify_index_with_wal(
    dir: Box<dyn BlockDevice>,
    quant: Box<dyn BlockDevice>,
    exact: Box<dyn BlockDevice>,
    wal_image: &[u8],
    clock: &mut SimClock,
) -> VerifyReport {
    let mut report = verify_index(dir, quant, exact, clock);
    report.wal = Some(verify_wal(wal_image));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::random_ds;
    use crate::{IqTree, IqTreeOptions};
    use iq_geometry::Metric;
    use iq_storage::{FaultConfig, FaultInjectingDevice, MemDevice};
    use std::sync::{Arc, Mutex};

    /// A MemDevice behind a shared handle, so the test keeps access to the
    /// raw (physical) blocks after handing the device to the tree.
    #[derive(Clone)]
    struct SharedDev(Arc<Mutex<MemDevice>>);

    impl SharedDev {
        fn new(bs: usize) -> Self {
            Self(Arc::new(Mutex::new(MemDevice::new(bs))))
        }
    }

    impl BlockDevice for SharedDev {
        fn block_size(&self) -> usize {
            self.0.lock().expect("lock").block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.0.lock().expect("lock").num_blocks()
        }
        fn read_blocks(&self, clock: &mut SimClock, start: u64, buf: &mut [u8]) -> IqResult<()> {
            self.0.lock().expect("lock").read_blocks(clock, start, buf)
        }
        fn append(&mut self, clock: &mut SimClock, data: &[u8]) -> IqResult<u64> {
            self.0.lock().expect("lock").append(clock, data)
        }
        fn write_blocks(&mut self, clock: &mut SimClock, start: u64, data: &[u8]) -> IqResult<()> {
            self.0
                .lock()
                .expect("lock")
                .write_blocks(clock, start, data)
        }
        fn device_id(&self) -> u64 {
            self.0.lock().expect("lock").device_id()
        }
    }

    /// Builds an index over shared MemDevices; returns handles to the raw
    /// bytes (directory, quantized, exact) plus the page count.
    fn build_raw(n: usize, dim: usize, bs: usize) -> (Vec<SharedDev>, usize) {
        let ds = random_ds(n, dim, 44);
        let mut clock = SimClock::default();
        let handles: std::cell::RefCell<Vec<SharedDev>> = std::cell::RefCell::new(Vec::new());
        let tree = IqTree::build(
            &ds,
            Metric::Euclidean,
            IqTreeOptions::default(),
            || {
                let dev = SharedDev::new(bs);
                handles.borrow_mut().push(dev.clone());
                Box::new(dev) as Box<dyn BlockDevice>
            },
            &mut clock,
        );
        let pages = tree.num_pages();
        drop(tree);
        (handles.into_inner(), pages)
    }

    /// Wraps a shared handle so a test can plant permanent bit flips on
    /// chosen physical blocks before verification.
    fn faulty(dev: &SharedDev, corrupt: &[u64]) -> Box<dyn BlockDevice> {
        let f = FaultInjectingDevice::new(Box::new(dev.clone()), FaultConfig::none(1));
        for &b in corrupt {
            f.corrupt_block(b);
        }
        Box::new(f)
    }

    #[test]
    fn clean_index_verifies_clean() {
        let (devs, pages) = build_raw(1_000, 4, 512);
        let mut clock = SimClock::default();
        let report = verify_index(
            faulty(&devs[0], &[]),
            faulty(&devs[1], &[]),
            faulty(&devs[2], &[]),
            &mut clock,
        );
        assert!(report.is_clean(), "{report:?}");
        let sb = report.superblock.expect("superblock decodes");
        assert_eq!(sb.n_pages as usize, pages);
        assert_eq!(sb.n_points, 1_000);
        assert_eq!(report.levels.len(), 3);
        assert_eq!(report.levels[1].blocks as usize, pages);
    }

    #[test]
    fn corrupt_quant_block_is_pinpointed() {
        let (devs, pages) = build_raw(1_000, 4, 512);
        assert!(pages >= 3);
        let mut clock = SimClock::default();
        let report = verify_index(
            faulty(&devs[0], &[]),
            faulty(&devs[1], &[2]),
            faulty(&devs[2], &[]),
            &mut clock,
        );
        assert!(!report.is_clean());
        assert_eq!(report.corrupt_blocks(), vec![("quantized", 2)]);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
    }

    #[test]
    fn mismatched_exact_ids_are_reported() {
        // Forge an exact-region id *through* the checksum layer: the block
        // CRC stays valid, so only the cross-level id check can catch it.
        let (devs, _) = build_raw(1_000, 4, 512);
        let mut clock = SimClock::default();
        let mut exact = ChecksummedDevice::new(Box::new(devs[2].clone()) as Box<dyn BlockDevice>);
        assert!(exact.num_blocks() > 0, "expected quantized pages");
        let mut bytes = exact.read_to_vec(&mut clock, 0, 1).expect("readable");
        for b in &mut bytes[0..4] {
            *b ^= 0xFF; // the first entry's id
        }
        exact.write_blocks(&mut clock, 0, &bytes).expect("writable");
        drop(exact);
        let report = verify_index(
            faulty(&devs[0], &[]),
            faulty(&devs[1], &[]),
            faulty(&devs[2], &[]),
            &mut clock,
        );
        assert!(!report.is_clean());
        assert!(
            report.errors.iter().any(|e| e.contains("exact entry 0")),
            "{:?}",
            report.errors
        );
    }

    #[test]
    fn corrupt_superblock_is_reported() {
        let (devs, _) = build_raw(500, 3, 512);
        let mut clock = SimClock::default();
        let report = verify_index(
            faulty(&devs[0], &[0]),
            faulty(&devs[1], &[]),
            faulty(&devs[2], &[]),
            &mut clock,
        );
        assert!(!report.is_clean());
        assert!(report.superblock.is_none());
        assert!(
            report.errors.iter().any(|e| e.contains("superblock")),
            "{:?}",
            report.errors
        );
    }
}
