//! The IQ-tree: a compressed index for high-dimensional data spaces
//! (Berchtold, Böhm, Jagadish, Kriegel, Sander — ICDE 2000).
//!
//! Three levels in three files (Figure 3 of the paper):
//!
//! 1. a **flat directory** of exact MBRs, scanned sequentially at the start
//!    of every query,
//! 2. **quantized data pages** of one block each, holding the points of a
//!    partition as grid-cell numbers relative to the page MBR — with a
//!    resolution `g` (bits per dimension) chosen *per page* by a cost model
//!    (Independent Quantization), and
//! 3. **exact data pages** of variable size, consulted only when a query
//!    cannot be decided on an approximation ("refinement"). Pages quantized
//!    at 32 bits store exact coordinates directly and skip level 3.
//!
//! Nearest-neighbor search combines the Hjaltason/Samet best-first descent
//! with the paper's *time-optimized page access strategy* (Section 2.1):
//! around the pivot page, neighboring pages in disk order are loaded in the
//! same sweep whenever their access probability (Section 2.2) makes
//! over-reading cheaper than a probable later seek.

#![forbid(unsafe_code)]

pub mod build;
pub mod durability;
pub mod maintain;
pub mod persist;
pub mod search;
pub mod update;
pub mod verify;

use build::{optimize_partitions, OptimizeTrace, SolutionPage};
pub use durability::RecoveryReport;
use iq_cost::{DirectoryParams, RefineParams};
use iq_geometry::{bulk_partition, Dataset, Mbr, Metric};
use iq_quantize::{ExactPageCodec, QuantizedPageCodec, EXACT_BITS};
use iq_storage::{
    read_to_vec_retry, BlockBuffer, BlockDevice, DeviceStack, IqError, IqResult, SimClock,
};
use iq_wal::{Level, WalRecord};

/// Construction and search options.
#[derive(Clone, Copy, Debug)]
pub struct IqTreeOptions {
    /// Use independent quantization (`false` stores every page exactly —
    /// the "no quantization" ablation of Figure 7).
    pub quantize: bool,
    /// Use the time-optimized page access strategy (`false` loads one page
    /// per random access — the "standard NN search" ablation of Figure 7).
    pub scheduled_io: bool,
    /// Correlation fractal dimension of the data for the cost model;
    /// `None` assumes uniformity (`D_F = d`). Estimate it with
    /// `iq_data::correlation_dimension_auto` for real data.
    pub fractal_dim: Option<f64>,
    /// Put an LRU buffer pool of this many block frames in front of each
    /// of the three level files ([`iq_storage::CachedDevice`]). `None` (the
    /// default) keeps the paper's cold-query cost model: every block
    /// access pays the disk. A block the pool holds is free to read, so
    /// the scheduled strategy plans no run around it.
    pub cache_blocks: Option<usize>,
    /// Threads for the CPU-bound page-encoding stage of construction
    /// (`0` = one per available core). Output bytes are identical for every
    /// value — parallelism changes build wall-clock, never the index.
    pub build_threads: usize,
}

impl Default for IqTreeOptions {
    fn default() -> Self {
        Self {
            quantize: true,
            scheduled_io: true,
            fractal_dim: None,
            cache_blocks: None,
            build_threads: 0,
        }
    }
}

/// Wraps a raw device in the stack every level file lives behind
/// ([`DeviceStack`]): per-block CRC32 checksumming verifying every read
/// (innermost, so cached frames always hold verified bytes), then an
/// optional buffer pool. Callers see the *logical* block size — the
/// physical one minus the checksum trailer. Transient-fault retries are
/// not a layer of the stack: every read helper retries under the one
/// default policy ([`iq_storage::read_to_vec_retry`] and the runs of
/// [`iq_storage::fetch::fetch_blocks`]), at the call sites that pay the
/// backoff.
///
/// When the global metrics registry is enabled at construction time
/// (`iq_obs::global().set_enabled(true)` *before* build/open), every stage
/// boundary additionally gets an [`iq_storage::ObservedDevice`] reporting
/// per-layer latency and traffic as `dev_<level>_raw_*` (below the
/// checksum), `dev_<level>_checksum_*` (verified reads) and
/// `dev_<level>_cache_*` (what the tree sees through the buffer pool).
/// With the registry disabled no observation layer is inserted at all, so
/// the hot path keeps its exact pre-observability shape.
fn wrap_device(
    dev: Box<dyn BlockDevice>,
    cache_blocks: Option<usize>,
    level: &str,
) -> Box<dyn BlockDevice> {
    let observed = iq_obs::global().enabled();
    let mut stack = DeviceStack::new(dev);
    if observed {
        stack = stack.observe(&format!("{level}_raw"));
    }
    stack = stack.checksum();
    if observed {
        stack = stack.observe(&format!("{level}_checksum"));
    }
    if let Some(frames) = cache_blocks {
        stack = stack.cache(frames);
        if observed {
            stack = stack.observe(&format!("{level}_cache"));
        }
    }
    stack.build()
}

/// Directory entry: everything the first level stores about one quantized
/// data page.
#[derive(Clone, Debug)]
pub struct PageMeta {
    /// Exact MBR of the page's points.
    pub mbr: Mbr,
    /// Quantization resolution in bits per dimension (32 = exact).
    pub g: u32,
    /// Number of points in the page.
    pub count: u32,
    /// Block index of the quantized page in the second-level file.
    pub quant_block: u64,
    /// Start block of the exact region in the third-level file
    /// (unused when `g == 32`).
    pub exact_start: u64,
    /// Length of the exact region in blocks (0 when `g == 32`).
    pub exact_blocks: u32,
}

/// The IQ-tree.
///
/// # Example
///
/// ```
/// use iq_engine::{AccessMethod, Query};
/// use iq_geometry::{Dataset, Metric};
/// use iq_storage::{MemDevice, SimClock};
/// use iq_tree::{IqTree, IqTreeOptions};
///
/// // A toy 2-d data set.
/// let ds = Dataset::from_flat(2, (0..200).map(|i| i as f32 / 200.0).collect());
/// let mut clock = SimClock::default();
/// let mut tree = IqTree::build(
///     &ds,
///     Metric::Euclidean,
///     IqTreeOptions::default(),
///     || Box::new(MemDevice::new(512)),
///     &mut clock,
/// );
/// let (hits, _) = tree.run(&mut clock, &Query::knn(&[0.33, 0.34], 1))?.into_ranked();
/// let (id, dist) = hits[0];
/// assert!(dist < 0.1);
/// assert!((id as usize) < ds.len());
/// // Dynamic updates:
/// tree.insert(&mut clock, 999, &[0.5, 0.5])?;
/// let (hits, _) = tree.run(&mut clock, &Query::knn(&[0.5, 0.5], 1))?.into_ranked();
/// assert_eq!(hits[0].0, 999);
/// # Ok::<(), iq_storage::IqError>(())
/// ```
pub struct IqTree {
    dim: usize,
    metric: Metric,
    opts: IqTreeOptions,
    codec: QuantizedPageCodec,
    exact_codec: ExactPageCodec,
    dir: Box<dyn BlockDevice>,
    quant: Box<dyn BlockDevice>,
    exact: Box<dyn BlockDevice>,
    pages: Vec<PageMeta>,
    /// Serialized image of the directory file (kept in sync with `pages`;
    /// updates rewrite only the touched blocks).
    dir_bytes: Vec<u8>,
    n: usize,
    refine_params: RefineParams,
    dir_params: DirectoryParams,
    trace: OptimizeTrace,
    /// Blocks orphaned in the exact file by updates (reclaimable by a
    /// rebuild or [`IqTree::checkpoint`]).
    wasted_exact_blocks: u64,
    /// Write-ahead log; when attached, every mutation stages, logs, syncs
    /// and only then applies (see [`durability`]).
    wal: Option<iq_wal::Wal>,
    /// The open transaction, if an update is staging writes.
    txn: Option<durability::Txn>,
    /// Superblock generation: bumped by every checkpoint and rebuild.
    generation: u64,
    /// Opened from an older on-disk format: reads fine, refuses mutations.
    read_only: bool,
    /// A durably committed transaction failed to apply to the base files;
    /// mutations are refused until a reopen replays the log.
    poisoned: bool,
}

// Queries take `&self`, so a tree behind an `Arc` (or borrowed into scoped
// threads, as `run_threaded` does) must be shareable. Guarded at compile
// time: a non-`Sync` field would break `run_threaded` and every concurrent
// caller.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<IqTree>();
};

/// Serialized directory entry size: MBR + (g, count) + page references.
pub(crate) fn dir_entry_bytes(dim: usize) -> usize {
    8 * dim + 4 + 4 + 8 + 8 + 4
}

/// The one directory-entry codec, used by build, patch, open and verify.
impl PageMeta {
    /// Appends the [`dir_entry_bytes`]`(dim)`-byte encoding: the `d` lower
    /// and `d` upper MBR bounds (`f32`), then `g`, `count`, `quant_block`,
    /// `exact_start` and `exact_blocks`, all little-endian.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        for x in self.mbr.lbs().iter().chain(self.mbr.ubs()) {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out.extend_from_slice(&self.g.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.quant_block.to_le_bytes());
        out.extend_from_slice(&self.exact_start.to_le_bytes());
        out.extend_from_slice(&self.exact_blocks.to_le_bytes());
    }

    /// Decodes one [`Self::encode`]d entry of `codec.dim()` dimensions and
    /// checks it against the index it belongs to: an MBR with `lb <= ub`
    /// in every dimension, `g` in `1..=32`, at most a page's capacity of
    /// points at `g`, and page references inside the level files `sb`
    /// records. The message names the first check that fails.
    pub(crate) fn decode(
        entry: &[u8],
        codec: &QuantizedPageCodec,
        sb: &persist::Superblock,
    ) -> Result<Self, String> {
        let dim = codec.dim();
        debug_assert_eq!(entry.len(), dir_entry_bytes(dim));
        if dim == 0 {
            return Err("MBR has no dimensions".into());
        }
        let (bounds, tail) = entry.split_at(8 * dim);
        let coords: Vec<f32> = bounds
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
            .collect();
        let (lb, ub) = coords.split_at(dim);
        let inverted = |i: usize| lb[i].is_nan() || ub[i].is_nan() || lb[i] > ub[i];
        if let Some(i) = (0..dim).find(|&i| inverted(i)) {
            return Err(format!(
                "MBR bounds [{}, {}] in dimension {i}",
                lb[i], ub[i]
            ));
        }
        let u32_at = |k: usize| u32::from_le_bytes(tail[k..k + 4].try_into().expect("4 bytes"));
        let u64_at = |k: usize| u64::from_le_bytes(tail[k..k + 8].try_into().expect("8 bytes"));
        let (g, count) = (u32_at(0), u32_at(4));
        let (quant_block, exact_start, exact_blocks) = (u64_at(8), u64_at(16), u32_at(24));
        if !(1..=EXACT_BITS).contains(&g) {
            return Err(format!("resolution g = {g} outside 1..=32"));
        }
        if count as usize > codec.capacity(g) {
            return Err(format!("{count} points exceed page capacity at {g} bits"));
        }
        if quant_block >= sb.quant_blocks {
            return Err(format!(
                "quantized block {quant_block} outside file of {} blocks",
                sb.quant_blocks
            ));
        }
        let exact_end = exact_start.checked_add(u64::from(exact_blocks));
        if g < EXACT_BITS && exact_end.is_none_or(|end| end > sb.exact_blocks) {
            return Err(format!(
                "exact region [{exact_start}, +{exact_blocks}) outside file of {} blocks",
                sb.exact_blocks
            ));
        }
        Ok(Self {
            mbr: Mbr::from_bounds(lb.to_vec(), ub.to_vec()),
            g,
            count,
            quant_block,
            exact_start,
            exact_blocks,
        })
    }
}

impl IqTree {
    /// Bulk-loads an IQ-tree over `ds`.
    ///
    /// `make_dev` is called three times to create the directory, quantized
    /// and exact files (all three must share one block size).
    ///
    /// # Panics
    /// Panics if `ds` is empty or the devices disagree on block size.
    pub fn build(
        ds: &Dataset,
        metric: Metric,
        opts: IqTreeOptions,
        make_dev: impl FnMut() -> Box<dyn BlockDevice>,
        clock: &mut SimClock,
    ) -> Self {
        Self::build_impl(ds, None, metric, opts, make_dev, clock)
    }

    /// Like [`IqTree::build`], but stores `ids[row]` as the identifier of
    /// dataset row `row` (used by [`IqTree::rebuild`] to preserve ids).
    ///
    /// # Panics
    /// Panics if `ids.len() != ds.len()`.
    pub fn build_with_ids(
        ds: &Dataset,
        ids: &[u32],
        metric: Metric,
        opts: IqTreeOptions,
        make_dev: impl FnMut() -> Box<dyn BlockDevice>,
        clock: &mut SimClock,
    ) -> Self {
        assert_eq!(ids.len(), ds.len(), "one id per point");
        Self::build_impl(ds, Some(ids), metric, opts, make_dev, clock)
    }

    fn build_impl(
        ds: &Dataset,
        ids: Option<&[u32]>,
        metric: Metric,
        opts: IqTreeOptions,
        mut make_dev: impl FnMut() -> Box<dyn BlockDevice>,
        clock: &mut SimClock,
    ) -> Self {
        assert!(!ds.is_empty(), "cannot build an IQ-tree over an empty set");
        let dim = ds.dim();
        let dir = wrap_device(make_dev(), opts.cache_blocks, "dir");
        let quant = wrap_device(make_dev(), opts.cache_blocks, "quant");
        let exact = wrap_device(make_dev(), opts.cache_blocks, "exact");
        assert!(
            dir.block_size() == quant.block_size() && quant.block_size() == exact.block_size(),
            "all three files must share one block size"
        );
        let codec = QuantizedPageCodec::new(dim, quant.block_size());
        let exact_codec = ExactPageCodec::new(dim);
        let fractal = opts.fractal_dim.unwrap_or(dim as f64);
        let refine_params = RefineParams::fractal(metric, dim, fractal, ds.len());
        let mut dir_params = DirectoryParams::new(metric, dim, fractal, ds.len());
        dir_params.dir_entry_bytes = dir_entry_bytes(dim);

        let initial = bulk_partition(ds, codec.capacity(1));
        let (solution, trace) = optimize_partitions(
            ds,
            &codec,
            &refine_params,
            &dir_params,
            clock.disk(),
            initial,
            opts.quantize,
        );

        let mut tree = Self {
            dim,
            metric,
            opts,
            codec,
            exact_codec,
            dir,
            quant,
            exact,
            pages: Vec::with_capacity(solution.len()),
            dir_bytes: Vec::new(),
            n: ds.len(),
            refine_params,
            dir_params,
            trace,
            wasted_exact_blocks: 0,
            wal: None,
            txn: None,
            generation: 0,
            read_only: false,
            poisoned: false,
        };
        tree.write_pages(ds, ids, solution, clock);
        tree.rewrite_directory(clock).expect("write directory");
        tree
    }

    fn write_pages(
        &mut self,
        ds: &Dataset,
        id_map: Option<&[u32]>,
        solution: Vec<SolutionPage>,
        clock: &mut SimClock,
    ) {
        // Encode all pages in parallel (pure CPU work), then append the
        // results to the level files strictly in page order — the device
        // images are byte-for-byte those of a sequential build.
        let encoded = build::encode_pages(
            ds,
            id_map,
            &solution,
            &self.codec,
            &self.exact_codec,
            self.opts.build_threads,
        );
        for (page, enc) in solution.into_iter().zip(encoded) {
            let quant_block = self
                .quant
                .append(clock, &enc.quant)
                .expect("append quantized page");
            let (exact_start, exact_blocks) = if page.g < EXACT_BITS {
                let start = self
                    .exact
                    .append(clock, &enc.exact)
                    .expect("append exact page");
                (
                    start,
                    enc.exact.len().div_ceil(self.exact.block_size()) as u32,
                )
            } else {
                (0, 0)
            };
            self.pages.push(PageMeta {
                mbr: page.mbr,
                g: page.g,
                count: page.ids.len() as u32,
                quant_block,
                exact_start,
                exact_blocks,
            });
        }
    }

    /// The current header state, serialized into logical block 0 of the
    /// directory file by [`Self::write_superblock`]. Level lengths come
    /// from [`Self::level_blocks`], so a superblock staged inside a
    /// transaction already describes the post-apply files.
    fn superblock(&self) -> persist::Superblock {
        persist::Superblock {
            version: persist::FORMAT_VERSION,
            block_size: self.dir.block_size() as u32,
            dim: self.dim as u32,
            metric: self.metric,
            n_pages: self.pages.len() as u64,
            n_points: self.n as u64,
            quant_blocks: self.level_blocks(Level::Quant),
            exact_blocks: self.level_blocks(Level::Exact),
            dir_crc: iq_storage::crc32(&self.dir_bytes),
            generation: self.generation,
        }
    }

    pub(crate) fn level_dev_mut(&mut self, level: Level) -> &mut dyn BlockDevice {
        match level {
            Level::Dir => self.dir.as_mut(),
            Level::Quant => self.quant.as_mut(),
            Level::Exact => self.exact.as_mut(),
        }
    }

    /// Length of a level file in logical blocks — the *virtual* length
    /// while a transaction is staging writes, the device length otherwise.
    pub(crate) fn level_blocks(&self, level: Level) -> u64 {
        if let Some(txn) = self.txn.as_ref() {
            return txn.len[level as usize];
        }
        match level {
            Level::Dir => self.dir.num_blocks(),
            Level::Quant => self.quant.num_blocks(),
            Level::Exact => self.exact.num_blocks(),
        }
    }

    /// Writes whole blocks at `block` — staged as a WAL record while a
    /// transaction is open, directly to the device otherwise.
    pub(crate) fn dev_write(
        &mut self,
        clock: &mut SimClock,
        level: Level,
        block: u64,
        data: &[u8],
    ) -> IqResult<()> {
        debug_assert_eq!(data.len() % self.block_size(), 0);
        if let Some(txn) = self.txn.as_mut() {
            txn.records.push(WalRecord::PageWrite {
                level,
                block,
                bytes: data.to_vec(),
            });
            Ok(())
        } else {
            self.level_dev_mut(level).write_blocks(clock, block, data)
        }
    }

    /// Appends to a level file, returning the start block — against the
    /// virtual length while a transaction is open.
    pub(crate) fn dev_append(
        &mut self,
        clock: &mut SimClock,
        level: Level,
        data: &[u8],
    ) -> IqResult<u64> {
        if let Some(txn) = self.txn.as_mut() {
            let bs = self.codec.block_size();
            let start = txn.len[level as usize];
            txn.len[level as usize] = start + data.len().div_ceil(bs) as u64;
            txn.records.push(WalRecord::PageAppend {
                level,
                block: start,
                bytes: data.to_vec(),
            });
            Ok(start)
        } else {
            self.level_dev_mut(level).append(clock, data)
        }
    }

    /// Truncates a level file to `nblocks`.
    pub(crate) fn dev_truncate(
        &mut self,
        clock: &mut SimClock,
        level: Level,
        nblocks: u64,
    ) -> IqResult<()> {
        if let Some(txn) = self.txn.as_mut() {
            txn.len[level as usize] = nblocks;
            txn.records
                .push(WalRecord::TruncateLevel { level, nblocks });
            Ok(())
        } else {
            self.level_dev_mut(level).truncate_blocks(clock, nblocks)
        }
    }

    /// Writes the superblock. Always called *after* the entry payload it
    /// describes, so a crash mid-update leaves a header that at worst
    /// fails its CRC check instead of one pointing at unwritten entries.
    fn write_superblock(&mut self, clock: &mut SimClock) -> IqResult<()> {
        let block = self.superblock().encode(self.dir.block_size());
        self.dev_write(clock, Level::Dir, 0, &block)
    }

    /// Rewrites the whole directory file (build time and bulk maintenance):
    /// entry payload in logical blocks 1.., then the superblock.
    fn rewrite_directory(&mut self, clock: &mut SimClock) -> IqResult<()> {
        let mut bytes = Vec::with_capacity(self.pages.len() * dir_entry_bytes(self.dim));
        for meta in &self.pages {
            meta.encode(&mut bytes);
        }
        let bs = self.dir.block_size();
        bytes.resize(bytes.len().div_ceil(bs) * bs, 0);
        if self.level_blocks(Level::Dir) == 0 {
            // Fresh file: reserve block 0 for the superblock.
            self.dev_append(clock, Level::Dir, &vec![0u8; bs])?;
        }
        let have = (self.level_blocks(Level::Dir) as usize - 1) * bs;
        let split = have.min(bytes.len());
        if split > 0 {
            self.dev_write(clock, Level::Dir, 1, &bytes[..split])?;
        }
        if split < bytes.len() {
            self.dev_append(clock, Level::Dir, &bytes[split..])?;
        }
        self.dir_bytes = bytes;
        self.write_superblock(clock)
    }

    /// Updates the serialized directory for entry `idx`, writes the
    /// touched block(s) and refreshes the superblock (whose point count
    /// and payload CRC change with every patch).
    fn patch_dir_entry(&mut self, clock: &mut SimClock, idx: usize) -> IqResult<()> {
        let eb = dir_entry_bytes(self.dim);
        let bs = self.dir.block_size();
        let start_byte = idx * eb;
        if start_byte + eb > self.dir_bytes.len() {
            // Appending a brand-new entry: rewrite wholesale (rare).
            return self.rewrite_directory(clock);
        }
        let mut entry = Vec::with_capacity(eb);
        self.pages[idx].encode(&mut entry);
        self.dir_bytes[start_byte..start_byte + eb].copy_from_slice(&entry);
        let first_block = start_byte / bs;
        let last_block = (start_byte + eb - 1) / bs;
        let lo = first_block * bs;
        let hi = ((last_block + 1) * bs).min(self.dir_bytes.len());
        let patch = self.dir_bytes[lo..hi].to_vec();
        // Entry payload starts at logical block 1.
        self.dev_write(clock, Level::Dir, first_block as u64 + 1, &patch)?;
        self.write_superblock(clock)
    }

    /// Dimensionality of the indexed points ([`AccessMethod::dim`]
    /// without the trait in scope).
    ///
    /// [`AccessMethod::dim`]: iq_engine::AccessMethod::dim
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The metric queries use ([`AccessMethod::metric`] without the trait
    /// in scope).
    ///
    /// [`AccessMethod::metric`]: iq_engine::AccessMethod::metric
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Number of quantized data pages.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// The directory entries (read-only view).
    pub fn pages(&self) -> &[PageMeta] {
        &self.pages
    }

    /// The optimizer's cost trace from construction.
    pub fn optimize_trace(&self) -> &OptimizeTrace {
        &self.trace
    }

    /// Histogram of quantization resolutions: `(g, number of pages)`.
    pub fn bits_histogram(&self) -> Vec<(u32, usize)> {
        let mut counts = std::collections::BTreeMap::new();
        for p in &self.pages {
            *counts.entry(p.g).or_insert(0usize) += 1;
        }
        counts.into_iter().collect()
    }

    /// The cost model's estimate of the average NN query cost for the
    /// *current* page configuration (eq 23 over live pages) — the quantity
    /// the optimizer minimized at build time, re-evaluated after updates.
    /// Comparing it with the build-time optimum tells maintenance when a
    /// [`IqTree::rebuild`] is worthwhile.
    pub fn estimated_query_cost(&self, disk: &iq_storage::DiskModel) -> f64 {
        let live = self.pages.iter().filter(|p| p.count > 0);
        let mut total_var = 0.0;
        let mut n_pages = 0usize;
        for meta in live {
            total_var += iq_cost::refinement_cost(
                &self.refine_params,
                disk,
                &meta.mbr.sides(),
                meta.count as usize,
                meta.g,
            );
            n_pages += 1;
        }
        iq_cost::directory::total_cost(&self.dir_params, disk, n_pages, total_var)
    }

    /// Exact-file blocks orphaned by dynamic updates.
    pub fn wasted_exact_blocks(&self) -> u64 {
        self.wasted_exact_blocks
    }

    /// Storage footprint of the three levels, in blocks:
    /// `(directory, quantized, exact)`.
    pub fn storage_blocks(&self) -> (u64, u64, u64) {
        (
            self.dir.num_blocks(),
            self.quant.num_blocks(),
            self.exact.num_blocks(),
        )
    }

    /// Size of the quantized (second) level relative to storing all points
    /// exactly — the compression the independent quantization achieves on
    /// the level every query scans.
    pub fn compression_ratio(&self) -> f64 {
        let quant_bytes = self.quant.num_blocks() as f64 * self.block_size() as f64;
        let exact_bytes = (self.n * 4 * self.dim) as f64;
        if exact_bytes == 0.0 {
            return 1.0;
        }
        quant_bytes / exact_bytes
    }

    pub(crate) fn options(&self) -> &IqTreeOptions {
        &self.opts
    }

    pub(crate) fn codec(&self) -> &QuantizedPageCodec {
        &self.codec
    }

    pub(crate) fn exact_codec(&self) -> &ExactPageCodec {
        &self.exact_codec
    }

    pub(crate) fn refine_params(&self) -> &RefineParams {
        &self.refine_params
    }

    pub(crate) fn dir_params(&self) -> &DirectoryParams {
        &self.dir_params
    }

    pub(crate) fn quant_dev(&self) -> &dyn BlockDevice {
        self.quant.as_ref()
    }

    pub(crate) fn exact_dev(&self) -> &dyn BlockDevice {
        self.exact.as_ref()
    }

    pub(crate) fn block_size(&self) -> usize {
        self.codec.block_size()
    }

    pub(crate) fn set_page_meta(&mut self, idx: usize, meta: PageMeta) {
        self.pages[idx] = meta;
    }

    pub(crate) fn push_page_meta(&mut self, meta: PageMeta) {
        self.pages.push(meta);
    }

    pub(crate) fn bump_len(&mut self, delta: i64) {
        self.n = (self.n as i64 + delta) as usize;
    }

    pub(crate) fn waste_exact(&mut self, blocks: u64) {
        self.wasted_exact_blocks += blocks;
        iq_obs::global()
            .gauge("wasted_exact_blocks")
            .set(self.wasted_exact_blocks as f64);
    }

    /// Charges the first-level directory scan (every query starts with it):
    /// one sequential sweep of the directory file, unless `read` is false
    /// (a micro-batch sweeps it once for all its queries), and the
    /// per-entry MINDIST computations.
    pub(crate) fn charge_directory_scan(&self, clock: &mut SimClock, read: bool) {
        let nblocks = self.dir.num_blocks();
        if read && nblocks > 0 {
            // One sequential sweep. The in-memory directory is
            // authoritative after open, so a corrupt block here only
            // surfaces in the clock's corruption statistics.
            let _ = read_to_vec_retry(self.dir.as_ref(), clock, 0, nblocks);
        }
        clock.charge_dist_evals(self.dim, self.pages.len() as u64);
    }

    /// Refines the point at `slot` within page `page_idx` (Section 3.2):
    /// decodes its exact coordinates into `coords` through the query's
    /// exact-block buffer. Only blocks the buffer lacks are read — a
    /// random access into the third-level file, retried on transient
    /// faults — and they are kept only when the read succeeds. Fails when
    /// the entry stays unreadable or does not decode.
    pub(crate) fn read_exact_entry(
        &self,
        clock: &mut SimClock,
        exact: &mut BlockBuffer,
        page_idx: usize,
        slot: usize,
        coords: &mut [f32],
    ) -> IqResult<u32> {
        let meta = &self.pages[page_idx];
        debug_assert!(meta.g < EXACT_BITS, "exact pages are never refined");
        let (first, _, off) = self.exact_codec.entry_span(slot, self.block_size());
        let bytes = exact.span(
            meta.exact_start + first,
            off,
            self.exact_codec.entry_bytes(),
            |first, n| read_to_vec_retry(self.exact.as_ref(), clock, first, n),
        )?;
        self.exact_codec.try_decode_entry_into(bytes, coords)
    }

    /// The one decoder of a page's exact (level-3) region, shared by the
    /// degraded query paths and by updates and exports. Level-3 entries
    /// are self-contained `(id, coords)` rows (Section 3.1), so the region
    /// alone answers for the page. Reads the region (retried on transient
    /// faults) and passes each of the page's `count` entries to `visit`
    /// in slot order, an entry that does not fit the region or does not
    /// decode as an error. A lenient caller counts those and goes on; a
    /// strict one returns the error from `visit`, which ends the walk.
    ///
    /// Fails when the page is stored exactly (32 bits, no level 3), when
    /// its region stays unreadable, or when `visit` fails.
    pub(crate) fn for_each_exact_entry(
        &self,
        clock: &mut SimClock,
        page_idx: usize,
        mut visit: impl FnMut(IqResult<(u32, &[f32])>) -> IqResult<()>,
    ) -> IqResult<()> {
        let meta = &self.pages[page_idx];
        if meta.g == EXACT_BITS {
            return Err(IqError::Decode {
                detail: format!("page {page_idx} is stored exactly and has no exact region"),
            });
        }
        let region = self.try_read_exact_region(clock, page_idx)?;
        let eb = self.exact_codec.entry_bytes();
        let mut coords = vec![0.0f32; self.dim];
        for i in 0..meta.count as usize {
            let entry = match region.get(i * eb..(i + 1) * eb) {
                Some(bytes) => self
                    .exact_codec
                    .try_decode_entry_into(bytes, &mut coords)
                    .map(|id| (id, coords.as_slice())),
                None => Err(IqError::Decode {
                    detail: format!(
                        "exact region of page {page_idx} holds {} byte(s), entry {i} needs {}",
                        region.len(),
                        (i + 1) * eb
                    ),
                }),
            };
            visit(entry)?;
        }
        Ok(())
    }

    /// Reads the full exact region of a page, retried on transient faults.
    pub(crate) fn try_read_exact_region(
        &self,
        clock: &mut SimClock,
        page_idx: usize,
    ) -> IqResult<Vec<u8>> {
        let meta = &self.pages[page_idx];
        read_to_vec_retry(
            self.exact.as_ref(),
            clock,
            meta.exact_start,
            u64::from(meta.exact_blocks),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_storage::{CpuModel, DiskModel, MemDevice};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    pub(crate) fn random_ds(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        let mut row = vec![0.0f32; dim];
        for _ in 0..n {
            row.fill_with(|| rng.gen());
            ds.push(&row);
        }
        ds
    }

    pub(crate) fn build_tree(ds: &Dataset, opts: IqTreeOptions, bs: usize) -> (IqTree, SimClock) {
        let mut clock = SimClock::new(DiskModel::default(), CpuModel::free());
        let tree = IqTree::build(
            ds,
            Metric::Euclidean,
            opts,
            || Box::new(MemDevice::new(bs)),
            &mut clock,
        );
        clock.reset();
        (tree, clock)
    }

    #[test]
    fn build_covers_all_points() {
        let ds = random_ds(2_000, 8, 1);
        let (tree, _) = build_tree(&ds, IqTreeOptions::default(), 1024);
        assert_eq!(tree.n, 2_000);
        let total: u32 = tree.pages().iter().map(|p| p.count).sum();
        assert_eq!(total as usize, 2_000);
        assert!(tree.num_pages() > 1);
    }

    #[test]
    fn quantized_build_uses_multiple_resolutions_on_skew() {
        let mut ds = random_ds(1_500, 4, 2);
        // Add a dense blob.
        let mut rng = StdRng::seed_from_u64(5);
        let mut row = [0.0f32; 4];
        for _ in 0..1_500 {
            row.fill_with(|| 0.5 + rng.gen::<f32>() * 0.01);
            ds.push(&row);
        }
        // Physical 516-byte blocks leave a 512-byte logical payload after
        // the 4-byte per-block checksum, which is what the skew of this
        // data set needs to make the optimizer mix resolutions.
        let (tree, _) = build_tree(&ds, IqTreeOptions::default(), 516);
        assert!(
            tree.bits_histogram().len() >= 2,
            "{:?}",
            tree.bits_histogram()
        );
    }

    #[test]
    fn no_quantization_means_exact_pages_only() {
        let ds = random_ds(800, 6, 3);
        let opts = IqTreeOptions {
            quantize: false,
            ..Default::default()
        };
        let (tree, _) = build_tree(&ds, opts, 1024);
        assert!(tree.pages().iter().all(|p| p.g == EXACT_BITS));
        assert!(tree.pages().iter().all(|p| p.exact_blocks == 0));
    }

    #[test]
    fn exact_pages_skip_third_level() {
        let ds = random_ds(500, 4, 4);
        let (tree, _) = build_tree(&ds, IqTreeOptions::default(), 512);
        for p in tree.pages() {
            if p.g == EXACT_BITS {
                assert_eq!(p.exact_blocks, 0);
            } else {
                assert!(p.exact_blocks > 0);
            }
        }
    }

    #[test]
    fn directory_file_matches_entry_count() {
        let ds = random_ds(1_000, 5, 5);
        let (tree, _) = build_tree(&ds, IqTreeOptions::default(), 512);
        let expect_bytes = tree.num_pages() * dir_entry_bytes(5);
        // Logical block size (the checksum layer keeps 4 bytes per block);
        // one extra block holds the superblock.
        let bs = tree.block_size();
        assert_eq!(tree.dir.num_blocks(), 1 + expect_bytes.div_ceil(bs) as u64);
    }

    #[test]
    fn dir_entry_codec_round_trips_and_rejects_out_of_range_fields() {
        let ds = random_ds(1_000, 5, 5);
        let (tree, _) = build_tree(&ds, IqTreeOptions::default(), 512);
        let sb = tree.superblock();
        let codec = tree.codec;
        let eb = dir_entry_bytes(5);
        for (e, meta) in tree.pages.iter().enumerate() {
            let mut bytes = Vec::new();
            meta.encode(&mut bytes);
            assert_eq!(bytes, tree.dir_bytes[e * eb..(e + 1) * eb]);
            let back = PageMeta::decode(&bytes, &codec, &sb).expect("valid entry");
            assert_eq!(back.mbr, meta.mbr);
            assert_eq!(
                (back.g, back.count, back.quant_block),
                (meta.g, meta.count, meta.quant_block)
            );
            assert_eq!(
                (back.exact_start, back.exact_blocks),
                (meta.exact_start, meta.exact_blocks)
            );
        }
        // One bad field at a time on a copy of a page with an exact region.
        let meta = tree
            .pages
            .iter()
            .find(|m| m.g < EXACT_BITS)
            .expect("a quantized page");
        let bad = |edit: &dyn Fn(&mut PageMeta), want: &str| {
            let mut m = meta.clone();
            edit(&mut m);
            let mut bytes = Vec::new();
            m.encode(&mut bytes);
            let err = PageMeta::decode(&bytes, &codec, &sb).expect_err(want);
            assert!(err.contains(want), "{err:?} lacks {want:?}");
        };
        bad(&|m| m.g = 0, "resolution g = 0");
        bad(
            &|m| m.count = codec.capacity(m.g) as u32 + 1,
            "exceed page capacity",
        );
        bad(&|m| m.quant_block = sb.quant_blocks, "quantized block");
        bad(&|m| m.exact_start = u64::MAX, "exact region");
        // Inverted or NaN bounds are an error, not a panic in `Mbr`.
        let mut bytes = Vec::new();
        meta.encode(&mut bytes);
        bytes[..4].copy_from_slice(&f32::NAN.to_le_bytes());
        let err = PageMeta::decode(&bytes, &codec, &sb).expect_err("NaN bound");
        assert!(err.contains("dimension 0"), "{err}");
        bytes[..4].copy_from_slice(&2.0f32.to_le_bytes());
        bytes[4 * 5..4 * 5 + 4].copy_from_slice(&1.0f32.to_le_bytes());
        let err = PageMeta::decode(&bytes, &codec, &sb).expect_err("lb > ub");
        assert!(err.contains("[2, 1] in dimension 0"), "{err}");
    }

    #[test]
    fn estimated_cost_matches_optimizer_choice_at_build() {
        let ds = random_ds(5_000, 8, 8);
        let (tree, _) = build_tree(&ds, IqTreeOptions::default(), 8192);
        let est = tree.estimated_query_cost(&iq_storage::DiskModel::default());
        let opt = tree.optimize_trace().cost_per_step[tree.optimize_trace().best_step];
        // Same model, same configuration: must agree closely (the optimizer
        // prices tentative splits from the same formulas).
        assert!(
            (est - opt).abs() / opt < 0.05,
            "est {est} vs optimizer {opt}"
        );
    }

    #[test]
    fn estimated_cost_degrades_with_skewed_inserts() {
        let ds = random_ds(3_000, 6, 9);
        let (mut tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 4096);
        let disk = iq_storage::DiskModel::default();
        let before = tree.estimated_query_cost(&disk);
        // Pile inserts into one corner: pages there overflow and coarsen /
        // split suboptimally relative to a global re-optimization.
        let mut rng = StdRng::seed_from_u64(10);
        for i in 0..3_000u32 {
            let p: Vec<f32> = (0..6).map(|_| rng.gen::<f32>() * 0.05).collect();
            tree.insert(&mut clock, 3_000 + i, &p).unwrap();
        }
        let degraded = tree.estimated_query_cost(&disk);
        assert!(degraded > before, "{degraded} vs {before}");
        // A rebuild improves the modeled cost (or at least never hurts).
        tree.rebuild(&mut clock, || Box::new(MemDevice::new(4096)))
            .unwrap();
        let rebuilt = tree.estimated_query_cost(&disk);
        assert!(rebuilt <= degraded * 1.001, "{rebuilt} vs {degraded}");
    }

    #[test]
    fn storage_summary_is_consistent() {
        let ds = random_ds(3_000, 16, 7);
        let (tree, _) = build_tree(&ds, IqTreeOptions::default(), 8192);
        let (dir, quant, exact) = tree.storage_blocks();
        assert_eq!(quant as usize, tree.num_pages());
        assert!(dir >= 1);
        // Pages below 32 bits have exact backing.
        let needs_exact = tree.pages().iter().any(|p| p.g < 32);
        assert_eq!(exact > 0, needs_exact);
        // The scanned level is compressed.
        assert!(
            tree.compression_ratio() < 1.0,
            "{}",
            tree.compression_ratio()
        );
    }

    #[test]
    fn quant_pages_are_consecutive_blocks() {
        let ds = random_ds(1_200, 6, 6);
        let (tree, _) = build_tree(&ds, IqTreeOptions::default(), 512);
        for (i, p) in tree.pages().iter().enumerate() {
            assert_eq!(p.quant_block, i as u64, "pages must be laid out in order");
        }
    }
}
