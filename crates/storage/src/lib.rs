//! Simulated-disk block storage.
//!
//! The IQ-tree paper's entire argument is written in terms of two disk
//! parameters: the seek time `t_seek` and the per-block transfer time
//! `t_xfer` (Section 2). This crate provides:
//!
//! * [`DiskModel`] / [`CpuModel`] / [`SimClock`] — the cost model and the
//!   clock that accumulates simulated I/O and CPU time plus access
//!   statistics,
//! * [`BlockDevice`] with an in-memory ([`MemDevice`]) and a real
//!   file-backed ([`FileDevice`]) implementation; both charge the simulated
//!   clock identically, so experiments are deterministic regardless of
//!   backend,
//! * [`fetch`] — the optimal batch block-fetch planner of Section 2
//!   (Figure 1): given the sorted positions of the blocks an index selected,
//!   decide where to seek and where to over-read,
//! * [`BlockBuffer`] — the blocks a query (or one micro-batch of queries)
//!   has already read, so each is read at most once while it lives,
//! * robustness: typed errors ([`IqError`]), per-block CRC32 checksumming
//!   ([`ChecksummedDevice`], over the runtime-dispatched [`crc`] kernels),
//!   deterministic fault injection ([`FaultInjectingDevice`]) and bounded
//!   retry with backoff ([`RetryPolicy`]),
//! * [`sweep_records`] — the one front-to-back sweep over a file of
//!   positional records that the sequential scan and the VA-file share,
//! * [`CachedDevice`] — the sharded LRU buffer pool, stacked above the
//!   checksum by [`DeviceStack::cache`].

pub mod buffer;
pub mod cache;
pub mod checksum;
pub mod crc;
pub mod device;
pub mod error;
pub mod fault;
pub mod fetch;
pub mod mmap;
pub mod model;
pub mod observe;
pub mod retry;
pub mod stack;
pub mod sweep;
pub mod wal;

pub use buffer::BlockBuffer;
pub use cache::{CacheStats, CachedDevice};
pub use checksum::{ChecksummedDevice, CHECKSUM_BYTES};
pub use crc::{crc32, crc32_update, crc_kernel, CrcKernel};
pub use device::{BlockDevice, FileDevice, MemDevice};
pub use error::{IqError, IqResult};
pub use fault::{FaultConfig, FaultInjectingDevice, FaultStats};
pub use fetch::{plan_fetch, plan_fetch_cost, Run};
pub use mmap::MmapFileDevice;
pub use model::{CpuModel, DiskModel, IoStats, SimClock};
pub use observe::ObservedDevice;
pub use retry::{read_to_vec_retry, RetryPolicy};
pub use stack::{DeviceStack, RetryingDevice};
pub use sweep::{sweep_records, Sweep};
pub use wal::{FileWal, MemWal, WalStore, WAL_CHARGE_BLOCK};
