//! Composable device stacks.
//!
//! Every access method in the workspace reads through the same kind of
//! layered device: a raw backend at the bottom, optional deterministic
//! fault injection above it (simulated media), a per-block checksum layer
//! that turns silent corruption into typed errors, a retry layer that
//! absorbs transient faults, and optionally an LRU buffer pool
//! ([`CachedDevice`]) on top. [`DeviceStack`] builds that tower in one call
//! so the IQ-tree and the baselines of the paper's evaluation (VA-file,
//! X-tree, sequential scan) run on identical storage semantics:
//!
//! ```
//! use iq_storage::{DeviceStack, FaultConfig, MemDevice, RetryPolicy};
//!
//! let dev = DeviceStack::new(Box::new(MemDevice::new(4096)))
//!     .faults(FaultConfig::transient(7, 0.05))
//!     .checksum()
//!     .retry(RetryPolicy::default())
//!     .cache(256)
//!     .build();
//! assert_eq!(dev.block_size(), 4092); // checksum trailer is invisible above
//! ```
//!
//! The builder wraps in call order and checks nothing, so callers add the
//! layers bottom-up in the order their semantics require: faults at the
//! bottom (they model the medium), the checksum directly above them (so a
//! flipped bit is detected before anything caches or retries stale
//! bytes), retries above the checksum (transient `Io` errors are retried;
//! `ChecksumMismatch` is corruption and surfaces immediately), and the
//! buffer pool on top, holding only verified payload bytes.

use crate::cache::CachedDevice;
use crate::checksum::ChecksummedDevice;
use crate::device::BlockDevice;
use crate::error::IqResult;
use crate::fault::{FaultConfig, FaultInjectingDevice};
use crate::model::SimClock;
use crate::retry::RetryPolicy;

/// A device that retries transient faults internally, so layers above see
/// flaky reads and writes only when the retry budget is exhausted.
///
/// Reads and writes both run under the policy; non-transient errors
/// (corruption, out-of-bounds) surface immediately, exactly like
/// [`RetryPolicy::run`].
pub struct RetryingDevice {
    inner: Box<dyn BlockDevice>,
    policy: RetryPolicy,
}

impl RetryingDevice {
    /// Wraps `inner` with the given retry policy.
    pub fn new(inner: Box<dyn BlockDevice>, policy: RetryPolicy) -> Self {
        Self { inner, policy }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &dyn BlockDevice {
        self.inner.as_ref()
    }
}

impl BlockDevice for RetryingDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_blocks(&self, clock: &mut SimClock, start: u64, buf: &mut [u8]) -> IqResult<()> {
        self.policy
            .run(clock, |clock| self.inner.read_blocks(clock, start, buf))
    }

    fn append(&mut self, clock: &mut SimClock, data: &[u8]) -> IqResult<u64> {
        let inner = &mut self.inner;
        self.policy.run(clock, |clock| inner.append(clock, data))
    }

    fn write_blocks(&mut self, clock: &mut SimClock, start: u64, data: &[u8]) -> IqResult<()> {
        let inner = &mut self.inner;
        self.policy
            .run(clock, |clock| inner.write_blocks(clock, start, data))
    }

    fn truncate_blocks(&mut self, clock: &mut SimClock, nblocks: u64) -> IqResult<()> {
        let inner = &mut self.inner;
        self.policy
            .run(clock, |clock| inner.truncate_blocks(clock, nblocks))
    }

    fn device_id(&self) -> u64 {
        self.inner.device_id()
    }

    fn is_resident(&self, block: u64) -> bool {
        self.inner.is_resident(block)
    }
}

/// Builder for the canonical layered device. It wraps in call order, so
/// call it bottom-up: `faults` → `checksum` → `retry` → `cache` (see the
/// module docs for why).
pub struct DeviceStack {
    dev: Box<dyn BlockDevice>,
}

impl DeviceStack {
    /// Starts a stack on a raw backend.
    pub fn new(base: Box<dyn BlockDevice>) -> Self {
        Self { dev: base }
    }

    /// Adds deterministic fault injection (bottom layer: the medium).
    pub fn faults(self, cfg: FaultConfig) -> Self {
        Self {
            dev: Box::new(FaultInjectingDevice::new(self.dev, cfg)),
        }
    }

    /// Adds per-block CRC32 checksumming. The logical block size shrinks
    /// by [`crate::CHECKSUM_BYTES`].
    pub fn checksum(self) -> Self {
        Self {
            dev: Box::new(ChecksummedDevice::new(self.dev)),
        }
    }

    /// Adds transparent retry of transient faults on reads and writes.
    pub fn retry(self, policy: RetryPolicy) -> Self {
        Self {
            dev: Box::new(RetryingDevice::new(self.dev, policy)),
        }
    }

    /// Adds an LRU buffer pool of `frames` blocks ([`CachedDevice`]).
    ///
    /// # Panics
    /// Panics if `frames == 0`.
    pub fn cache(self, frames: usize) -> Self {
        Self {
            dev: Box::new(CachedDevice::new(self.dev, frames)),
        }
    }

    /// Adds a metrics layer reporting this point of the stack's traffic to
    /// the global registry under `dev_<stage>_*` (latency histograms plus
    /// operation / block / error counters). Near-free while the global
    /// registry is disabled.
    pub fn observe(self, stage: &str) -> Self {
        Self {
            dev: Box::new(crate::observe::ObservedDevice::new(
                self.dev,
                iq_obs::global(),
                stage,
            )),
        }
    }

    /// Finishes the stack.
    pub fn build(self) -> Box<dyn BlockDevice> {
        self.dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IqError, MemDevice, CHECKSUM_BYTES};

    #[test]
    fn stack_roundtrips_and_shrinks_block_size() {
        let mut dev = DeviceStack::new(Box::new(MemDevice::new(256)))
            .checksum()
            .retry(RetryPolicy::default())
            .build();
        assert_eq!(dev.block_size(), 256 - CHECKSUM_BYTES);
        let mut clock = SimClock::default();
        let payload = vec![0x5Au8; dev.block_size() * 3];
        let start = dev.append(&mut clock, &payload).unwrap();
        assert_eq!(dev.read_to_vec(&mut clock, start, 3).unwrap(), payload);
    }

    #[test]
    fn retry_layer_absorbs_transient_faults() {
        // High transient rate: without the retry layer most reads fail.
        let mut dev = DeviceStack::new(Box::new(MemDevice::new(128)))
            .faults(FaultConfig::transient(3, 0.9))
            .checksum()
            .retry(RetryPolicy::default())
            .build();
        let mut clock = SimClock::default();
        let bs = dev.block_size();
        for i in 0..16u8 {
            dev.append(&mut clock, &vec![i; bs]).unwrap();
        }
        for i in 0..16u64 {
            let got = dev.read_to_vec(&mut clock, i, 1).unwrap();
            assert_eq!(got, vec![i as u8; bs]);
        }
        assert!(clock.stats().io_retries > 0, "faults were actually hit");
    }

    #[test]
    fn corruption_is_not_retried() {
        let fault = FaultInjectingDevice::new(Box::new(MemDevice::new(128)), FaultConfig::none(1));
        let mut clock = SimClock::default();
        let mut dev = DeviceStack::new(Box::new(fault))
            .checksum()
            .retry(RetryPolicy::default())
            .build();
        let bs = dev.block_size();
        dev.append(&mut clock, &vec![7u8; bs * 4]).unwrap();
        // Reach through to plant permanent corruption under the checksum.
        // (Rebuild the same stack around a shared corrupting base instead:
        // simplest is to corrupt via a fresh stack-free device.)
        drop(dev);
        let fault = FaultInjectingDevice::new(Box::new(MemDevice::new(128)), FaultConfig::none(1));
        let mut base = DeviceStack::new(Box::new(fault)).build();
        base.append(&mut clock, &vec![7u8; 128 * 4]).unwrap();
        // Direct test of the retry-vs-corruption contract:
        let n_before = clock.stats().io_retries;
        let err = RetryPolicy::default()
            .run::<()>(&mut clock, |_| {
                Err(IqError::ChecksumMismatch {
                    block: 2,
                    stored: 0,
                    computed: 1,
                })
            })
            .unwrap_err();
        assert!(err.is_corruption());
        assert_eq!(clock.stats().io_retries, n_before);
    }

    #[test]
    fn residency_is_forwarded_through_every_layer() {
        // Observation and checksum layers below and above the pool, faults
        // and retries at the ends: the answer comes from the pool.
        let mut dev = DeviceStack::new(Box::new(MemDevice::new(128)))
            .faults(FaultConfig::none(5))
            .observe("raw")
            .checksum()
            .observe("below")
            .cache(8)
            .observe("above")
            .checksum()
            .retry(RetryPolicy::default())
            .build();
        let mut clock = SimClock::default();
        let bs = dev.block_size();
        dev.append(&mut clock, &vec![2u8; bs * 3]).unwrap();
        assert!((0..3).all(|b| dev.is_resident(b)), "appends fill the pool");
        assert!(!dev.is_resident(3), "past the end");
        let cold = DeviceStack::new(Box::new(MemDevice::new(128)))
            .checksum()
            .cache(8)
            .observe("cache")
            .build();
        assert!(!cold.is_resident(0), "empty pool");
    }

    #[test]
    fn devices_without_a_pool_are_never_resident() {
        let dir = std::env::temp_dir().join(format!("iq-storage-resident-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.bin");
        let mut clock = SimClock::default();
        let mut file = crate::FileDevice::create(&path, 64).unwrap();
        file.append(&mut clock, &[1u8; 128]).unwrap();
        let mut mem = MemDevice::new(64);
        mem.append(&mut clock, &[1u8; 128]).unwrap();
        let mmap = crate::MmapFileDevice::open(&path, 64).unwrap();
        let mut stacked = DeviceStack::new(Box::new(MemDevice::new(64)))
            .checksum()
            .retry(RetryPolicy::default())
            .observe("plain")
            .build();
        let bs = stacked.block_size();
        stacked.append(&mut clock, &vec![1u8; 2 * bs]).unwrap();
        let devices: [&dyn BlockDevice; 4] = [&mem, &file, &mmap, stacked.as_ref()];
        for dev in devices {
            dev.read_to_vec(&mut clock, 0, 2).unwrap();
            assert!(!dev.is_resident(0));
            assert!(!dev.is_resident(1));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_sits_above_the_checksum() {
        let mut dev = DeviceStack::new(Box::new(MemDevice::new(64)))
            .checksum()
            .cache(4)
            .build();
        let mut clock = SimClock::default();
        let bs = dev.block_size();
        assert_eq!(bs, 64 - CHECKSUM_BYTES);
        dev.append(&mut clock, &vec![1u8; bs]).unwrap();
        clock.reset();
        assert_eq!(dev.read_to_vec(&mut clock, 0, 1).unwrap(), vec![1u8; bs]);
        assert_eq!(clock.io_time(), 0.0, "served from the pool");
        assert_eq!(clock.stats().cache_hits, 1);
    }
}
