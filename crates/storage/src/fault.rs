//! Deterministic fault injection for robustness testing.
//!
//! [`FaultInjectingDevice`] wraps any [`BlockDevice`] and injects, from a
//! seeded deterministic schedule:
//!
//! * **transient read/write errors** — the first access touching an
//!   afflicted block fails with a retryable [`IqError::Io`]; a retry of the
//!   same block succeeds (the model of a bus hiccup or a recovered-on-retry
//!   sector read),
//! * **bit flips** — an afflicted block is returned with one bit flipped on
//!   *every* read (the model of silent media corruption; a checksum layer
//!   above detects it),
//! * **torn writes** — an afflicted append/write persists only a prefix of
//!   its payload (zero-filled to whole blocks) and then fails (the model of
//!   a crash mid-write).
//!
//! Whether a block is afflicted is a pure function of `(seed, block, kind)`,
//! so a faulty run is reproducible regardless of thread interleavings, and
//! a retried workload converges to the clean run's answers. Explicit
//! permanent corruption can be planted with
//! [`FaultInjectingDevice::corrupt_block`].

use crate::device::BlockDevice;
use crate::error::{IqError, IqResult};
use crate::model::SimClock;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Fault rates and the seed of the deterministic schedule. All rates are
/// probabilities in `[0, 1]` evaluated per block.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Seed of the deterministic per-block schedule.
    pub seed: u64,
    /// Probability that the first read touching a block fails (retry
    /// succeeds).
    pub read_transient_rate: f64,
    /// Probability that the first write touching a block fails (retry
    /// succeeds; nothing is persisted by the failed attempt).
    pub write_transient_rate: f64,
    /// Probability that a block's contents are returned with a flipped bit
    /// on every read (permanent silent corruption).
    pub bit_flip_rate: f64,
    /// Probability that an append/write persists only a prefix and fails.
    pub torn_write_rate: f64,
}

impl FaultConfig {
    /// A schedule injecting only transient faults (both reads and writes)
    /// at the given rate — every fault recovers on retry.
    pub fn transient(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            read_transient_rate: rate,
            write_transient_rate: rate,
            bit_flip_rate: 0.0,
            torn_write_rate: 0.0,
        }
    }

    /// A schedule injecting no faults at all (wrap-only; useful to plant
    /// explicit corruption with [`FaultInjectingDevice::corrupt_block`]).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            read_transient_rate: 0.0,
            write_transient_rate: 0.0,
            bit_flip_rate: 0.0,
            torn_write_rate: 0.0,
        }
    }
}

/// Counters of faults actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Reads failed with a transient error.
    pub transient_reads: u64,
    /// Writes failed with a transient error.
    pub transient_writes: u64,
    /// Reads that returned a block with a flipped bit.
    pub bit_flips: u64,
    /// Writes that persisted only a prefix.
    pub torn_writes: u64,
}

/// Fault kinds, salted into the per-block hash.
const KIND_READ: u64 = 0x52;
const KIND_WRITE: u64 = 0x57;
const KIND_FLIP: u64 = 0x46;
const KIND_TORN: u64 = 0x54;

/// SplitMix64: cheap, high-quality 64-bit mixer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform `[0, 1)` draw from `(seed, block, kind)`.
fn draw(seed: u64, block: u64, kind: u64) -> f64 {
    let h = mix(seed ^ mix(block.wrapping_add(kind << 56)));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The error every mutation reports once an armed crash point fired.
fn crash_error(op: &'static str, block: u64) -> IqError {
    IqError::Io {
        op,
        block,
        transient: false,
        detail: "simulated crash (power loss)".into(),
    }
}

/// State of an armed crash point (see
/// [`FaultInjectingDevice::arm_crash`]).
#[derive(Clone, Copy, Debug)]
struct CrashPlan {
    /// Mutating operations still allowed to complete durably.
    remaining: u64,
    /// Whether the triggering write persists a torn prefix (`true`) or
    /// nothing at all (`false`).
    torn: bool,
    /// Set once the crash fired; every later mutation fails too.
    fired: bool,
}

/// A fault-injecting wrapper around any block device. See the module docs.
pub struct FaultInjectingDevice {
    inner: Box<dyn BlockDevice>,
    cfg: FaultConfig,
    /// Blocks whose scheduled transient read fault already fired.
    read_faulted: Mutex<HashSet<u64>>,
    /// Blocks whose scheduled transient write fault already fired.
    write_faulted: Mutex<HashSet<u64>>,
    /// Explicitly planted permanently-corrupt blocks (bit flipped on read).
    planted: Mutex<HashSet<u64>>,
    /// Armed kill-at-offset crash point (power loss simulation).
    crash: Mutex<Option<CrashPlan>>,
    transient_reads: AtomicU64,
    transient_writes: AtomicU64,
    bit_flips: AtomicU64,
    torn_writes: AtomicU64,
}

impl FaultInjectingDevice {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: Box<dyn BlockDevice>, cfg: FaultConfig) -> Self {
        Self {
            inner,
            cfg,
            read_faulted: Mutex::new(HashSet::new()),
            write_faulted: Mutex::new(HashSet::new()),
            planted: Mutex::new(HashSet::new()),
            crash: Mutex::new(None),
            transient_reads: AtomicU64::new(0),
            transient_writes: AtomicU64::new(0),
            bit_flips: AtomicU64::new(0),
            torn_writes: AtomicU64::new(0),
        }
    }

    /// Plants permanent corruption: every future read of `block` returns
    /// its contents with one bit flipped.
    pub fn corrupt_block(&self, block: u64) {
        self.planted
            .lock()
            .expect("fault set poisoned")
            .insert(block);
    }

    /// Arms a simulated power loss: the next `after_writes` mutating
    /// operations (append / write / truncate — the device's durability
    /// barrier points) complete durably, then the following one fails with
    /// a non-transient `"simulated crash"` [`IqError::Io`] — persisting a
    /// deterministic torn prefix when `torn` is set, nothing otherwise —
    /// and every mutation after that fails the same way. Reads keep
    /// working, modeling post-mortem inspection of the surviving bytes.
    pub fn arm_crash(&self, after_writes: u64, torn: bool) {
        *self.crash.lock().expect("crash plan poisoned") = Some(CrashPlan {
            remaining: after_writes,
            torn,
            fired: false,
        });
    }

    /// Whether an armed crash point has fired.
    pub fn crashed(&self) -> bool {
        self.crash
            .lock()
            .expect("crash plan poisoned")
            .is_some_and(|p| p.fired)
    }

    /// Consults the armed crash plan before a mutating op. `Ok(None)` lets
    /// the op proceed; `Ok(Some(keep))` tears it to `keep` payload bytes
    /// (caller persists the prefix, then reports the crash error);
    /// `Err` is the crash itself (nothing persists).
    fn crash_gate(&self, op: &'static str, start: u64, len: usize) -> IqResult<Option<usize>> {
        let mut guard = self.crash.lock().expect("crash plan poisoned");
        let Some(plan) = guard.as_mut() else {
            return Ok(None);
        };
        if plan.fired {
            return Err(crash_error(op, start));
        }
        if plan.remaining > 0 {
            plan.remaining -= 1;
            return Ok(None);
        }
        plan.fired = true;
        if plan.torn && len > 0 {
            let keep = (mix(self.cfg.seed ^ start) as usize % len).max(1);
            return Ok(Some(keep));
        }
        Err(crash_error(op, start))
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            transient_reads: self.transient_reads.load(Ordering::Relaxed),
            transient_writes: self.transient_writes.load(Ordering::Relaxed),
            bit_flips: self.bit_flips.load(Ordering::Relaxed),
            torn_writes: self.torn_writes.load(Ordering::Relaxed),
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &dyn BlockDevice {
        self.inner.as_ref()
    }

    /// Returns the first block in `[start, start+n)` whose scheduled
    /// transient fault has not fired yet, marking it fired.
    fn claim_transient(
        &self,
        fired: &Mutex<HashSet<u64>>,
        rate: f64,
        kind: u64,
        start: u64,
        n: u64,
    ) -> Option<u64> {
        if rate <= 0.0 {
            return None;
        }
        let mut fired = fired.lock().expect("fault set poisoned");
        (start..start + n).find(|&b| draw(self.cfg.seed, b, kind) < rate && fired.insert(b))
    }

    fn flip_targets(&self, start: u64, n: u64) -> Vec<u64> {
        let planted = self.planted.lock().expect("fault set poisoned");
        (start..start + n)
            .filter(|&b| {
                planted.contains(&b)
                    || (self.cfg.bit_flip_rate > 0.0
                        && draw(self.cfg.seed, b, KIND_FLIP) < self.cfg.bit_flip_rate)
            })
            .collect()
    }
}

impl BlockDevice for FaultInjectingDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_blocks(&self, clock: &mut SimClock, start: u64, buf: &mut [u8]) -> IqResult<()> {
        let bs = self.block_size();
        assert_eq!(buf.len() % bs, 0, "partial-block read");
        let n = (buf.len() / bs) as u64;
        if let Some(b) = self.claim_transient(
            &self.read_faulted,
            self.cfg.read_transient_rate,
            KIND_READ,
            start,
            n,
        ) {
            self.transient_reads.fetch_add(1, Ordering::Relaxed);
            clock.note_fault();
            return Err(IqError::Io {
                op: "read",
                block: b,
                transient: true,
                detail: "injected transient read fault".into(),
            });
        }
        self.inner.read_blocks(clock, start, buf)?;
        for b in self.flip_targets(start, n) {
            let off = ((b - start) as usize) * bs;
            // Deterministic bit choice inside the block.
            let bit = (mix(self.cfg.seed ^ b) % (bs as u64 * 8)) as usize;
            buf[off + bit / 8] ^= 1 << (bit % 8);
            self.bit_flips.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn append(&mut self, clock: &mut SimClock, data: &[u8]) -> IqResult<u64> {
        let bs = self.block_size();
        let start = self.inner.num_blocks();
        let n = data.len().div_ceil(bs) as u64;
        match self.crash_gate("append", start, data.len()) {
            Ok(None) => {}
            Ok(Some(keep)) => {
                let mut torn = data[..keep].to_vec();
                torn.resize(n as usize * bs, 0);
                self.inner.append(clock, &torn)?;
                self.torn_writes.fetch_add(1, Ordering::Relaxed);
                clock.note_fault();
                return Err(crash_error("append", start));
            }
            Err(e) => {
                clock.note_fault();
                return Err(e);
            }
        }
        if let Some(b) = self.claim_transient(
            &self.write_faulted,
            self.cfg.write_transient_rate,
            KIND_WRITE,
            start,
            n.max(1),
        ) {
            self.transient_writes.fetch_add(1, Ordering::Relaxed);
            clock.note_fault();
            return Err(IqError::Io {
                op: "append",
                block: b,
                transient: true,
                detail: "injected transient write fault".into(),
            });
        }
        if self.cfg.torn_write_rate > 0.0
            && n > 0
            && draw(self.cfg.seed, start, KIND_TORN) < self.cfg.torn_write_rate
        {
            // Persist only a prefix of the payload, zero-padded to whole
            // blocks, then fail: the classic torn multi-block write.
            let keep = (mix(self.cfg.seed ^ start) as usize % data.len().max(1)).max(1);
            let mut torn = data[..keep].to_vec();
            torn.resize(n as usize * bs, 0);
            self.inner.append(clock, &torn)?;
            self.torn_writes.fetch_add(1, Ordering::Relaxed);
            clock.note_fault();
            return Err(IqError::Io {
                op: "append",
                block: start,
                transient: false,
                detail: format!(
                    "injected torn write ({keep} of {} bytes persisted)",
                    data.len()
                ),
            });
        }
        self.inner.append(clock, data)
    }

    fn write_blocks(&mut self, clock: &mut SimClock, start: u64, data: &[u8]) -> IqResult<()> {
        let bs = self.block_size();
        assert_eq!(data.len() % bs, 0, "partial-block write");
        let n = (data.len() / bs) as u64;
        match self.crash_gate("write", start, data.len()) {
            Ok(None) => {}
            Ok(Some(keep)) => {
                let mut torn = data[..keep].to_vec();
                torn.resize(data.len(), 0);
                self.inner.write_blocks(clock, start, &torn)?;
                self.torn_writes.fetch_add(1, Ordering::Relaxed);
                clock.note_fault();
                return Err(crash_error("write", start));
            }
            Err(e) => {
                clock.note_fault();
                return Err(e);
            }
        }
        if let Some(b) = self.claim_transient(
            &self.write_faulted,
            self.cfg.write_transient_rate,
            KIND_WRITE,
            start,
            n,
        ) {
            self.transient_writes.fetch_add(1, Ordering::Relaxed);
            clock.note_fault();
            return Err(IqError::Io {
                op: "write",
                block: b,
                transient: true,
                detail: "injected transient write fault".into(),
            });
        }
        if self.cfg.torn_write_rate > 0.0
            && n > 0
            && draw(self.cfg.seed, start, KIND_TORN) < self.cfg.torn_write_rate
        {
            let keep = (mix(self.cfg.seed ^ start) as usize % data.len()).max(1);
            let mut torn = data[..keep].to_vec();
            torn.resize(data.len(), 0);
            self.inner.write_blocks(clock, start, &torn)?;
            self.torn_writes.fetch_add(1, Ordering::Relaxed);
            clock.note_fault();
            return Err(IqError::Io {
                op: "write",
                block: start,
                transient: false,
                detail: format!(
                    "injected torn write ({keep} of {} bytes persisted)",
                    data.len()
                ),
            });
        }
        self.inner.write_blocks(clock, start, data)
    }

    fn truncate_blocks(&mut self, clock: &mut SimClock, nblocks: u64) -> IqResult<()> {
        match self.crash_gate("truncate", nblocks, 0) {
            Ok(_) => self.inner.truncate_blocks(clock, nblocks),
            Err(e) => {
                clock.note_fault();
                Err(e)
            }
        }
    }

    fn device_id(&self) -> u64 {
        self.inner.device_id()
    }

    fn is_resident(&self, block: u64) -> bool {
        self.inner.is_resident(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;
    use crate::retry::read_to_vec_retry;

    fn filled(blocks: u64, cfg: FaultConfig) -> FaultInjectingDevice {
        let mut inner = MemDevice::new(64);
        let mut clock = SimClock::default();
        for i in 0..blocks {
            inner.append(&mut clock, &[(i % 251) as u8; 64]).unwrap();
        }
        FaultInjectingDevice::new(Box::new(inner), cfg)
    }

    #[test]
    fn transient_read_fails_once_then_succeeds() {
        let dev = filled(64, FaultConfig::transient(7, 0.5));
        let mut clock = SimClock::default();
        let mut failures = 0;
        for b in 0..64u64 {
            match dev.read_to_vec(&mut clock, b, 1) {
                Ok(got) => assert_eq!(got, vec![(b % 251) as u8; 64]),
                Err(e) => {
                    assert!(e.is_transient(), "{e}");
                    failures += 1;
                    // Retry must succeed.
                    let got = dev.read_to_vec(&mut clock, b, 1).unwrap();
                    assert_eq!(got, vec![(b % 251) as u8; 64]);
                }
            }
        }
        assert!(failures > 10, "rate 0.5 over 64 blocks: got {failures}");
        assert_eq!(dev.stats().transient_reads, failures);
    }

    #[test]
    fn schedule_is_deterministic() {
        let outcome = |seed: u64| -> Vec<bool> {
            let mut clock = SimClock::default();
            let dev = filled(32, FaultConfig::transient(seed, 0.3));
            (0..32u64)
                .map(|b| dev.read_to_vec(&mut clock, b, 1).is_ok())
                .collect()
        };
        assert_eq!(outcome(1), outcome(1));
        assert_ne!(outcome(1), outcome(2), "different seeds, different faults");
    }

    #[test]
    fn bit_flips_corrupt_silently() {
        let dev = filled(
            32,
            FaultConfig {
                seed: 3,
                read_transient_rate: 0.0,
                write_transient_rate: 0.0,
                bit_flip_rate: 0.25,
                torn_write_rate: 0.0,
            },
        );
        let mut clock = SimClock::default();
        let mut corrupted = 0;
        for b in 0..32u64 {
            let got = dev.read_to_vec(&mut clock, b, 1).unwrap();
            if got != vec![(b % 251) as u8; 64] {
                corrupted += 1;
                // The flip is stable: same wrong bytes every read.
                assert_eq!(got, dev.read_to_vec(&mut clock, b, 1).unwrap());
            }
        }
        assert!(corrupted > 0);
        assert_eq!(dev.stats().bit_flips % corrupted, 0);
    }

    #[test]
    fn planted_corruption_always_fires() {
        let dev = filled(8, FaultConfig::none(0));
        dev.corrupt_block(5);
        let mut clock = SimClock::default();
        assert_eq!(
            dev.read_to_vec(&mut clock, 4, 1).unwrap(),
            vec![4u8; 64],
            "other blocks untouched"
        );
        assert_ne!(dev.read_to_vec(&mut clock, 5, 1).unwrap(), vec![5u8; 64]);
    }

    #[test]
    fn torn_write_persists_prefix_and_errors() {
        let inner = MemDevice::new(64);
        let mut dev = FaultInjectingDevice::new(
            Box::new(inner),
            FaultConfig {
                seed: 11,
                read_transient_rate: 0.0,
                write_transient_rate: 0.0,
                bit_flip_rate: 0.0,
                torn_write_rate: 1.0,
            },
        );
        let mut clock = SimClock::default();
        let err = dev.append(&mut clock, &[0xAB; 64 * 4]).unwrap_err();
        assert!(!err.is_transient());
        assert_eq!(dev.stats().torn_writes, 1);
        // Blocks exist but the tail is not the payload.
        assert_eq!(dev.num_blocks(), 4);
        let got = dev.read_to_vec(&mut clock, 0, 4).unwrap();
        assert_ne!(got, vec![0xABu8; 64 * 4]);
        assert_eq!(&got[..32], &[0xABu8; 32][..], "a prefix was persisted");
    }

    #[test]
    fn armed_crash_kills_after_exactly_n_writes() {
        let inner = MemDevice::new(64);
        let mut dev = FaultInjectingDevice::new(Box::new(inner), FaultConfig::none(9));
        let mut clock = SimClock::default();
        dev.arm_crash(2, false);
        assert_eq!(dev.append(&mut clock, &[1u8; 64]).unwrap(), 0);
        assert_eq!(dev.append(&mut clock, &[2u8; 64]).unwrap(), 1);
        // Third mutation dies; nothing of it persists.
        let err = dev.append(&mut clock, &[3u8; 64]).unwrap_err();
        assert!(!err.is_transient());
        assert!(dev.crashed());
        assert_eq!(dev.num_blocks(), 2);
        // Every later mutation fails too; reads still work.
        assert!(dev.write_blocks(&mut clock, 0, &[9u8; 64]).is_err());
        assert!(dev.truncate_blocks(&mut clock, 1).is_err());
        assert_eq!(dev.read_to_vec(&mut clock, 1, 1).unwrap(), vec![2u8; 64]);
    }

    #[test]
    fn armed_crash_can_tear_the_fatal_write() {
        let inner = MemDevice::new(64);
        let mut dev = FaultInjectingDevice::new(Box::new(inner), FaultConfig::none(13));
        let mut clock = SimClock::default();
        dev.arm_crash(0, true);
        let err = dev.append(&mut clock, &[0xEE; 64 * 4]).unwrap_err();
        assert!(!err.is_transient());
        // A prefix persisted, zero-padded to whole blocks.
        assert_eq!(dev.num_blocks(), 4);
        let got = dev.read_to_vec(&mut clock, 0, 4).unwrap();
        assert_ne!(got, vec![0xEEu8; 64 * 4]);
        assert_eq!(got[0], 0xEE, "at least one byte of the prefix persisted");
        assert_eq!(dev.stats().torn_writes, 1);
    }

    #[test]
    fn truncate_passes_through_and_shrinks() {
        let mut dev = FaultInjectingDevice::new(Box::new(MemDevice::new(64)), FaultConfig::none(1));
        let mut clock = SimClock::default();
        dev.append(&mut clock, &[7u8; 64 * 3]).unwrap();
        dev.truncate_blocks(&mut clock, 1).unwrap();
        assert_eq!(dev.num_blocks(), 1);
    }

    #[test]
    fn retry_loop_recovers_everything_transient() {
        let dev = filled(128, FaultConfig::transient(42, 0.4));
        let mut clock = SimClock::default();
        for b in 0..128u64 {
            let got = read_to_vec_retry(&dev, &mut clock, b, 1).unwrap();
            assert_eq!(got, vec![(b % 251) as u8; 64]);
        }
        assert!(clock.stats().io_retries > 0);
        assert!(clock.stats().injected_faults > 0);
    }
}
