//! Metrics-emitting device layer.
//!
//! [`ObservedDevice`] wraps any [`BlockDevice`] and mirrors its traffic
//! into a metrics [`Registry`]: per-stage read/write
//! operation counts, block counts, error counts and wall-clock latency
//! histograms. Handles are resolved once at construction, so the record
//! path never touches the registry's name maps; with a disabled registry
//! every update is a single relaxed atomic load.
//!
//! Insert one per stack stage you want visibility into, e.g.
//! `DeviceStack::new(base).checksum().observe("checksum")` — metric names
//! come out as `dev_checksum_read_seconds`, `dev_checksum_reads_total`, …

use crate::device::BlockDevice;
use crate::error::IqResult;
use crate::model::SimClock;
use iq_obs::{Counter, Histogram, Registry};
use std::time::Instant;

/// A [`BlockDevice`] wrapper that counts and times every operation under
/// a stage label.
pub struct ObservedDevice {
    inner: Box<dyn BlockDevice>,
    reads: Counter,
    writes: Counter,
    read_errors: Counter,
    write_errors: Counter,
    blocks_read: Counter,
    blocks_written: Counter,
    read_seconds: Histogram,
    write_seconds: Histogram,
}

impl ObservedDevice {
    /// Wraps `inner`, registering this stage's metrics on `registry` as
    /// `dev_<stage>_*`.
    pub fn new(inner: Box<dyn BlockDevice>, registry: &Registry, stage: &str) -> Self {
        let name = |suffix: &str| format!("dev_{stage}_{suffix}");
        ObservedDevice {
            inner,
            reads: registry.counter(&name("reads_total")),
            writes: registry.counter(&name("writes_total")),
            read_errors: registry.counter(&name("read_errors_total")),
            write_errors: registry.counter(&name("write_errors_total")),
            blocks_read: registry.counter(&name("blocks_read_total")),
            blocks_written: registry.counter(&name("blocks_written_total")),
            read_seconds: registry.histogram(&name("read_seconds")),
            write_seconds: registry.histogram(&name("write_seconds")),
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &dyn BlockDevice {
        self.inner.as_ref()
    }
}

impl BlockDevice for ObservedDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_blocks(&self, clock: &mut SimClock, start: u64, buf: &mut [u8]) -> IqResult<()> {
        let timed = self.read_seconds.enabled().then(Instant::now);
        let res = self.inner.read_blocks(clock, start, buf);
        if let Some(t0) = timed {
            self.read_seconds.observe(t0.elapsed().as_secs_f64());
            self.reads.inc();
            self.blocks_read
                .add((buf.len() / self.inner.block_size().max(1)) as u64);
            if res.is_err() {
                self.read_errors.inc();
            }
        }
        res
    }

    fn append(&mut self, clock: &mut SimClock, data: &[u8]) -> IqResult<u64> {
        let timed = self.write_seconds.enabled().then(Instant::now);
        let res = self.inner.append(clock, data);
        if let Some(t0) = timed {
            self.write_seconds.observe(t0.elapsed().as_secs_f64());
            self.writes.inc();
            self.blocks_written
                .add((data.len() / self.inner.block_size().max(1)) as u64);
            if res.is_err() {
                self.write_errors.inc();
            }
        }
        res
    }

    fn write_blocks(&mut self, clock: &mut SimClock, start: u64, data: &[u8]) -> IqResult<()> {
        let timed = self.write_seconds.enabled().then(Instant::now);
        let res = self.inner.write_blocks(clock, start, data);
        if let Some(t0) = timed {
            self.write_seconds.observe(t0.elapsed().as_secs_f64());
            self.writes.inc();
            self.blocks_written
                .add((data.len() / self.inner.block_size().max(1)) as u64);
            if res.is_err() {
                self.write_errors.inc();
            }
        }
        res
    }

    fn truncate_blocks(&mut self, clock: &mut SimClock, nblocks: u64) -> IqResult<()> {
        let timed = self.write_seconds.enabled().then(Instant::now);
        let res = self.inner.truncate_blocks(clock, nblocks);
        if let Some(t0) = timed {
            self.write_seconds.observe(t0.elapsed().as_secs_f64());
            self.writes.inc();
            if res.is_err() {
                self.write_errors.inc();
            }
        }
        res
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
    use crate::MemDevice;

    #[test]
    fn observed_device_is_transparent_and_counts() {
        let reg = Registry::new();
        let mut dev = ObservedDevice::new(Box::new(MemDevice::new(64)), &reg, "base");
        let mut clock = SimClock::default();
        dev.append(&mut clock, &[3u8; 64 * 2]).unwrap();
        let got = dev.read_to_vec(&mut clock, 0, 2).unwrap();
        assert_eq!(got, vec![3u8; 128]);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["dev_base_writes_total"], 1);
        assert_eq!(snap.counters["dev_base_blocks_written_total"], 2);
        assert_eq!(snap.counters["dev_base_reads_total"], 1);
        assert_eq!(snap.counters["dev_base_blocks_read_total"], 2);
        assert_eq!(snap.counters["dev_base_read_errors_total"], 0);
        assert_eq!(snap.histograms["dev_base_read_seconds"].count, 1);
    }

    #[test]
    fn disabled_registry_records_nothing_but_io_still_works() {
        let reg = Registry::disabled();
        let mut dev = ObservedDevice::new(Box::new(MemDevice::new(64)), &reg, "q");
        let mut clock = SimClock::default();
        dev.append(&mut clock, &[9u8; 64]).unwrap();
        assert_eq!(dev.read_to_vec(&mut clock, 0, 1).unwrap(), vec![9u8; 64]);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["dev_q_reads_total"], 0);
        assert_eq!(snap.histograms["dev_q_read_seconds"].count, 0);
    }

    #[test]
    fn read_errors_are_counted() {
        let reg = Registry::new();
        let dev = ObservedDevice::new(Box::new(MemDevice::new(64)), &reg, "e");
        let mut clock = SimClock::default();
        let mut buf = [0u8; 64];
        assert!(dev.read_blocks(&mut clock, 99, &mut buf).is_err());
        assert_eq!(reg.snapshot().counters["dev_e_read_errors_total"], 1);
    }
}
