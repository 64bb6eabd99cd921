//! Block devices: in-memory and file-backed.

use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{IqError, IqResult};
use crate::model::SimClock;

static NEXT_DEVICE_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) fn fresh_device_id() -> u64 {
    NEXT_DEVICE_ID.fetch_add(1, Ordering::Relaxed)
}

/// A device storing an array of fixed-size blocks.
///
/// All reads and writes charge the passed [`SimClock`]; the clock — not the
/// backend — is the source of truth for simulated time, so in-memory and
/// file-backed devices report identical costs.
///
/// Reads take `&self` so many query threads can share one device; each
/// thread brings its own clock. Writes take `&mut self` and therefore
/// require exclusive access. The `Send + Sync` supertrait makes
/// `Box<dyn BlockDevice>` shareable across scoped threads.
pub trait BlockDevice: Send + Sync {
    /// The block size in bytes (fixed per device).
    fn block_size(&self) -> usize;

    /// Number of blocks currently stored.
    fn num_blocks(&self) -> u64;

    /// Reads `buf.len() / block_size` blocks starting at block `start` into
    /// `buf`.
    ///
    /// Fails with [`IqError::OutOfBounds`] if the range exceeds the device
    /// (corrupt metadata can point anywhere) and [`IqError::Io`] on device
    /// failures, real or injected.
    ///
    /// # Panics
    /// Panics if `buf.len()` is not a multiple of the block size
    /// (programmer error: callers size buffers, data never does).
    fn read_blocks(&self, clock: &mut SimClock, start: u64, buf: &mut [u8]) -> IqResult<()>;

    /// Appends `data` (padded to whole blocks with zeros) and returns the
    /// starting block index.
    fn append(&mut self, clock: &mut SimClock, data: &[u8]) -> IqResult<u64>;

    /// Overwrites blocks starting at `start` with `data` (must be whole
    /// blocks).
    fn write_blocks(&mut self, clock: &mut SimClock, start: u64, data: &[u8]) -> IqResult<()>;

    /// Shrinks the device to `nblocks` blocks, discarding everything after.
    ///
    /// Growing is an error ([`IqError::OutOfBounds`]); devices that cannot
    /// shed blocks (read-only backends) keep the default, which fails with
    /// a non-transient [`IqError::Io`]. Used by WAL truncation and by
    /// checkpoint compaction of the exact level.
    fn truncate_blocks(&mut self, _clock: &mut SimClock, nblocks: u64) -> IqResult<()> {
        Err(IqError::Io {
            op: "truncate",
            block: nblocks,
            transient: false,
            detail: "truncate unsupported by this device".into(),
        })
    }

    /// Stable identifier used by the clock to track head position.
    fn device_id(&self) -> u64;

    /// Whether a read of `block` would be served without charging the
    /// clock: true only when a buffer pool in the stack holds it. The
    /// answer is advisory (a concurrent reader may evict the frame before
    /// the read) and asking changes nothing: no LRU order, counter or
    /// clock. Devices without a pool keep the default, `false`; wrappers
    /// forward it.
    fn is_resident(&self, _block: u64) -> bool {
        false
    }

    /// Convenience: reads `n` blocks starting at `start` into a fresh
    /// buffer.
    fn read_to_vec(&self, clock: &mut SimClock, start: u64, n: u64) -> IqResult<Vec<u8>> {
        let mut buf = vec![0u8; (n as usize) * self.block_size()];
        self.read_blocks(clock, start, &mut buf)?;
        Ok(buf)
    }
}

/// An in-memory block device (the default experiment backend: datasets of
/// the paper's scale fit comfortably in RAM and runs are deterministic).
#[derive(Debug)]
pub struct MemDevice {
    block_size: usize,
    data: Vec<u8>,
    id: u64,
}

impl MemDevice {
    /// Creates an empty device with the given block size.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0);
        Self {
            block_size,
            data: Vec::new(),
            id: fresh_device_id(),
        }
    }

    /// Creates a device pre-loaded with a raw byte image (must be a whole
    /// number of blocks). Used by crash-simulation tests to restore
    /// snapshots taken with [`MemDevice::contents`].
    pub fn from_contents(block_size: usize, data: Vec<u8>) -> Self {
        assert!(block_size > 0);
        assert_eq!(data.len() % block_size, 0, "partial-block image");
        Self {
            block_size,
            data,
            id: fresh_device_id(),
        }
    }

    /// The raw byte image of the device (all blocks, in order).
    pub fn contents(&self) -> &[u8] {
        &self.data
    }
}

impl BlockDevice for MemDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        (self.data.len() / self.block_size) as u64
    }

    fn read_blocks(&self, clock: &mut SimClock, start: u64, buf: &mut [u8]) -> IqResult<()> {
        assert_eq!(buf.len() % self.block_size, 0, "partial-block read");
        let nblocks = (buf.len() / self.block_size) as u64;
        if start + nblocks > self.num_blocks() {
            return Err(IqError::OutOfBounds {
                op: "read",
                start,
                nblocks,
                available: self.num_blocks(),
            });
        }
        let off = (start as usize) * self.block_size;
        buf.copy_from_slice(&self.data[off..off + buf.len()]);
        clock.charge_read(self.id, start, nblocks);
        Ok(())
    }

    fn append(&mut self, clock: &mut SimClock, data: &[u8]) -> IqResult<u64> {
        let start = self.num_blocks();
        let nblocks = data.len().div_ceil(self.block_size) as u64;
        self.data.extend_from_slice(data);
        self.data
            .resize((start + nblocks) as usize * self.block_size, 0);
        clock.charge_write(self.id, start, nblocks);
        Ok(start)
    }

    fn write_blocks(&mut self, clock: &mut SimClock, start: u64, data: &[u8]) -> IqResult<()> {
        assert_eq!(data.len() % self.block_size, 0, "partial-block write");
        let nblocks = (data.len() / self.block_size) as u64;
        if start + nblocks > self.num_blocks() {
            return Err(IqError::OutOfBounds {
                op: "write",
                start,
                nblocks,
                available: self.num_blocks(),
            });
        }
        let off = (start as usize) * self.block_size;
        self.data[off..off + data.len()].copy_from_slice(data);
        clock.charge_write(self.id, start, nblocks);
        Ok(())
    }

    fn truncate_blocks(&mut self, clock: &mut SimClock, nblocks: u64) -> IqResult<()> {
        if nblocks > self.num_blocks() {
            return Err(IqError::OutOfBounds {
                op: "truncate",
                start: nblocks,
                nblocks: 0,
                available: self.num_blocks(),
            });
        }
        self.data.truncate((nblocks as usize) * self.block_size);
        clock.charge_write(self.id, nblocks, 1);
        Ok(())
    }

    fn device_id(&self) -> u64 {
        self.id
    }
}

/// A file-backed block device (functional realism; simulated costs are
/// charged identically to [`MemDevice`]).
#[derive(Debug)]
pub struct FileDevice {
    block_size: usize,
    file: File,
    num_blocks: u64,
    id: u64,
}

impl FileDevice {
    /// Creates (truncating) a file-backed device at `path`.
    pub fn create(path: &Path, block_size: usize) -> io::Result<Self> {
        assert!(block_size > 0);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            block_size,
            file,
            num_blocks: 0,
            id: fresh_device_id(),
        })
    }

    /// Opens an existing device file; its length must be a multiple of the
    /// block size.
    pub fn open(path: &Path, block_size: usize) -> io::Result<Self> {
        assert!(block_size > 0);
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % block_size as u64 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file length is not a multiple of the block size",
            ));
        }
        Ok(Self {
            block_size,
            file,
            num_blocks: len / block_size as u64,
            id: fresh_device_id(),
        })
    }
}

/// Maps an OS error to [`IqError::Io`]; interrupted syscalls are transient.
fn io_error(op: &'static str, block: u64, e: &io::Error) -> IqError {
    IqError::Io {
        op,
        block,
        transient: e.kind() == io::ErrorKind::Interrupted,
        detail: e.to_string(),
    }
}

impl BlockDevice for FileDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    fn read_blocks(&self, clock: &mut SimClock, start: u64, buf: &mut [u8]) -> IqResult<()> {
        use std::os::unix::fs::FileExt;
        assert_eq!(buf.len() % self.block_size, 0, "partial-block read");
        let nblocks = (buf.len() / self.block_size) as u64;
        if start + nblocks > self.num_blocks {
            return Err(IqError::OutOfBounds {
                op: "read",
                start,
                nblocks,
                available: self.num_blocks,
            });
        }
        self.file
            .read_exact_at(buf, start * self.block_size as u64)
            .map_err(|e| io_error("read", start, &e))?;
        clock.charge_read(self.id, start, nblocks);
        Ok(())
    }

    fn append(&mut self, clock: &mut SimClock, data: &[u8]) -> IqResult<u64> {
        use std::os::unix::fs::FileExt;
        let start = self.num_blocks;
        let nblocks = data.len().div_ceil(self.block_size) as u64;
        let mut padded = data.to_vec();
        padded.resize(nblocks as usize * self.block_size, 0);
        self.file
            .write_all_at(&padded, start * self.block_size as u64)
            .map_err(|e| io_error("append", start, &e))?;
        self.num_blocks += nblocks;
        clock.charge_write(self.id, start, nblocks);
        Ok(start)
    }

    fn write_blocks(&mut self, clock: &mut SimClock, start: u64, data: &[u8]) -> IqResult<()> {
        use std::os::unix::fs::FileExt;
        assert_eq!(data.len() % self.block_size, 0, "partial-block write");
        let nblocks = (data.len() / self.block_size) as u64;
        if start + nblocks > self.num_blocks {
            return Err(IqError::OutOfBounds {
                op: "write",
                start,
                nblocks,
                available: self.num_blocks,
            });
        }
        self.file
            .write_all_at(data, start * self.block_size as u64)
            .map_err(|e| io_error("write", start, &e))?;
        clock.charge_write(self.id, start, nblocks);
        Ok(())
    }

    fn truncate_blocks(&mut self, clock: &mut SimClock, nblocks: u64) -> IqResult<()> {
        if nblocks > self.num_blocks {
            return Err(IqError::OutOfBounds {
                op: "truncate",
                start: nblocks,
                nblocks: 0,
                available: self.num_blocks,
            });
        }
        self.file
            .set_len(nblocks * self.block_size as u64)
            .map_err(|e| io_error("truncate", nblocks, &e))?;
        self.num_blocks = nblocks;
        clock.charge_write(self.id, nblocks, 1);
        Ok(())
    }

    fn device_id(&self) -> u64 {
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(dev: &mut dyn BlockDevice) {
        let mut clock = SimClock::default();
        let bs = dev.block_size();
        let a = vec![0xAAu8; bs];
        let b = vec![0xBBu8; 2 * bs];
        let s0 = dev.append(&mut clock, &a).unwrap();
        let s1 = dev.append(&mut clock, &b).unwrap();
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert_eq!(dev.num_blocks(), 3);

        let got = dev.read_to_vec(&mut clock, 1, 2).unwrap();
        assert_eq!(got, b);

        let c = vec![0xCCu8; bs];
        dev.write_blocks(&mut clock, 0, &c).unwrap();
        let got = dev.read_to_vec(&mut clock, 0, 1).unwrap();
        assert_eq!(got, c);
    }

    #[test]
    fn mem_device_roundtrip() {
        roundtrip(&mut MemDevice::new(64));
    }

    #[test]
    fn file_device_roundtrip() {
        let dir = std::env::temp_dir().join(format!("iq-storage-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.bin");
        roundtrip(&mut FileDevice::create(&path, 64).unwrap());
        // Reopen and check persistence.
        let dev = FileDevice::open(&path, 64).unwrap();
        assert_eq!(dev.num_blocks(), 3);
        let mut clock = SimClock::default();
        assert_eq!(dev.read_to_vec(&mut clock, 0, 1).unwrap(), vec![0xCCu8; 64]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_pads_partial_blocks() {
        let mut dev = MemDevice::new(16);
        let mut clock = SimClock::default();
        dev.append(&mut clock, &[1u8; 10]).unwrap();
        assert_eq!(dev.num_blocks(), 1);
        let got = dev.read_to_vec(&mut clock, 0, 1).unwrap();
        assert_eq!(&got[..10], &[1u8; 10]);
        assert_eq!(&got[10..], &[0u8; 6]);
    }

    #[test]
    fn read_out_of_bounds_is_an_error() {
        let dev = MemDevice::new(16);
        let mut clock = SimClock::default();
        let mut buf = vec![0u8; 16];
        let err = dev.read_blocks(&mut clock, 0, &mut buf).unwrap_err();
        assert!(matches!(
            err,
            IqError::OutOfBounds {
                op: "read",
                start: 0,
                nblocks: 1,
                available: 0
            }
        ));
        // Failed reads charge no simulated time.
        assert_eq!(clock.io_time(), 0.0);
    }

    #[test]
    fn write_out_of_bounds_is_an_error() {
        let mut dev = MemDevice::new(16);
        let mut clock = SimClock::default();
        let err = dev.write_blocks(&mut clock, 5, &[0u8; 16]).unwrap_err();
        assert!(matches!(err, IqError::OutOfBounds { op: "write", .. }));
    }

    #[test]
    fn shared_reads_from_many_threads() {
        let mut dev = MemDevice::new(64);
        let mut clock = SimClock::default();
        for i in 0..8u8 {
            dev.append(&mut clock, &[i; 64]).unwrap();
        }
        let dev: &dyn BlockDevice = &dev;
        std::thread::scope(|s| {
            for t in 0..4u8 {
                s.spawn(move || {
                    let mut c = SimClock::default();
                    for round in 0..16u64 {
                        let b = (round + u64::from(t)) % 8;
                        let got = dev.read_to_vec(&mut c, b, 1).unwrap();
                        assert_eq!(got, vec![b as u8; 64]);
                    }
                });
            }
        });
    }

    #[test]
    fn identical_costs_mem_vs_file() {
        let dir = std::env::temp_dir().join(format!("iq-storage-cost-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut mem = MemDevice::new(64);
        let mut file = FileDevice::create(&dir.join("d.bin"), 64).unwrap();
        let mut c1 = SimClock::default();
        let mut c2 = SimClock::default();
        let data = vec![7u8; 64 * 5];
        mem.append(&mut c1, &data).unwrap();
        file.append(&mut c2, &data).unwrap();
        mem.read_to_vec(&mut c1, 2, 2).unwrap();
        file.read_to_vec(&mut c2, 2, 2).unwrap();
        assert_eq!(c1.io_time(), c2.io_time());
        assert_eq!(c1.stats(), c2.stats());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
