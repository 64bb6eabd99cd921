//! LRU block buffer cache.
//!
//! The paper's experiments (like most index evaluations of its era) assume
//! cold queries: every block access pays the disk. Real installations put
//! a buffer pool in front of the disk. [`CachedDevice`] wraps any
//! [`BlockDevice`] with an LRU cache of block frames:
//!
//! * a read whose blocks are *all* resident is served from memory and
//!   charges nothing to the simulated clock,
//! * any miss reads the whole requested range through to the device
//!   (charged as usual) and populates the cache,
//! * writes are write-through and update resident frames.
//!
//! The all-or-nothing policy keeps the cost semantics of ranged reads
//! simple and conservative: a partially resident run still pays the full
//! sweep, exactly like a real scatter-limited disk schedule would.
//! [`BlockDevice::is_resident`] tells a planner ahead of time which blocks
//! would be hits, without touching the LRU order or the counters.
//! [`DeviceStack::cache`](crate::DeviceStack::cache) puts the pool above
//! the checksum layer, so frames hold only verified bytes; a failed read
//! populates nothing.
//!
//! # Thread safety
//!
//! Reads take `&self` (matching [`BlockDevice`]) and may run from many
//! threads sharing one device. Internally the frame pool is split into
//! shards, each guarded by its own mutex and running an independent LRU;
//! a block lives in shard `block % nshards`, so concurrent readers
//! touching different blocks rarely contend. Small caches use a single
//! shard and behave exactly like a global LRU. Writes keep `&mut self`
//! and are therefore exclusive, like every other device.

use crate::device::BlockDevice;
use crate::error::IqResult;
use crate::model::SimClock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Doubly-linked LRU list over slab indices.
struct LruList {
    prev: Vec<usize>,
    next: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

const NIL: usize = usize::MAX;

/// Frames per shard below which sharding stops paying for itself; also the
/// shard-count cap. Capacities up to one shard's worth keep a single global
/// LRU (identical behavior to the unsharded cache).
const FRAMES_PER_SHARD: usize = 64;
const MAX_SHARDS: usize = 16;

impl LruList {
    fn new() -> Self {
        Self {
            prev: Vec::new(),
            next: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn push_front(&mut self, slot: usize) {
        if slot >= self.prev.len() {
            self.prev.resize(slot + 1, NIL);
            self.next.resize(slot + 1, NIL);
        }
        self.prev[slot] = NIL;
        self.next[slot] = self.head;
        if self.head != NIL {
            self.prev[self.head] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (p, n) = (self.prev[slot], self.next[slot]);
        if p != NIL {
            self.next[p] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n] = p;
        } else {
            self.tail = p;
        }
    }

    fn touch(&mut self, slot: usize) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.push_front(slot);
    }

    fn pop_lru(&mut self) -> Option<usize> {
        let slot = self.tail;
        if slot == NIL {
            return None;
        }
        self.unlink(slot);
        Some(slot)
    }
}

/// Cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Ranged reads fully served from memory.
    pub hits: u64,
    /// Ranged reads that went to the device.
    pub misses: u64,
    /// Frames evicted.
    pub evictions: u64,
}

/// One lock's worth of frames: an independent LRU over the blocks hashed
/// to this shard.
struct Shard {
    capacity: usize,
    /// block index -> slot in `frames`.
    map: HashMap<u64, usize>,
    /// Frame slab; parallel to `blocks_of` (which block a slot holds).
    frames: Vec<Vec<u8>>,
    blocks_of: Vec<u64>,
    free: Vec<usize>,
    lru: LruList,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::with_capacity(capacity),
            frames: Vec::new(),
            blocks_of: Vec::new(),
            free: Vec::new(),
            lru: LruList::new(),
        }
    }

    /// Copies the frame for `block` into `out` and marks it recently used.
    fn read_frame(&mut self, block: u64, out: &mut [u8]) -> bool {
        match self.map.get(&block) {
            Some(&slot) => {
                out.copy_from_slice(&self.frames[slot]);
                self.lru.touch(slot);
                true
            }
            None => false,
        }
    }

    /// Returns the number of evictions performed (0 or 1).
    fn insert_frame(&mut self, block: u64, data: Vec<u8>) -> u64 {
        if let Some(&slot) = self.map.get(&block) {
            self.frames[slot] = data;
            self.lru.touch(slot);
            return 0;
        }
        let mut evicted = 0;
        if self.map.len() >= self.capacity {
            if let Some(victim) = self.lru.pop_lru() {
                let old = self.blocks_of[victim];
                self.map.remove(&old);
                self.free.push(victim);
                evicted = 1;
            }
        }
        let slot = if let Some(slot) = self.free.pop() {
            self.frames[slot] = data;
            self.blocks_of[slot] = block;
            slot
        } else {
            self.frames.push(data);
            self.blocks_of.push(block);
            self.frames.len() - 1
        };
        self.map.insert(block, slot);
        self.lru.push_front(slot);
        evicted
    }
}

/// A sharded LRU cache of block frames in front of any [`BlockDevice`].
pub struct CachedDevice {
    inner: Box<dyn BlockDevice>,
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Global-registry mirrors of the counters above (near-no-ops while
    /// the registry is disabled).
    m_hits: iq_obs::Counter,
    m_misses: iq_obs::Counter,
    m_evictions: iq_obs::Counter,
}

impl CachedDevice {
    /// Wraps `inner` with a cache of `capacity_blocks` frames.
    ///
    /// # Panics
    /// Panics if `capacity_blocks == 0`.
    pub fn new(inner: Box<dyn BlockDevice>, capacity_blocks: usize) -> Self {
        assert!(capacity_blocks > 0, "cache needs at least one frame");
        let nshards = (capacity_blocks / FRAMES_PER_SHARD).clamp(1, MAX_SHARDS);
        let base = capacity_blocks / nshards;
        let rem = capacity_blocks % nshards;
        let shards = (0..nshards)
            .map(|i| Mutex::new(Shard::new(base + usize::from(i < rem))))
            .collect();
        let reg = iq_obs::global();
        Self {
            inner,
            shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            m_hits: reg.counter("cache_hits_total"),
            m_misses: reg.counter("cache_misses_total"),
            m_evictions: reg.counter("cache_evictions_total"),
        }
    }

    fn shard(&self, block: u64) -> &Mutex<Shard> {
        &self.shards[(block % self.shards.len() as u64) as usize]
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of resident frames.
    pub fn resident(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Total frame capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").capacity)
            .sum()
    }

    /// Drops all resident frames and statistics (simulates a cold
    /// restart).
    pub fn clear(&mut self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            let cap = shard.capacity;
            *shard = Shard::new(cap);
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    fn insert_frame(&self, block: u64, data: Vec<u8>) {
        let evicted = self
            .shard(block)
            .lock()
            .expect("cache shard poisoned")
            .insert_frame(block, data);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            self.m_evictions.add(evicted);
        }
    }
}

impl BlockDevice for CachedDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_blocks(&self, clock: &mut SimClock, start: u64, buf: &mut [u8]) -> IqResult<()> {
        let bs = self.block_size();
        assert_eq!(buf.len() % bs, 0, "partial-block read");
        let nblocks = (buf.len() / bs) as u64;
        // Optimistically serve from the cache block by block; the first
        // miss falls through to a full device read (all-or-nothing), which
        // overwrites whatever was already copied.
        let mut all_resident = true;
        for i in 0..nblocks {
            let off = (i as usize) * bs;
            let served = self
                .shard(start + i)
                .lock()
                .expect("cache shard poisoned")
                .read_frame(start + i, &mut buf[off..off + bs]);
            if !served {
                all_resident = false;
                break;
            }
        }
        if all_resident {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.m_hits.inc();
            clock.note_cache_hit();
            return Ok(());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.m_misses.inc();
        clock.note_cache_miss();
        // On failure nothing is cached: a later retry must hit the device
        // again, and corrupt bytes never become resident frames.
        self.inner.read_blocks(clock, start, buf)?;
        for i in 0..nblocks {
            let off = (i as usize) * bs;
            self.insert_frame(start + i, buf[off..off + bs].to_vec());
        }
        Ok(())
    }

    fn append(&mut self, clock: &mut SimClock, data: &[u8]) -> IqResult<u64> {
        let bs = self.block_size();
        let start = self.inner.append(clock, data)?;
        let nblocks = data.len().div_ceil(bs);
        for i in 0..nblocks {
            let lo = i * bs;
            let mut frame = vec![0u8; bs];
            let hi = ((i + 1) * bs).min(data.len());
            frame[..hi - lo].copy_from_slice(&data[lo..hi]);
            self.insert_frame(start + i as u64, frame);
        }
        Ok(start)
    }

    fn write_blocks(&mut self, clock: &mut SimClock, start: u64, data: &[u8]) -> IqResult<()> {
        let bs = self.block_size();
        self.inner.write_blocks(clock, start, data)?;
        for (i, chunk) in data.chunks_exact(bs).enumerate() {
            self.insert_frame(start + i as u64, chunk.to_vec());
        }
        Ok(())
    }

    fn truncate_blocks(&mut self, clock: &mut SimClock, nblocks: u64) -> IqResult<()> {
        self.inner.truncate_blocks(clock, nblocks)?;
        // Cheapest correct invalidation: drop every resident frame (frames
        // at or past the new length must not survive; truncation is rare).
        self.clear();
        Ok(())
    }

    fn device_id(&self) -> u64 {
        self.inner.device_id()
    }

    /// True when the block has a frame: a read of it would be a hit. Only
    /// looks the block up in its shard's frame map.
    fn is_resident(&self, block: u64) -> bool {
        self.shard(block)
            .lock()
            .expect("cache shard poisoned")
            .map
            .contains_key(&block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpuModel, DiskModel, MemDevice};

    fn setup(cap: usize) -> (CachedDevice, SimClock) {
        let clock = SimClock::new(DiskModel::default(), CpuModel::free());
        let dev = CachedDevice::new(Box::new(MemDevice::new(64)), cap);
        (dev, clock)
    }

    #[test]
    fn repeated_reads_are_free() {
        let (mut dev, mut clock) = setup(8);
        dev.append(&mut clock, &vec![7u8; 64 * 4]).unwrap();
        clock.reset();
        dev.clear();
        let a = dev.read_to_vec(&mut clock, 0, 2).unwrap();
        let t1 = clock.io_time();
        assert!(t1 > 0.0);
        let b = dev.read_to_vec(&mut clock, 0, 2).unwrap();
        assert_eq!(a, b);
        assert_eq!(clock.io_time(), t1, "second read must be free");
        assert_eq!(dev.stats().hits, 1);
        assert_eq!(dev.stats().misses, 1);
    }

    #[test]
    fn clock_io_stats_mirror_cache_hits_and_misses() {
        let (mut dev, mut clock) = setup(8);
        dev.append(&mut clock, &vec![7u8; 64 * 4]).unwrap();
        clock.reset();
        dev.clear();
        dev.read_to_vec(&mut clock, 0, 2).unwrap(); // miss
        dev.read_to_vec(&mut clock, 0, 2).unwrap(); // hit
        dev.read_to_vec(&mut clock, 0, 1).unwrap(); // hit
        assert_eq!(clock.stats().cache_hits, 2);
        assert_eq!(clock.stats().cache_misses, 1);
        assert_eq!(dev.stats().hits, 2);
        assert_eq!(dev.stats().misses, 1);
    }

    #[test]
    fn partial_residency_reads_through() {
        let (mut dev, mut clock) = setup(8);
        dev.append(&mut clock, &vec![1u8; 64 * 4]).unwrap();
        dev.clear();
        clock.reset();
        dev.read_to_vec(&mut clock, 0, 1).unwrap(); // block 0 resident
        let t1 = clock.io_time();
        dev.read_to_vec(&mut clock, 0, 2).unwrap(); // block 1 missing -> full read
        assert!(clock.io_time() > t1);
        assert_eq!(dev.stats().misses, 2);
    }

    #[test]
    fn eviction_respects_lru_order() {
        let (mut dev, mut clock) = setup(2);
        dev.append(&mut clock, &vec![9u8; 64 * 4]).unwrap();
        dev.clear();
        dev.read_to_vec(&mut clock, 0, 1).unwrap();
        dev.read_to_vec(&mut clock, 1, 1).unwrap();
        dev.read_to_vec(&mut clock, 0, 1).unwrap(); // touch 0: LRU is now 1
        dev.read_to_vec(&mut clock, 2, 1).unwrap(); // evicts 1
        assert_eq!(dev.stats().evictions, 1);
        clock.reset();
        dev.read_to_vec(&mut clock, 0, 1).unwrap(); // still resident
        assert_eq!(clock.io_time(), 0.0);
        dev.read_to_vec(&mut clock, 1, 1).unwrap(); // was evicted
        assert!(clock.io_time() > 0.0);
    }

    #[test]
    fn writes_update_resident_frames() {
        let (mut dev, mut clock) = setup(4);
        dev.append(&mut clock, &[0u8; 64 * 2]).unwrap();
        dev.read_to_vec(&mut clock, 0, 1).unwrap();
        dev.write_blocks(&mut clock, 0, &[0xEEu8; 64]).unwrap();
        clock.reset();
        let got = dev.read_to_vec(&mut clock, 0, 1).unwrap();
        assert_eq!(got, vec![0xEEu8; 64]);
        assert_eq!(clock.io_time(), 0.0, "served from the updated frame");
    }

    #[test]
    fn cache_is_transparent_for_contents() {
        // Interleave reads/writes; cached contents must equal an uncached
        // device fed the same operations.
        let mut plain = MemDevice::new(32);
        let mut cached = CachedDevice::new(Box::new(MemDevice::new(32)), 3);
        let mut clock = SimClock::new(DiskModel::default(), CpuModel::free());
        let mut c2 = SimClock::new(DiskModel::default(), CpuModel::free());
        for i in 0..10u8 {
            let data = vec![i; 32];
            plain.append(&mut c2, &data).unwrap();
            cached.append(&mut clock, &data).unwrap();
        }
        for step in 0..50u64 {
            let b = (step * 7) % 10;
            assert_eq!(
                plain.read_to_vec(&mut c2, b, 1),
                cached.read_to_vec(&mut clock, b, 1),
                "block {b}"
            );
            if step % 3 == 0 {
                let data = vec![(step % 251) as u8; 32];
                plain.write_blocks(&mut c2, b, &data).unwrap();
                cached.write_blocks(&mut clock, b, &data).unwrap();
            }
        }
        // The cached device must have paid no more than the plain one.
        assert!(clock.io_time() <= c2.io_time());
    }

    #[test]
    fn clear_forgets_everything() {
        let (mut dev, mut clock) = setup(4);
        dev.append(&mut clock, &[3u8; 64]).unwrap();
        dev.read_to_vec(&mut clock, 0, 1).unwrap();
        assert!(dev.resident() > 0);
        dev.clear();
        assert_eq!(dev.resident(), 0);
        clock.reset();
        dev.read_to_vec(&mut clock, 0, 1).unwrap();
        assert!(clock.io_time() > 0.0);
    }

    #[test]
    fn is_resident_is_true_only_for_blocks_with_a_frame() {
        let (mut dev, mut clock) = setup(8);
        dev.append(&mut clock, &vec![4u8; 64 * 4]).unwrap();
        dev.clear();
        assert!(!dev.is_resident(0), "cold pool");
        dev.read_to_vec(&mut clock, 1, 2).unwrap();
        assert!(dev.is_resident(1));
        assert!(dev.is_resident(2));
        assert!(!dev.is_resident(0), "block 0 has no frame");
        assert!(!dev.is_resident(3), "block 3 has no frame");
        assert!(!dev.is_resident(4), "past the end");
    }

    #[test]
    fn is_resident_is_false_after_clear_and_eviction() {
        let (mut dev, mut clock) = setup(2);
        dev.append(&mut clock, &vec![6u8; 64 * 4]).unwrap();
        dev.clear();
        dev.read_to_vec(&mut clock, 0, 2).unwrap();
        assert!(dev.is_resident(0) && dev.is_resident(1));
        dev.read_to_vec(&mut clock, 2, 1).unwrap(); // evicts block 0
        assert!(!dev.is_resident(0), "evicted");
        assert!(dev.is_resident(1) && dev.is_resident(2));
        dev.clear();
        assert!(!dev.is_resident(1), "cleared");
        assert!(!dev.is_resident(2), "cleared");
    }

    #[test]
    fn is_resident_changes_no_lru_order_counter_or_clock() {
        let (mut dev, mut clock) = setup(2);
        dev.append(&mut clock, &vec![8u8; 64 * 4]).unwrap();
        dev.clear();
        clock.reset();
        dev.read_to_vec(&mut clock, 0, 1).unwrap();
        dev.read_to_vec(&mut clock, 1, 1).unwrap(); // LRU is now block 0
        let (stats, io, clock_stats) = (dev.stats(), clock.io_time(), clock.stats());
        for _ in 0..3 {
            assert!(dev.is_resident(0));
            assert!(!dev.is_resident(2));
        }
        assert_eq!(dev.stats(), stats, "hit/miss counters moved");
        assert_eq!(clock.io_time(), io, "clock charged");
        assert_eq!(clock.stats(), clock_stats, "clock counters moved");
        // Asking about block 0 did not make it recently used: the next
        // miss still evicts it, not block 1.
        dev.read_to_vec(&mut clock, 2, 1).unwrap();
        assert!(!dev.is_resident(0));
        assert!(dev.is_resident(1));
    }

    #[test]
    fn sharded_capacity_is_preserved_and_bounded() {
        let (mut dev, mut clock) = setup(640); // 10 shards of 64
        assert_eq!(dev.capacity(), 640);
        dev.append(&mut clock, &vec![5u8; 64 * 1000]).unwrap();
        dev.clear();
        for b in 0..1000u64 {
            dev.read_to_vec(&mut clock, b, 1).unwrap();
        }
        assert!(dev.resident() <= 640, "resident {}", dev.resident());
        assert!(dev.stats().evictions > 0);
    }

    #[test]
    fn concurrent_readers_see_correct_bytes() {
        let mut dev = CachedDevice::new(Box::new(MemDevice::new(64)), 256);
        let mut clock = SimClock::new(DiskModel::default(), CpuModel::free());
        for i in 0..64u64 {
            dev.append(&mut clock, &[(i % 251) as u8; 64]).unwrap();
        }
        let dev = &dev;
        std::thread::scope(|s| {
            for t in 0..8u64 {
                s.spawn(move || {
                    let mut c = SimClock::new(DiskModel::default(), CpuModel::free());
                    for round in 0..200u64 {
                        let b = (round * 13 + t * 7) % 64;
                        let got = dev.read_to_vec(&mut c, b, 1).unwrap();
                        assert_eq!(got, vec![(b % 251) as u8; 64], "block {b}");
                    }
                });
            }
        });
        let stats = dev.stats();
        assert_eq!(stats.hits + stats.misses, 8 * 200);
    }
}
