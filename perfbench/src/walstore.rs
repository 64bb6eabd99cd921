//! A `WalStore` that times the log from outside: it forwards every call
//! to a `FileWal` and adds up what `append` and `sync` cost.

use iq_storage::{FileWal, IqResult, SimClock, WalStore};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Totals since the store was made. Read a copy before and after an
/// operation to attribute the difference to it.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalTotals {
    pub appends: u64,
    pub bytes: u64,
    pub append_s: f64,
    pub sync_s: f64,
}

impl WalTotals {
    pub fn since(&self, earlier: &WalTotals) -> WalTotals {
        WalTotals {
            appends: self.appends - earlier.appends,
            bytes: self.bytes - earlier.bytes,
            append_s: self.append_s - earlier.append_s,
            sync_s: self.sync_s - earlier.sync_s,
        }
    }
}

pub struct TimedWal {
    inner: FileWal,
    totals: Arc<Mutex<WalTotals>>,
}

impl TimedWal {
    /// Wraps `inner`; the returned handle reads the running totals.
    pub fn new(inner: FileWal) -> (Self, Arc<Mutex<WalTotals>>) {
        let totals = Arc::new(Mutex::new(WalTotals::default()));
        (
            TimedWal {
                inner,
                totals: totals.clone(),
            },
            totals,
        )
    }

    fn record(&self, f: impl FnOnce(&mut WalTotals)) {
        f(&mut self.totals.lock().expect("wal totals lock poisoned"));
    }
}

impl WalStore for TimedWal {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn append(&mut self, clock: &mut SimClock, bytes: &[u8]) -> IqResult<()> {
        let t0 = Instant::now();
        let res = self.inner.append(clock, bytes);
        let dt = t0.elapsed().as_secs_f64();
        self.record(|t| {
            t.appends += 1;
            t.bytes += bytes.len() as u64;
            t.append_s += dt;
        });
        res
    }

    fn read_at(&self, clock: &mut SimClock, off: u64, buf: &mut [u8]) -> IqResult<()> {
        self.inner.read_at(clock, off, buf)
    }

    fn sync(&mut self, clock: &mut SimClock) -> IqResult<()> {
        let t0 = Instant::now();
        let res = self.inner.sync(clock);
        let dt = t0.elapsed().as_secs_f64();
        self.record(|t| t.sync_s += dt);
        res
    }

    fn truncate(&mut self, clock: &mut SimClock, len: u64) -> IqResult<()> {
        self.inner.truncate(clock, len)
    }

    fn device_id(&self) -> u64 {
        self.inner.device_id()
    }
}
