//! Bounded retry with backoff for transient device faults.
//!
//! Only errors classified transient by [`IqError::is_transient`] are
//! retried; corruption and format errors surface immediately. Each retry
//! charges the simulated clock an exponentially growing backoff delay and
//! bumps the [`IoStats::io_retries`] counter, so the cost of recovering
//! from flaky I/O shows up in experiment results like everything else.
//!
//! [`IoStats::io_retries`]: crate::model::IoStats

use crate::device::BlockDevice;
use crate::error::{IqError, IqResult};
use crate::model::SimClock;

/// Retry budget and backoff schedule for transient faults.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retries.
    pub max_attempts: u32,
    /// Simulated backoff before the first retry, in seconds; doubles each
    /// further retry.
    pub base_backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: 0.001,
        }
    }
}

impl RetryPolicy {
    /// Runs `op` up to `max_attempts` times, retrying only transient
    /// errors, charging backoff to `clock` before each retry.
    pub fn run<T>(
        &self,
        clock: &mut SimClock,
        mut op: impl FnMut(&mut SimClock) -> IqResult<T>,
    ) -> IqResult<T> {
        let attempts = self.max_attempts.max(1);
        let mut backoff = self.base_backoff;
        let mut last = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                clock.note_retry();
                clock.charge_cpu_seconds(backoff);
                backoff *= 2.0;
            }
            match op(clock) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(IqError::RetriesExhausted {
            attempts,
            last: Box::new(last.expect("at least one attempt ran")),
        })
    }
}

/// [`BlockDevice::read_to_vec`] with transient-fault retries under
/// [`RetryPolicy::default`]: the one read retry policy of every engine.
pub fn read_to_vec_retry(
    dev: &dyn BlockDevice,
    clock: &mut SimClock,
    start: u64,
    n: u64,
) -> IqResult<Vec<u8>> {
    let mut buf = vec![0u8; (n as usize) * dev.block_size()];
    RetryPolicy::default().run(clock, |clock| dev.read_blocks(clock, start, &mut buf))?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transient(block: u64) -> IqError {
        IqError::Io {
            op: "read",
            block,
            transient: true,
            detail: "flaky".into(),
        }
    }

    #[test]
    fn retries_transient_until_success() {
        let mut clock = SimClock::default();
        let mut fails = 2;
        let got = RetryPolicy::default().run(&mut clock, |_| {
            if fails > 0 {
                fails -= 1;
                Err(transient(0))
            } else {
                Ok(42)
            }
        });
        assert_eq!(got, Ok(42));
        assert_eq!(clock.stats().io_retries, 2);
        assert!(clock.cpu_time() > 0.0, "backoff was charged");
    }

    #[test]
    fn permanent_errors_surface_immediately() {
        let mut clock = SimClock::default();
        let err = RetryPolicy::default()
            .run::<()>(&mut clock, |_| {
                Err(IqError::ChecksumMismatch {
                    block: 7,
                    stored: 0,
                    computed: 1,
                })
            })
            .unwrap_err();
        assert!(err.is_corruption());
        assert_eq!(clock.stats().io_retries, 0, "no retry of corruption");
    }

    #[test]
    fn exhaustion_reports_attempts_and_last_error() {
        let mut clock = SimClock::default();
        let err = RetryPolicy::default()
            .run::<()>(&mut clock, |_| Err(transient(5)))
            .unwrap_err();
        match err {
            IqError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 4);
                assert!(last.is_transient());
            }
            other => panic!("unexpected error: {other}"),
        }
        assert_eq!(clock.stats().io_retries, 3);
    }

    #[test]
    fn backoff_doubles() {
        let mut clock = SimClock::default();
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: 0.001,
        };
        let _ = policy.run::<()>(&mut clock, |_| Err(transient(0)));
        // 1ms + 2ms + 4ms of simulated backoff.
        assert!((clock.cpu_time() - 0.007).abs() < 1e-12);
    }

    #[test]
    fn a_single_attempt_never_retries() {
        let mut clock = SimClock::default();
        let mut calls = 0;
        let policy = RetryPolicy {
            max_attempts: 1,
            base_backoff: 0.0,
        };
        let _ = policy.run::<()>(&mut clock, |_| {
            calls += 1;
            Err(transient(0))
        });
        assert_eq!(calls, 1);
    }
}
