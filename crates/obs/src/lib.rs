//! Observability layer for the IQ-tree reproduction.
//!
//! Every piece is dependency-free, so every other crate can use it:
//!
//! - [`Registry`]: lock-cheap named metrics — atomic [`Counter`]s,
//!   [`Gauge`]s and log-bucketed [`Histogram`]s — with Prometheus-text
//!   and JSON exposition and snapshot diffing. A process-wide instance
//!   lives behind [`global`], disabled by default: every handle guards
//!   its update with one relaxed atomic load, so the disabled path is a
//!   near-no-op.
//! - [`Phase`] / [`PhaseTimes`]: the five k-NN pipeline phases
//!   (directory, plan, filter, refine, top-k) and per-phase
//!   simulated + wall time, which `SimClock` attributes during queries.
//! - [`CostAudit`]: accumulates cost-model predictions vs observed
//!   values and reports relative-error distributions.
//! - [`TraceTree`] / [`TraceBuilder`]: hierarchical span trees recorded
//!   by `SimClock` when tracing is enabled — phase leaves carry exactly
//!   the deltas added to `PhaseTimes`, explicit spans carry
//!   engine/knob/filter annotations and candidate counters. Exports as
//!   pretty text and Chrome trace-event JSON (Perfetto-loadable).
//! - [`SlowLog`]: a 1-in-N sampler plus bounded top-K-slowest retention
//!   of full trace trees, JSON-persistable for `iq stats --slow`.
//! - [`TelemetryWindow`]: a bounded ring of periodic [`Snapshot`]s with
//!   diff-derived counter rates and window-restricted percentiles.
//! - [`json`]: a minimal parser for reading those artifacts back.

pub mod audit;
pub mod histogram;
pub mod json;
pub mod phase;
pub mod registry;
pub mod slowlog;
pub mod tracetree;
pub mod window;

pub use audit::{AuditSummary, CostAudit, CostPrediction};
pub use histogram::{bucket_bounds, bucket_index, HistogramSnapshot};
pub use json::JsonValue;
pub use phase::{Phase, PhaseTimes, PHASES};
pub use registry::{global, Counter, Gauge, Histogram, Registry, Snapshot};
pub use slowlog::{SlowEntry, SlowLog};
pub use tracetree::{TraceBuilder, TraceNode, TraceTree};
pub use window::{TelemetryWindow, WindowReport};
