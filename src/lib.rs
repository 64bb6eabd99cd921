//! Umbrella crate for the IQ-tree reproduction (ICDE 2000).
//!
//! Re-exports the whole workspace behind one dependency so examples and
//! downstream users can write `use iqtree_repro::...`:
//!
//! * [`tree`] — the IQ-tree itself (the paper's contribution),
//! * [`geometry`], [`storage`] (devices and the buffer pool), [`quantize`],
//!   [`cost`] — the substrates,
//! * [`wal`] — the checksummed write-ahead log behind crash-consistent updates,
//! * [`obs`] — metrics registry, spans, phase times and cost auditing,
//! * [`data`] — synthetic data sets and fractal-dimension estimation,
//! * [`scan`], [`vafile`], [`xtree`] — the baselines of the evaluation,
//! * [`engine`] — the unified query layer ([`engine::AccessMethod`] and
//!   its one query method, `run`, the shared batch executor) with the
//!   [`engines`] factory building any of the four methods behind one
//!   trait object.
//!
//! # Quickstart
//!
//! ```
//! use iqtree_repro::data::{self, Workload};
//! use iqtree_repro::engine::{AccessMethod, Query};
//! use iqtree_repro::geometry::Metric;
//! use iqtree_repro::storage::{MemDevice, SimClock};
//! use iqtree_repro::tree::{IqTree, IqTreeOptions};
//!
//! // 2 000 uniform points in 8 dimensions, 5 held out as queries.
//! let w = Workload::generate(2_000, 5, |n| data::uniform(8, n, 42));
//! let mut clock = SimClock::default();
//! let tree = IqTree::build(
//!     &w.db,
//!     Metric::Euclidean,
//!     IqTreeOptions::default(),
//!     || Box::new(MemDevice::new(8192)),
//!     &mut clock,
//! );
//! clock.reset();
//! let (hits, _) = tree.run(&mut clock, &Query::knn(w.queries.point(0), 1))?.into_ranked();
//! let (id, dist) = hits[0];
//! assert!(dist >= 0.0 && (id as usize) < w.db.len());
//! println!("nn = {id} at {dist:.4} (simulated {:.1} ms)", clock.total_time() * 1e3);
//! // A query the index cannot answer is a typed error, not a panic.
//! assert!(tree.run(&mut clock, &Query::knn(&[0.5; 3], 1)).is_err());
//! # Ok::<(), iqtree_repro::storage::IqError>(())
//! ```

#![forbid(unsafe_code)]

pub use iq_bench as bench;
pub use iq_cost as cost;
pub use iq_data as data;
pub use iq_engine as engine;
pub use iq_geometry as geometry;
pub use iq_obs as obs;
pub use iq_quantize as quantize;
pub use iq_scan as scan;
pub use iq_storage as storage;
pub use iq_tree as tree;
pub use iq_vafile as vafile;
pub use iq_wal as wal;
pub use iq_xtree as xtree;

pub mod engines;

pub use engines::{build_engine, build_engine_with, EngineKind, EngineOptions};
