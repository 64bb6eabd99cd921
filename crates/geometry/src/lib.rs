//! Geometric primitives for high-dimensional index structures.
//!
//! This crate provides the building blocks shared by the IQ-tree and its
//! baselines: flat point storage ([`Dataset`]), minimum bounding rectangles
//! ([`Mbr`]), the metrics used by the paper ([`Metric`]: Euclidean, maximum
//! and Manhattan), and the volume computations the cost model is built on —
//! hypersphere volumes, Minkowski sums of boxes and spheres, and
//! box/sphere intersection volumes (equations 5 and 8–12 of the ICDE 2000
//! IQ-tree paper).

#![forbid(unsafe_code)]

pub mod mbr;
pub mod metric;
pub mod partition;
pub mod point;
pub mod volume;

pub use mbr::Mbr;
pub use metric::Metric;
pub use partition::{
    block_aligned_order, bulk_partition, split_at_median, split_in_place, Partition,
};
pub use point::Dataset;
