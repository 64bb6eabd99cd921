//! Synthetic data sets and fractal-dimension estimation.
//!
//! The paper evaluates on UNIFORM plus three proprietary real data sets
//! (CAD, COLOR, WEATHER). The real sets are unavailable, so [`generate`]
//! provides synthetic analogues engineered to have the *properties the
//! paper's analysis depends on* (degree of clustering and fractal
//! dimension); see DESIGN.md for the substitution argument. [`fractal`]
//! implements the correlation fractal-dimension estimator the cost model
//! uses to correct for those properties.

#![forbid(unsafe_code)]

pub mod attrs;
pub mod fractal;
pub mod generate;
pub mod ingest;
pub mod io;
pub mod workload;

pub use attrs::{AttrTable, Predicate};
pub use fractal::{correlation_dimension, correlation_dimension_auto};
pub use generate::{cad_like, clusters, color_like, manifold, uniform, weather_like};
pub use ingest::{
    read_auto, read_bvecs, read_fvecs, read_vec_csv, write_bvecs, write_fvecs, write_vec_csv,
    VectorDataset,
};
pub use io::write_csv;
pub use workload::Workload;
