//! The IQ-tree cost model (ICDE 2000, Sections 2.2 and 3.4).
//!
//! Three cost components drive every decision the IQ-tree makes:
//!
//! * `T_1st` — linear scan of the flat first-level directory (eq 22),
//! * `T_2nd` — optimized reading of the selected second-level (quantized)
//!   pages (eqs 16–21),
//! * `T_3rd` — refinements: random look-ups of exact point coordinates
//!   whenever a query cannot be decided on a point's approximation
//!   (eqs 6–15).
//!
//! `T_3rd` is the page-local "variable cost" the optimal-quantization
//! algorithm orders its split candidates by; `T_1st + T_2nd` is the
//! "constant cost" shared by every partition and depending only on the
//! partition count. The model supports non-uniform data through the
//! correlation fractal dimension `D_F` (eqs 13–15).
//!
//! The crate also provides the access probability of a data page during a
//! nearest-neighbor descent (eqs 2–5), which the time-optimized page-access
//! strategy of Section 2.1 trades against seek savings.

#![forbid(unsafe_code)]

pub mod access_prob;
pub mod directory;
pub mod refine;

pub use access_prob::{access_probability, fraction_in_ball, GapSums};
pub use directory::{
    expected_pages_accessed, expected_pages_accessed_knn, first_level_cost, second_level_cost,
    total_cost, DirectoryParams,
};
pub use refine::{
    expected_distinct_blocks, expected_refinements, expected_refinements_knn, refinement_cost,
    RefineParams,
};
