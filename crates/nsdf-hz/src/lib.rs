//! # nsdf-hz
//!
//! Morton (Z) and hierarchical Z (HZ) space-filling curves — the data
//! reorganisation scheme at the heart of the OpenVisus/IDX framework that
//! the NSDF dashboard is built on (paper §III-A).
//!
//! * [`bitmask`] — IDX-style `V0101…` masks generalising the interleave to
//!   rectangular, non-power-of-two, up to 3-D grids;
//! * [`hz`] — the hierarchical reordering into resolution levels, plus
//!   per-level region iteration used by progressive box queries and the
//!   row walk ([`HzCurve::row_block_offsets`]) IDX scatters and gathers on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmask;
pub mod hz;
#[cfg(test)]
mod morton;

pub use bitmask::BitMask;
pub use hz::HzCurve;
