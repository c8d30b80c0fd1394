//! # nsdf-somospie
//!
//! SOMOSPIE-class soil-moisture spatial inference (paper §I, ref \[8\]): a
//! KNN regressor over terrain predictors and a downscaling pipeline that
//! reconstructs fine-resolution moisture from coarse satellite-like
//! observations, with a synthetic-truth generator replacing the gated
//! ESA-CCI retrievals (substitution documented in DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod knn;
pub mod moisture;
pub mod tile;
pub mod validate;

pub use knn::KnnRegressor;
pub use moisture::{downscale_knn, SyntheticTruth};
pub use tile::{downscale_tile, TileMoistureParams};
pub use validate::select_k;
