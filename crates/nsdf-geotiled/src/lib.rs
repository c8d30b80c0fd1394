//! # nsdf-geotiled
//!
//! GEOtiled-class terrain parameter pipeline (paper §IV-A, Fig. 5): the
//! tutorial's Step 1 "data generation" stage, built from scratch.
//!
//! * [`dem`] — deterministic synthetic DEMs (fractal, analytic hills,
//!   planes) standing in for USGS 30 m downloads;
//! * [`terrain`] — Horn-method elevation/slope/aspect/hillshade kernels;
//! * [`tiling`] — tile-parallel computation with halo regions proving the
//!   "partitioning preserves accuracy" claim bit-exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dem;
pub mod terrain;
pub mod tiling;

pub use dem::{DemConfig, DemEdit, DemKind};
pub use terrain::{compute_terrain, Sun, TerrainParam};
pub use tiling::{compute_terrain_tiled, TilePlan};
