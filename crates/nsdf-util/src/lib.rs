//! # nsdf-util
//!
//! Shared substrate for the `nsdf-rs` workspace — the Rust reproduction of
//! the NSDF training stack (Taufer et al., SC 2024).
//!
//! This crate holds the types every other crate speaks:
//!
//! * [`error`] — the workspace-wide error/result types;
//! * [`dtype`] — scalar sample types and their byte encodings;
//! * [`raster`] — the dense 2-D [`raster::Raster`] array;
//! * [`volume`] — the dense 3-D [`volume::Volume`] array;
//! * [`geo`] — integer boxes, geotransforms, great-circle distance;
//! * [`stats`] — accuracy metrics (RMSE/PSNR), streaming stats, histograms;
//! * [`par`] — crossbeam-based fork-join parallel helpers;
//! * [`obs`] — the unified metrics registry + virtual-clock span tracer;
//! * [`clock`] — the deterministic virtual clock driving all simulations;
//! * [`meta`] — the text key/value metadata format used by `.idx` headers;
//! * [`hash`] — content checksums and seed derivation.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod clock;
pub mod dtype;
pub mod error;
pub mod geo;
pub mod hash;
pub mod meta;
pub mod obs;
pub mod par;
pub mod raster;
pub mod stats;
pub mod volume;

pub use clock::{secs_to_ns, SimClock};
pub use dtype::{bytes_to_samples, samples_to_bytes, DType, Sample};
pub use error::{NsdfError, Result};
pub use geo::{haversine_km, Box2i, Box3i, GeoTransform, LatLon};
pub use hash::{derive_seed, fnv1a64, splitmix64, Fnv1a};
pub use meta::Meta;
pub use obs::{Counter, Gauge, HistogramMetric, MetricsSnapshot, Obs, SpanGuard, SpanNode};
pub use raster::Raster;
pub use stats::{AccuracyReport, Histogram, OnlineStats};
pub use volume::Volume;
