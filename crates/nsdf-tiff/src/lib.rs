//! # nsdf-tiff
//!
//! Minimal TIFF 6.0 implementation for the GEOtiled pipeline: little-endian
//! single-band grayscale rasters (`u8`/`u16`/`u32`/`f32`), strip
//! organisation, no compression or PackBits, plus the GeoTIFF
//! `ModelPixelScale`/`ModelTiepoint` tags. This is the "TIFF file" side of
//! the tutorial's Step 2 TIFF→IDX conversion (paper §IV-B).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod reader;
pub mod writer;

pub use format::TiffCompression;
pub use reader::{read_tiff, tiff_info};
pub use writer::write_tiff;
