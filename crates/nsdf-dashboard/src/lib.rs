//! # nsdf-dashboard
//!
//! The NSDF dashboard engine (paper §III-A, Fig. 7), headless: dataset and
//! field dropdowns, time slider with playback speed control, zoom/pan with
//! automatic resolution selection, a resolution slider, progressive
//! refinement, palette and range controls, horizontal/vertical slices, a
//! z-plane flythrough of 3-D datasets, and the snipping tool that extracts
//! a region plus a Python re-extraction script. Frames render to in-memory
//! RGB images with PPM output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod colormap;
pub mod dashboard;
pub mod render;

pub use colormap::Colormap;
pub use dashboard::{Dashboard, FrameInfo, Playback};
pub use render::{render, render_difference, Image, RangeMode};
