//! # nsdf-idx
//!
//! The IDX multi-resolution data format — this workspace's reproduction of
//! the OpenVisus data fabric underlying the NSDF dashboard (paper §III-A,
//! §IV-B). Data is reorganised along the hierarchical Z order
//! ([`nsdf_hz`]), chunked into fixed-size blocks, compressed with any
//! [`nsdf_compress::Codec`], and stored as objects in any
//! [`nsdf_storage::ObjectStore`] — local disk, memory, or a simulated
//! cloud. Queries are storage-oblivious: callers name a region, a
//! resolution level, and a field, and the dataset reads only the blocks it
//! needs.
//!
//! * [`meta`] — the text `.idx` header ([`IdxMeta`], [`Field`]);
//! * [`dataset`] — [`IdxDataset`], one type for 2-D grids and 3-D volumes,
//!   with write, box and sub-volume queries, z-slices, progressive read;
//! * [`layout`] — HZ vs Z vs row-major block-touch ablation baselines;
//! * [`session`] — stateful interactive [`QuerySession`]s over a 2-D view
//!   or a volume's z-slices, with per-frame planning against a resident
//!   set, cancellation, and speculative prefetch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod layout;
pub mod meta;
pub mod session;

pub use dataset::{CodecThroughput, IdxDataset, QueryStats, WriteStats};
pub use layout::{blocks_touched, Layout};
pub use meta::{Field, IdxMeta};
pub use session::{CancelToken, QuerySession, SessionFrame, SessionStats};
