//! # nsdf-fuse
//!
//! NSDF-FUSE-class virtual filesystem over object storage (paper §III-B).
//! The real service mounts S3-compatible stores through kernel FUSE; this
//! reproduction keeps the interesting part — the *mapping packages* that
//! translate file operations into object requests — as an in-process
//! library, which is exactly what the mapping-package benchmarks measure.
//!
//! * [`mapping`] — one-to-one / chunked / packed strategies;
//! * [`vfs`] — the [`VirtualFs`] file API over any store;
//! * [`workload`] — NSDF-FUSE-style op-mix benchmarks over simulated WANs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mapping;
pub mod vfs;
pub mod workload;

pub use mapping::Mapping;
pub use vfs::VirtualFs;
pub use workload::{run_workload, FuseBenchResult, OpMix};
