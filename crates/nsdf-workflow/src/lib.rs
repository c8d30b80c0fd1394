//! # nsdf-workflow
//!
//! The workflow engine for the four-step training pipeline (paper Figs.
//! 3–4):
//!
//! - [`graph`] — the task-graph engine: typed task nodes with explicit
//!   data dependencies (including GEOtiled halo-exchange edges),
//!   ready-queue wave scheduling over a work-stealing pool on the shared
//!   virtual clock, failure isolation to the dependent cone, a run report
//!   with per-wave timeline and artifact lineage, and hash-verified
//!   incremental recompute backed by a persistent fingerprint manifest on
//!   any object store.
//! - [`artifact`] — the descriptor (name, size, checksum, location) of
//!   one stored object a task produced.
//! - [`json`] — [`nsdf_util::json`], the workspace's one JSON module, in
//!   which run reports and manifests are written and read back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod graph;
pub use nsdf_util::json;

pub use artifact::Artifact;
pub use graph::{GraphRun, Manifest, RunOptions, TaskCtx, TaskGraph, TaskOutput, TaskStatus};
