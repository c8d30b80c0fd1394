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
//! - [`json`] — the byte-stable JSON reader/writer behind run reports and
//!   manifests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod graph;
pub mod json;

pub use artifact::Artifact;
pub use graph::{GraphRun, Manifest, RunOptions, TaskCtx, TaskGraph, TaskOutput, TaskStatus};
