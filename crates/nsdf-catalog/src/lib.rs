//! # nsdf-catalog
//!
//! NSDF-Catalog-class lightweight indexing service (paper §III-B),
//! rebuilt as a log-structured merge engine: writes land in a durable WAL
//! before becoming visible, memtables checkpoint into immutable sorted
//! segments persisted through any `ObjectStore` (so the index rides the
//! WAN simulator, tier cache, scheduler, and chaos stacks unchanged), and
//! leveled compaction with per-segment bloom filters keeps point lookups
//! near one segment probe. The production service indexes 1.59 billion
//! records; benchmarks here bulk-load ten million and report measured
//! bloom false-positive rates, amplification, and virtual-time
//! throughput.
//!
//! * [`record`] — the indexed record and its wire encodings;
//! * `memtable` — sorted mutable write buffer, one per shard;
//! * `bloom` — per-segment bloom filters (no false negatives);
//! * `segment` — immutable sorted runs, each one sealed envelope, read
//!   through a checked, borrowed record view;
//! * `manifest` — sealed text manifests and WAL batches;
//! * `compact` — the one newest-wins k-way merge (scans, compaction, bulk
//!   load) with dedup accounting; compaction moves record bodies as bytes;
//! * [`engine`] — [`Catalog`]: the public service tying it together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bloom;
mod compact;
pub mod engine;
mod manifest;
mod memtable;
pub mod record;
mod segment;

pub use engine::{Catalog, CatalogConfig, CatalogStats};
pub use record::Record;
