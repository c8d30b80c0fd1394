//! # nsdf-plugin
//!
//! NSDF-Plugin-class network monitoring (paper §III-B): a physical model of
//! the eight-site US testbed, all-pairs latency/throughput probe campaigns,
//! and measurement-driven entry-point selection — the decision the service
//! exists to inform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod probe;
pub mod testbed;

pub use probe::{run_campaign, select_entry_point, select_entry_point_oracle};
pub use testbed::Testbed;
