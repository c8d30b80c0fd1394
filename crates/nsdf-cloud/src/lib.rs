//! # nsdf-cloud
//!
//! NSDF-Cloud-class ad-hoc compute clusters across academic and commercial
//! clouds (paper §III, Fig. 2's computing services; ref \[5\]). A simulated
//! federation of providers with realistic provisioning latency, cost, and
//! capacity shapes; a planner that drains free academic allocations before
//! bursting to commercial capacity under a cost ceiling; and an LPT bag-of-
//! jobs executor with makespan/cost/utilisation accounting on the shared
//! virtual clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod provider;

pub use cluster::{provision, ClusterRequest, Job, Node};
pub use provider::Provider;
