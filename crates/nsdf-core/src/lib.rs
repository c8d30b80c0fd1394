//! # nsdf-core
//!
//! The top of the NSDF stack: a client session over named storage
//! endpoints ([`client`]), the paper's four-step tutorial workflow as one
//! tile-level scheduled task DAG with incremental recompute ([`dag`],
//! Steps 1–2 and the read-back check) plus its static renders and
//! dashboard session ([`pipeline`], Steps 3–4), and the
//! tutorial-delivery / survey simulation behind Table I and Fig. 8
//! ([`tutorial`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod dag;
pub mod pipeline;
pub mod tutorial;

pub use client::{EndpointKind, EndpointPolicy, NsdfClient, StorageEndpoint};
pub use dag::{build_terrain_graph, run_terrain_dag, DagConfig, DagReport};
pub use pipeline::{run_tutorial, step_of, Interaction, StepRow};
pub use tutorial::{Background, Modality, Session, SurveyModel};
