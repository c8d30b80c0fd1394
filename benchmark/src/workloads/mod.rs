//! The four workloads. Each module documents what it runs, why it exists
//! and what it counts as one user-visible op.

pub mod catalog;
pub mod classroom;
pub mod ingest;
pub mod pipeline;

use crate::workload::Rep;
use nsdf_util::Result;

/// Seed-derived inputs of one workload, generated once per process.
pub enum Inputs {
    /// See [`pipeline`].
    Pipeline(pipeline::Inputs),
    /// See [`ingest`].
    Ingest(ingest::Inputs),
    /// See [`classroom`].
    Classroom(Box<classroom::Inputs>),
    /// See [`catalog`].
    Catalog(catalog::Inputs),
}

impl Inputs {
    /// Generate the inputs of workload `name` from `seed`; `None` for an
    /// unknown name.
    pub fn generate(name: &str, seed: u64, quick: bool) -> Option<Inputs> {
        Some(match name {
            "pipeline" => Inputs::Pipeline(pipeline::generate(seed, quick)),
            "ingest" => Inputs::Ingest(ingest::generate(seed, quick)),
            "classroom" => Inputs::Classroom(Box::new(classroom::generate(seed, quick))),
            "catalog" => Inputs::Catalog(catalog::generate(seed, quick)),
            _ => return None,
        })
    }

    /// Wall seconds input generation took (part of `setup_s`).
    pub fn generate_s(&self) -> f64 {
        match self {
            Inputs::Pipeline(i) => i.generate_s,
            Inputs::Ingest(i) => i.generate_s,
            Inputs::Classroom(i) => i.generate_s,
            Inputs::Catalog(i) => i.generate_s,
        }
    }

    /// Repetition number `rep` — set-up on a fresh stack, then the
    /// measured phase — on the plain stack or the traced one.
    pub fn run(&self, traced: bool, rep: usize) -> Result<Rep> {
        match self {
            Inputs::Pipeline(i) => pipeline::run(i, traced),
            Inputs::Ingest(i) => ingest::run(i, traced),
            Inputs::Classroom(i) => classroom::run(i, traced, rep),
            Inputs::Catalog(i) => catalog::run(i, traced),
        }
    }

    /// How many different sessions the repetitions cycle through:
    /// repetition `r` replays the inputs of repetition `r - sessions()`, so
    /// the two must agree in every virtual time and count, and the report
    /// pools the first `sessions()` repetitions.
    pub fn sessions(&self) -> usize {
        match self {
            Inputs::Classroom(_) => classroom::SESSIONS,
            _ => 1,
        }
    }
}
