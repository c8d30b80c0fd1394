//! # nsdf-storage
//!
//! Object storage for the NSDF stack: the trait everything above speaks,
//! concrete backends, a deterministic WAN simulator standing in for the
//! public (Dataverse-class) and private (Seal-class) clouds of the
//! tutorial, and the cache layer OpenVisus-style streaming relies on.
//!
//! * [`store`] — the [`ObjectStore`] trait, key validation, ranged reads;
//! * [`memory`] — in-memory backend;
//! * [`local`] — filesystem backend;
//! * [`wan`] — [`wan::CloudStore`] WAN wrapper with [`wan::NetworkProfile`]s
//!   and a per-stream link timeline that [`wan::UploadLanes`] issue on;
//! * [`fault`] — scripted, seeded chaos: [`fault::FaultPlan`] windows
//!   (outages, latency spikes, error bursts, corruption) executed by
//!   [`fault::FaultStore`] on the virtual clock;
//! * [`reliability`] — the resilience stack: failure injection, retries
//!   with hedged backup waves, a per-endpoint circuit breaker, and
//!   checksum verification;
//! * [`sched`] — the multi-tenant shared-WAN admission layer: priority
//!   tiers and per-tenant token buckets, deterministic on the virtual
//!   clock;
//! * [`fleet`] — a seeded synthetic fleet generator (open-loop arrivals,
//!   zipf dataset popularity) driving the scheduler at population scale;
//! * [`testkit`] — deterministic crash/gate injection stores shared by
//!   the recovery and ordering test batteries;
//! * [`tiercache`] — [`tiercache::TierCache`], the one read cache: a
//!   byte-budgeted, single-flight, TinyLFU-admitted (scan-resistant) RAM
//!   tier over an optional persistent content-addressed disk tier with
//!   integrity-checked promotion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod fleet;
pub mod local;
pub mod memory;
pub mod reliability;
pub mod sched;
pub mod store;
pub mod testkit;
pub mod tiercache;
pub mod wan;

pub use fault::{FaultPlan, FaultStore};
pub use fleet::{FleetSim, FleetSpec, LatencySummary};
pub use local::LocalStore;
pub use memory::MemoryStore;
pub use reliability::{
    BreakerPolicy, BreakerStore, EndpointPolicy, FailScope, HedgePolicy, IntegrityStore,
    RetryPolicy, RetryStore,
};
pub use sched::{Priority, SchedConfig, SchedStore, Scheduler, TenantId, TenantPolicy};
pub use store::{validate_key, ObjectMeta, ObjectStore};
pub use testkit::{CrashPoint, CrashSpec, CrashStore, GateStore};
pub use tiercache::{hash_to_path, TierCache};
pub use wan::{CloudStore, NetworkProfile, UploadLanes};
