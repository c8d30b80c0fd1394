//! Scheduled task-graph engine with hash-verified incremental recompute.
//!
//! The workspace's one workflow runtime — the tile-level terrain DAG
//! and the four-step tutorial built on it run here. Tasks are typed nodes
//! with explicit data dependencies (GEOtiled halo-exchange edges make a
//! terrain tile depend on its DEM tile plus up to eight neighbors), and a
//! ready-queue scheduler runs each wave of independent tasks on a
//! work-stealing thread pool over the shared virtual clock.
//!
//! # Determinism contract
//!
//! The simulated WAN charges multiplicative jitter keyed to a global
//! operation counter and the tier cache admits by access order, so
//! *store traffic issued from worker threads would be racy*. The engine
//! therefore splits tasks into two kinds:
//!
//! - **parallel** tasks are pure functions of their prefetched inputs:
//!   the engine loads every consumed artifact on the caller thread, the
//!   closure computes and returns payloads, and the engine persists
//!   those payloads on the caller thread. Virtual time advances by the
//!   *maximum* compute charge of the wave — the tasks ran concurrently.
//! - **exclusive** tasks run serialized on the caller thread and may
//!   talk to object stores directly (dataset creation, IDX ingest,
//!   read-back validation). Virtual time advances by each task's own
//!   charge. Small results they only need stored (a digest) are better
//!   handed back as payloads, so they ride the wave's batch.
//!
//! The engine's own traffic is *batched per wave*: at most four store
//! calls, always in this order, each listing its objects in (task id,
//! output index) order — a pure function of the graph, never of thread
//! timing:
//!
//! 1. one `head_many` over the recorded outputs of every ready task
//!    whose fingerprint matches the manifest;
//! 2. one `get_many` over the distinct input artifacts the wave's
//!    executing tasks consume that no earlier task of this run left in
//!    memory, each checksum-verified before use;
//! 3. one `put_many` of every payload the wave's parallel tasks
//!    returned, right after the parallel compute;
//! 4. one `put_many` of the payloads its exclusive tasks returned.
//!
//! # Issued uploads
//!
//! A run owns one [`UploadLanes`] that never binds
//! ([`UploadLanes::unbounded`]), and calls 3 and 4, and every exclusive
//! task's closure between them, run in its issue frame. A
//! [`nsdf_storage::CloudStore`] below therefore *issues* each upload wave
//! on its link timeline: the call returns with per-key results at once,
//! without waiting for a stream, since every upload holds a lane of its
//! own; only the link's streams and byte rate delay an upload, and the
//! uploads run on under the following compute. An
//! exclusive task's own `put_many` waves (`IdxDataset::write_raster`'s)
//! are issued the same way. The uploads issued in wave `n` are joined at
//! the end of wave `n + 1`: a one-deep pipeline, in which an upload
//! overlaps the next wave's work and no more, so a chain of one-task
//! waves (the sequential baseline) cannot hide its whole upload time
//! under its compute. The last wave joins every upload and then saves
//! the manifest, so a manifest never names an object still in flight.
//! Blocking calls (calls 1 and 2, an exclusive task's reads) are placed
//! on the same timeline: each takes every stream from the link's drain
//! (its busiest stream) and is joined at once, so a read never overtakes
//! a write in virtual time. Over a store with no `CloudStore` below, the frame changes
//! nothing.
//!
//! A batch is per-object, not all-or-nothing. A head that fails or
//! mismatches re-executes its task. A task with an input that could not
//! be fetched or failed its checksum, or with a payload whose put
//! failed, is [`TaskStatus::Failed`] *alone*: none of its outputs reach
//! its record, later tasks or the manifest, only its dependent cone is
//! skipped, and the other tasks of the same batch are unaffected.
//! Because a batched `put_many` has no defined order between two items
//! with one key, a task that repeats an artifact name or object key
//! already produced in this run (up-to-date tasks included) fails with
//! `duplicate artifact` before anything of it is sent; within a batch
//! the task with the larger id is the duplicate.
//!
//! With that split, two runs of the same graph on the same seed produce
//! byte-identical run reports and manifests even at different thread
//! counts.
//!
//! # Incremental recompute
//!
//! Every task hashes its definition plus the content checksums of every
//! input artifact into a fingerprint. Fingerprints and output artifact
//! descriptors persist in a [`Manifest`] on any [`ObjectStore`]. On a
//! rerun, a task whose fingerprint matches the manifest *and* whose
//! outputs still verify by `head` (size + checksum) is marked
//! [`TaskStatus::UpToDate`] and skipped. Because fingerprints hash
//! recomputed *content*, a re-executed upstream task that reproduces
//! byte-identical output cuts the dirty cone off early.

use crate::artifact::Artifact;
use nsdf_storage::{ObjectStore, UploadLanes};
use nsdf_util::json::{hex_u64, parse_hex_u64, JsonValue};
use nsdf_util::{Fnv1a, NsdfError, Result, SimClock};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One prefetched input artifact handed to a task closure.
#[derive(Debug, Clone)]
pub struct TaskInput {
    /// Descriptor of the artifact (name, size, checksum, location).
    pub artifact: Artifact,
    /// Verified payload bytes.
    pub bytes: Arc<Vec<u8>>,
}

/// Execution context passed to a task closure.
pub struct TaskCtx {
    clock: SimClock,
    inputs: Vec<TaskInput>,
    compute_ns: u64,
}

impl TaskCtx {
    /// The shared virtual clock (read-only use from parallel tasks; the
    /// engine advances it on the caller thread).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// All prefetched inputs, in dependency order.
    pub fn inputs(&self) -> &[TaskInput] {
        &self.inputs
    }

    /// The input artifact named `name`.
    pub(crate) fn input(&self, name: &str) -> Result<&TaskInput> {
        self.inputs
            .iter()
            .find(|i| i.artifact.name == name)
            .ok_or_else(|| NsdfError::invalid(format!("task input {name:?} not found")))
    }

    /// The payload bytes of the input artifact named `name`.
    pub fn input_bytes(&self, name: &str) -> Result<&[u8]> {
        Ok(self.input(name)?.bytes.as_slice())
    }

    /// Charge virtual compute time to this task. Parallel tasks in one
    /// wave overlap: the wave advances the clock by the maximum charge.
    pub fn charge_compute_ns(&mut self, ns: u64) {
        self.compute_ns = self.compute_ns.saturating_add(ns);
    }
}

/// What a task hands back to the engine.
pub enum TaskOutput {
    /// A byte payload the *engine* persists (on the caller thread, in
    /// its wave's one `put_many`) — the only output kind parallel tasks
    /// may return.
    Payload {
        /// Artifact name (unique across the graph; a repeat fails the
        /// later task with `duplicate artifact`).
        name: String,
        /// Object key the payload is stored under (unique likewise).
        location: String,
        /// Payload bytes.
        bytes: Vec<u8>,
    },
    /// An artifact an *exclusive* task already persisted itself. It must
    /// carry the content checksum ([`Artifact::of_bytes`]): a consumer
    /// that has to fetch it verifies the bytes against it.
    Stored(Artifact),
}

impl TaskOutput {
    /// Convenience constructor for [`TaskOutput::Payload`].
    pub fn payload(
        name: impl Into<String>,
        location: impl Into<String>,
        bytes: Vec<u8>,
    ) -> TaskOutput {
        TaskOutput::Payload { name: name.into(), location: location.into(), bytes }
    }

    /// The artifact name and object key this output occupies.
    fn key(&self) -> (&str, &str) {
        match self {
            TaskOutput::Payload { name, location, .. } => (name, location),
            TaskOutput::Stored(a) => (&a.name, &a.location),
        }
    }
}

/// Final state of one task in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Executed this run.
    Succeeded,
    /// Fingerprint matched the manifest and outputs verified by hash —
    /// not re-executed.
    UpToDate,
    /// Closure (or its input prefetch / output persist) errored.
    Failed,
    /// Never ran because an upstream task failed or was skipped.
    Skipped,
}

impl TaskStatus {
    /// Stable wire name used in run-report JSON.
    pub(crate) fn wire_name(self) -> &'static str {
        match self {
            TaskStatus::Succeeded => "succeeded",
            TaskStatus::UpToDate => "up-to-date",
            TaskStatus::Failed => "failed",
            TaskStatus::Skipped => "skipped",
        }
    }
}

/// Execution record of one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Task name.
    pub name: String,
    /// Final status.
    pub status: TaskStatus,
    /// Scheduling wave the task was resolved in.
    pub wave: u64,
    /// Virtual compute charged by the closure (0 for up-to-date/skipped).
    pub compute_ns: u64,
    /// Input fingerprint (0 when skipped before fingerprinting).
    pub fingerprint: u64,
    /// Artifacts produced (for up-to-date tasks, from the manifest).
    pub produced: Vec<Artifact>,
    /// Names of input artifacts consumed.
    pub consumed: Vec<String>,
    /// Error message when failed.
    pub error: Option<String>,
}

impl TaskRecord {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("compute_ns", self.compute_ns.into()),
            ("consumed", self.consumed.iter().map(String::as_str).collect()),
            ("error", self.error.as_deref().map_or(JsonValue::Null, JsonValue::from)),
            ("fingerprint", hex_u64(self.fingerprint)),
            ("name", self.name.as_str().into()),
            ("produced", self.produced.iter().map(Artifact::to_json).collect()),
            ("status", self.status.wire_name().into()),
            ("wave", self.wave.into()),
        ])
    }
}

/// Report of one [`TaskGraph::run`], records in task-id order.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphRun {
    /// Graph name.
    pub name: String,
    /// One record per task, in task-id (insertion) order.
    pub records: Vec<TaskRecord>,
    /// Number of scheduling waves.
    pub waves: u64,
    /// Virtual time when the run started (ns).
    pub started_ns: u64,
    /// Virtual time when the run finished (ns).
    pub ended_ns: u64,
    /// Virtual time at the end of each wave (ns): wave `k` ran from
    /// `wave_ended_ns[k - 1]` (`started_ns` for the first) to
    /// `wave_ended_ns[k]`, and the last entry equals `ended_ns`. A wave's
    /// span holds its compute, its blocking store calls, the wait for its
    /// own uploads to start and the wait for the previous wave's uploads
    /// to end; the last wave's also holds the wait for every upload and
    /// the manifest save.
    pub wave_ended_ns: Vec<u64>,
}

impl GraphRun {
    /// True when every task succeeded or was verified up-to-date.
    pub fn succeeded(&self) -> bool {
        self.records
            .iter()
            .all(|r| matches!(r.status, TaskStatus::Succeeded | TaskStatus::UpToDate))
    }

    /// Number of tasks with the given status.
    pub fn count(&self, status: TaskStatus) -> usize {
        self.records.iter().filter(|r| r.status == status).count()
    }

    /// The record of the task named `name`.
    pub fn record(&self, name: &str) -> Option<&TaskRecord> {
        self.records.iter().find(|r| r.name == name)
    }

    /// Names of tasks that actually executed this run.
    pub fn executed(&self) -> Vec<&str> {
        self.records
            .iter()
            .filter(|r| r.status == TaskStatus::Succeeded)
            .map(|r| r.name.as_str())
            .collect()
    }

    /// First recorded task error, if any.
    pub fn first_error(&self) -> Option<&str> {
        self.records.iter().find_map(|r| r.error.as_deref())
    }

    /// The task that produced the artifact named `artifact`, if any.
    pub fn producer_of(&self, artifact: &str) -> Option<&TaskRecord> {
        self.records.iter().find(|r| r.produced.iter().any(|a| a.name == artifact))
    }

    /// Every task that consumed the artifact named `artifact`.
    pub fn consumers_of(&self, artifact: &str) -> Vec<&TaskRecord> {
        self.records.iter().filter(|r| r.consumed.iter().any(|c| c == artifact)).collect()
    }

    /// Virtual wall time of the run in seconds.
    pub fn virtual_secs(&self) -> f64 {
        (self.ended_ns.saturating_sub(self.started_ns)) as f64 / 1e9
    }

    /// Virtual seconds wave `wave` took, compute and store traffic alike;
    /// the waves tile `[started_ns, ended_ns]`. Zero for an index past the
    /// last wave, which tasks skipped after it carry.
    pub fn wave_secs(&self, wave: u64) -> f64 {
        let k = wave as usize;
        let Some(&end) = self.wave_ended_ns.get(k) else { return 0.0 };
        let start = if k == 0 { self.started_ns } else { self.wave_ended_ns[k - 1] };
        end.saturating_sub(start) as f64 / 1e9
    }

    /// The run report as a JSON document (hex-string u64s); two
    /// identically-seeded runs render to the same bytes, so they can be
    /// compared with `cmp`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("ended_ns", self.ended_ns.into()),
            ("name", self.name.as_str().into()),
            ("records", self.records.iter().map(TaskRecord::to_json).collect()),
            ("started_ns", self.started_ns.into()),
            ("wave_ended_ns", self.wave_ended_ns.iter().copied().collect()),
            ("waves", self.waves.into()),
        ])
    }
}

/// Persisted fingerprint + outputs of one completed task.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ManifestEntry {
    /// Input fingerprint the task last succeeded with.
    pub fingerprint: u64,
    /// The artifacts that execution produced.
    pub outputs: Vec<Artifact>,
}

/// Persistent provenance manifest enabling incremental recompute.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    /// Task name → last successful fingerprint and outputs.
    pub(crate) tasks: BTreeMap<String, ManifestEntry>,
}

impl Manifest {
    /// The manifest as a JSON document (hex-string u64s).
    pub fn to_json(&self) -> JsonValue {
        let entry = |e: &ManifestEntry| {
            JsonValue::obj([
                ("fingerprint", hex_u64(e.fingerprint)),
                ("outputs", e.outputs.iter().map(Artifact::to_json).collect()),
            ])
        };
        let tasks = self.tasks.iter().map(|(name, e)| (name.clone(), entry(e))).collect();
        JsonValue::obj([("tasks", JsonValue::Obj(tasks))])
    }

    /// Parse a [`Manifest::to_json`] rendering back.
    pub(crate) fn from_json(text: &str) -> Result<Manifest> {
        let v = JsonValue::parse(text)?;
        let mut tasks = BTreeMap::new();
        for (name, entry) in v.field("tasks")?.obj_of("manifest.tasks")? {
            let fingerprint = parse_hex_u64(entry.field("fingerprint")?, "manifest.fingerprint")?;
            let outputs = entry
                .field("outputs")?
                .arr_of("manifest.outputs")?
                .iter()
                .map(Artifact::from_json_value)
                .collect::<Result<Vec<_>>>()?;
            tasks.insert(name.clone(), ManifestEntry { fingerprint, outputs });
        }
        Ok(Manifest { tasks })
    }

    /// Load the manifest at `key`, or an empty one if absent.
    pub fn load(store: &dyn ObjectStore, key: &str) -> Result<Manifest> {
        match store.get(key) {
            Ok(bytes) => {
                let text = String::from_utf8(bytes)
                    .map_err(|_| NsdfError::corrupt(format!("manifest {key:?} is not utf-8")))?;
                Manifest::from_json(&text)
            }
            Err(e) if e.is_not_found() => Ok(Manifest::default()),
            Err(e) => Err(e),
        }
    }

    /// Persist the manifest at `key`.
    pub fn save(&self, store: &dyn ObjectStore, key: &str) -> Result<()> {
        store.put(key, self.to_json().to_string().as_bytes())?;
        Ok(())
    }
}

/// Options for one [`TaskGraph::run`].
pub struct RunOptions {
    clock: SimClock,
    threads: usize,
    sequential: bool,
    store: Option<Arc<dyn ObjectStore>>,
    manifest_key: Option<String>,
}

impl RunOptions {
    /// Defaults: work-stealing over [`nsdf_util::par::num_threads`]
    /// workers, no persistence, no manifest.
    pub fn new(clock: SimClock) -> RunOptions {
        RunOptions {
            clock,
            threads: nsdf_util::par::num_threads(),
            sequential: false,
            store: None,
            manifest_key: None,
        }
    }

    /// Worker thread count for parallel waves.
    pub fn with_threads(mut self, threads: usize) -> RunOptions {
        self.threads = threads.max(1);
        self
    }

    /// Run one task per wave — the sequential baseline. Virtual time
    /// then sums every task's compute instead of taking per-wave maxima.
    pub fn sequential(mut self) -> RunOptions {
        self.sequential = true;
        self
    }

    /// Persist payload outputs (and read missing inputs) through `store`.
    pub fn with_store(mut self, store: Arc<dyn ObjectStore>) -> RunOptions {
        self.store = Some(store);
        self
    }

    /// Enable incremental recompute: load/update the fingerprint
    /// manifest at `key` on the configured store.
    pub fn with_manifest(mut self, key: impl Into<String>) -> RunOptions {
        self.manifest_key = Some(key.into());
        self
    }
}

type TaskFn = Box<dyn Fn(&mut TaskCtx) -> Result<Vec<TaskOutput>> + Send + Sync>;

struct TaskDef {
    name: String,
    deps: Vec<usize>,
    def_fp: u64,
    exclusive: bool,
    run: TaskFn,
}

/// A typed task graph: nodes with explicit data dependencies, scheduled
/// in ready-queue waves. Acyclic by construction — a task may only
/// depend on tasks added before it.
pub struct TaskGraph {
    name: String,
    tasks: Vec<TaskDef>,
    index: BTreeMap<String, usize>,
    children: Vec<Vec<usize>>,
}

impl TaskGraph {
    /// New empty graph.
    pub fn new(name: impl Into<String>) -> TaskGraph {
        TaskGraph {
            name: name.into(),
            tasks: Vec::new(),
            index: BTreeMap::new(),
            children: Vec::new(),
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The id of the task named `name`.
    pub(crate) fn task_id(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Add a *parallel* task: a pure function of its prefetched inputs.
    /// It must not touch shared stores or the clock — the engine
    /// prefetches inputs and persists [`TaskOutput::Payload`]s on the
    /// caller thread. `definition` is hashed into the fingerprint, so
    /// changing parameters invalidates cached results.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        deps: &[&str],
        definition: &str,
        run: impl Fn(&mut TaskCtx) -> Result<Vec<TaskOutput>> + Send + Sync + 'static,
    ) -> Result<usize> {
        self.add_inner(name.into(), deps, definition, false, Box::new(run))
    }

    /// Add an *exclusive* task: runs serialized on the caller thread and
    /// may perform its own store I/O (dataset creation, ingest,
    /// validation), returning [`TaskOutput::Stored`] artifacts for what
    /// it persisted itself and payloads for what the engine should. It
    /// runs in the run's issue frame, so its own `put_many` waves are
    /// issued and joined with its wave's uploads (see the module docs).
    pub fn add_exclusive_task(
        &mut self,
        name: impl Into<String>,
        deps: &[&str],
        definition: &str,
        run: impl Fn(&mut TaskCtx) -> Result<Vec<TaskOutput>> + Send + Sync + 'static,
    ) -> Result<usize> {
        self.add_inner(name.into(), deps, definition, true, Box::new(run))
    }

    fn add_inner(
        &mut self,
        name: String,
        deps: &[&str],
        definition: &str,
        exclusive: bool,
        run: TaskFn,
    ) -> Result<usize> {
        if name.is_empty() {
            return Err(NsdfError::invalid("task name must not be empty"));
        }
        if self.index.contains_key(&name) {
            return Err(NsdfError::invalid(format!("duplicate task name {name:?}")));
        }
        let mut dep_ids = Vec::with_capacity(deps.len());
        for &d in deps {
            let id = self.index.get(d).copied().ok_or_else(|| {
                NsdfError::invalid(format!(
                    "task {name:?}: unknown dependency {d:?} (dependencies must be added first)"
                ))
            })?;
            dep_ids.push(id);
        }
        let mut fp = Fnv1a::new();
        fp.update(name.as_bytes()).update(&[0]).update(definition.as_bytes());
        let id = self.tasks.len();
        for &d in &dep_ids {
            self.children[d].push(id);
        }
        self.tasks.push(TaskDef {
            name: name.clone(),
            deps: dep_ids,
            def_fp: fp.digest(),
            exclusive,
            run,
        });
        self.children.push(Vec::new());
        self.index.insert(name, id);
        Ok(id)
    }

    /// Every task reachable downstream from `seeds` (inclusive) — the
    /// set a change to those tasks can possibly dirty.
    pub fn dependency_cone(&self, seeds: &[&str]) -> BTreeSet<String> {
        let mut seen = vec![false; self.tasks.len()];
        let mut stack: Vec<usize> = seeds.iter().filter_map(|s| self.task_id(s)).collect();
        for &id in &stack {
            seen[id] = true;
        }
        while let Some(id) = stack.pop() {
            for &c in &self.children[id] {
                if !seen[c] {
                    seen[c] = true;
                    stack.push(c);
                }
            }
        }
        self.tasks
            .iter()
            .enumerate()
            .filter(|&(i, _)| seen[i])
            .map(|(_, t)| t.name.clone())
            .collect()
    }

    /// Fingerprint of task `i` given resolved dependency records:
    /// definition hash plus the name/size/checksum/location of every
    /// input artifact, in dependency order.
    fn fingerprint(&self, i: usize, records: &[Option<TaskRecord>]) -> u64 {
        let t = &self.tasks[i];
        let mut fp = Fnv1a::new();
        fp.update(t.name.as_bytes()).update(&[0]).update(&t.def_fp.to_le_bytes());
        for &d in &t.deps {
            let rec = records[d].as_ref().expect("dependency resolved before fingerprinting");
            fp.update(rec.name.as_bytes()).update(&[0]);
            for a in &rec.produced {
                fp.update(a.name.as_bytes())
                    .update(&[0])
                    .update(&a.bytes.to_le_bytes())
                    .update(&a.checksum.to_le_bytes())
                    .update(a.location.as_bytes())
                    .update(&[0]);
            }
        }
        fp.digest()
    }

    /// The artifacts task `i` consumes — every output of every resolved
    /// dependency, in (dependency, output index) order.
    fn input_artifacts<'r>(
        &'r self,
        i: usize,
        records: &'r [Option<TaskRecord>],
    ) -> impl Iterator<Item = &'r Artifact> + 'r {
        self.tasks[i].deps.iter().flat_map(move |&d| records[d].iter().flat_map(|r| &r.produced))
    }

    /// A record of task `i` with nothing computed or produced (yet).
    fn record(
        &self,
        i: usize,
        status: TaskStatus,
        wave: u64,
        fingerprint: u64,
        records: &[Option<TaskRecord>],
    ) -> TaskRecord {
        TaskRecord {
            name: self.tasks[i].name.clone(),
            status,
            wave,
            compute_ns: 0,
            fingerprint,
            produced: Vec::new(),
            consumed: self.input_artifacts(i, records).map(|a| a.name.clone()).collect(),
            error: None,
        }
    }

    /// Execute the graph.
    ///
    /// Scheduling is wave-based: every wave resolves all tasks whose
    /// dependencies completed — hash-verified up-to-date tasks resolve
    /// instantly, parallel tasks run on the work-stealing pool (clock
    /// advances by the wave maximum), exclusive tasks then run
    /// serialized (clock advances per task). The engine's own store
    /// traffic is at most four batched calls per wave, and its uploads
    /// are issued and joined one wave later (see the module docs). A
    /// failed task fails alone; only its downstream cone is skipped, and
    /// independent branches complete. The run report, including failures,
    /// is always returned.
    pub fn run(&self, opts: &RunOptions) -> Result<GraphRun> {
        if opts.manifest_key.is_some() && opts.store.is_none() {
            return Err(NsdfError::invalid("manifest requires a store"));
        }
        let n = self.tasks.len();
        let clock = &opts.clock;
        let store = opts.store.as_deref();
        let prev = match (store, &opts.manifest_key) {
            (Some(store), Some(key)) => Manifest::load(store, key)?,
            _ => Manifest::default(),
        };

        let started_ns = clock.now_ns();
        let mut records: Vec<Option<TaskRecord>> = (0..n).map(|_| None).collect();
        let mut blackboard = Blackboard::new();
        let mut claimed = Claimed::default();
        let mut wave_ended_ns = Vec::new();
        let mut wave = 0u64;
        let mut lanes = UploadLanes::unbounded();
        // When every upload issued up to the previous wave has ended.
        let mut owed_ns = 0u64;

        loop {
            // Propagate skips: deps have smaller ids, so one forward scan
            // closes the cone discovered this wave.
            for i in 0..n {
                let blocked = records[i].is_none()
                    && self.tasks[i].deps.iter().any(|&d| {
                        matches!(
                            records[d].as_ref().map(|r| r.status),
                            Some(TaskStatus::Failed) | Some(TaskStatus::Skipped)
                        )
                    });
                if blocked {
                    records[i] = Some(self.record(i, TaskStatus::Skipped, wave, 0, &records));
                }
            }
            if records.iter().all(Option::is_some) {
                break;
            }

            let mut ready: Vec<usize> = (0..n)
                .filter(|&i| {
                    records[i].is_none() && self.tasks[i].deps.iter().all(|&d| records[d].is_some())
                })
                .collect();
            if ready.is_empty() {
                return Err(NsdfError::invalid("task graph made no progress (cycle?)"));
            }
            if opts.sequential {
                ready.truncate(1);
            }
            let ready: Vec<(usize, u64)> =
                ready.into_iter().map(|i| (i, self.fingerprint(i, &records))).collect();

            // (1) Hash-verified fast path: one `head_many` proves which
            // ready tasks the manifest already covers.
            let up_to_date = self.verify_wave(&ready, &prev, store);
            let mut execute = Vec::new();
            for ((i, fp), outputs) in ready.into_iter().zip(up_to_date) {
                let Some(outputs) = outputs else {
                    execute.push((i, fp));
                    continue;
                };
                for a in outputs {
                    claimed.claim(&a.name, &a.location);
                }
                records[i] = Some(TaskRecord {
                    produced: outputs.to_vec(),
                    ..self.record(i, TaskStatus::UpToDate, wave, fp, &records)
                });
            }

            // (2) One `get_many` loads every input the executing tasks
            // still miss; a task whose input could not be loaded fails
            // alone.
            let inputs = self.prefetch_wave(&execute, &records, &mut blackboard, store);
            let (mut par, mut excl) = (Vec::new(), Vec::new());
            for ((i, fp), inputs) in execute.into_iter().zip(inputs) {
                match inputs {
                    Ok(inputs) if self.tasks[i].exclusive => excl.push((i, fp, inputs)),
                    Ok(inputs) => par.push((i, fp, inputs)),
                    Err(e) => {
                        records[i] = Some(TaskRecord {
                            error: Some(format!("input prefetch: {e}")),
                            ..self.record(i, TaskStatus::Failed, wave, fp, &records)
                        });
                    }
                }
            }

            // (3) Parallel wave: pure closures on the work-stealing pool.
            // The closure returns its outcome; the outer error type is
            // never constructed, keeping per-task failures isolated.
            let outcomes =
                nsdf_util::par::try_par_map_owned(par, opts.threads, |(i, fp, inputs)| {
                    let mut ctx = TaskCtx { clock: clock.clone(), inputs, compute_ns: 0 };
                    let result = (self.tasks[i].run)(&mut ctx);
                    Ok::<_, NsdfError>(Outcome { i, fp, compute_ns: ctx.compute_ns, result })
                })?;
            clock.advance_ns(outcomes.iter().map(|o| o.compute_ns).max().unwrap_or(0));

            // (4) The rest of the wave runs in the run's issue frame: the
            // parallel payloads' `put_many`, the exclusive tasks
            // (serialized on the caller thread, own I/O) and the
            // `put_many` of the payloads they hand back.
            lanes.issue(|| {
                self.persist_wave(
                    outcomes,
                    wave,
                    &mut records,
                    &mut blackboard,
                    &mut claimed,
                    store,
                );
                let mut outcomes = Vec::with_capacity(excl.len());
                for (i, fp, inputs) in excl {
                    let mut ctx = TaskCtx { clock: clock.clone(), inputs, compute_ns: 0 };
                    let result = (self.tasks[i].run)(&mut ctx);
                    clock.advance_ns(ctx.compute_ns);
                    outcomes.push(Outcome { i, fp, compute_ns: ctx.compute_ns, result });
                }
                self.persist_wave(
                    outcomes,
                    wave,
                    &mut records,
                    &mut blackboard,
                    &mut claimed,
                    store,
                );
            });

            // One-deep join: this wave's uploads may run on through the
            // next wave; the previous wave's must have ended by now.
            clock.advance_to_ns(owed_ns);
            owed_ns = lanes.finish_vns();
            wave_ended_ns.push(clock.now_ns());
            wave += 1;
        }

        // The last wave joins every upload, then saves the manifest, so a
        // manifest never names an object still in flight.
        clock.advance_to_ns(lanes.finish_vns());
        let records: Vec<TaskRecord> =
            records.into_iter().map(|r| r.expect("all tasks resolved")).collect();
        if let (Some(store), Some(key)) = (store, &opts.manifest_key) {
            // Merge into the previous manifest: tasks skipped this run
            // keep their last-known-good entries for future reruns.
            let mut manifest = prev;
            for r in &records {
                if matches!(r.status, TaskStatus::Succeeded | TaskStatus::UpToDate) {
                    manifest.tasks.insert(
                        r.name.clone(),
                        ManifestEntry { fingerprint: r.fingerprint, outputs: r.produced.clone() },
                    );
                }
            }
            manifest.save(store, key)?;
        }
        let ended_ns = clock.now_ns();
        if let Some(last) = wave_ended_ns.last_mut() {
            *last = ended_ns;
        }
        Ok(GraphRun {
            name: self.name.clone(),
            records,
            waves: wave,
            started_ns,
            ended_ns,
            wave_ended_ns,
        })
    }

    /// For each ready `(task, fingerprint)`: the manifest's recorded
    /// outputs when the task is provably up to date, else `None`. Up to
    /// date means the fingerprint matches and every recorded output still
    /// exists on the store with the recorded size and content checksum,
    /// checked by one `head_many` over the whole wave in (task id, output
    /// index) order. A failed or mismatching head just re-executes its
    /// task. Artifacts recorded without a checksum can never verify,
    /// forcing a re-run — the conservative choice.
    fn verify_wave<'m>(
        &self,
        ready: &[(usize, u64)],
        prev: &'m Manifest,
        store: Option<&dyn ObjectStore>,
    ) -> Vec<Option<&'m [Artifact]>> {
        let Some(store) = store else {
            return vec![None; ready.len()];
        };
        let candidates: Vec<Option<&[Artifact]>> = ready
            .iter()
            .map(|&(i, fp)| {
                let entry = prev.tasks.get(&self.tasks[i].name)?;
                let hashed = entry.outputs.iter().all(|a| a.checksum != 0);
                (entry.fingerprint == fp && hashed).then_some(entry.outputs.as_slice())
            })
            .collect();
        let keys: Vec<&str> = candidates
            .iter()
            .flatten()
            .flat_map(|o| o.iter())
            .map(|a| a.location.as_str())
            .collect();
        let heads = if keys.is_empty() { Vec::new() } else { store.head_many(&keys) };
        let mut heads = heads.into_iter();
        candidates
            .into_iter()
            .map(|outputs| {
                // Every output consumes its head, verified or not, so the
                // results stay aligned with the keys.
                outputs.filter(|outputs| {
                    outputs.iter().fold(true, |ok, a| {
                        let head = heads.next().expect("one head per recorded output");
                        ok & matches!(head, Ok(m) if m.size == a.bytes && m.checksum == a.checksum)
                    })
                })
            })
            .collect()
    }

    /// The verified inputs of every executing task of a wave — or, per
    /// task, why its first unloadable input could not be loaded.
    ///
    /// Bytes produced earlier this run are on the blackboard already; the
    /// distinct artifacts that are not, in (task id, dependency, output
    /// index) order, are fetched with one `get_many` and join it once
    /// their content hash checks out.
    fn prefetch_wave(
        &self,
        execute: &[(usize, u64)],
        records: &[Option<TaskRecord>],
        blackboard: &mut Blackboard,
        store: Option<&dyn ObjectStore>,
    ) -> Vec<std::result::Result<Vec<TaskInput>, String>> {
        let mut missing: Vec<&Artifact> = Vec::new();
        let mut seen = BTreeSet::new();
        for &(i, _) in execute {
            for a in self.input_artifacts(i, records) {
                if !blackboard.contains_key(&a.name) && seen.insert(a.name.as_str()) {
                    missing.push(a);
                }
            }
        }
        let keys: Vec<&str> = missing.iter().map(|a| a.location.as_str()).collect();
        let fetched: Vec<Result<Vec<u8>>> = match store {
            _ if keys.is_empty() => Vec::new(),
            Some(store) => store.get_many(&keys),
            None => missing
                .iter()
                .map(|a| {
                    Err(NsdfError::invalid(format!(
                        "artifact {:?} not in memory and no store configured",
                        a.name
                    )))
                })
                .collect(),
        };
        let mut unloadable: BTreeMap<&str, String> = BTreeMap::new();
        for (a, data) in missing.into_iter().zip(fetched) {
            match data {
                Ok(data) if nsdf_util::checksum64(&data) == a.checksum => {
                    blackboard.insert(a.name.clone(), Arc::new(data));
                }
                Ok(_) => {
                    let e = NsdfError::corrupt(format!(
                        "artifact {:?} at {:?} failed checksum verification",
                        a.name, a.location
                    ));
                    unloadable.insert(&a.name, e.to_string());
                }
                Err(e) => {
                    unloadable.insert(&a.name, e.to_string());
                }
            }
        }

        execute
            .iter()
            .map(|&(i, _)| {
                self.input_artifacts(i, records)
                    .map(|a| match blackboard.get(&a.name) {
                        Some(bytes) => {
                            Ok(TaskInput { artifact: a.clone(), bytes: Arc::clone(bytes) })
                        }
                        None => Err(unloadable
                            .get(a.name.as_str())
                            .expect("every input not on the blackboard was fetched")
                            .clone()),
                    })
                    .collect()
            })
            .collect()
    }

    /// Turn the closure results of one batch of tasks (task-id order)
    /// into records, persisting every payload they returned with one
    /// `put_many` in (task id, output index) order.
    ///
    /// A task whose closure erred, that repeats an artifact name or
    /// object key already produced in this run, or any of whose puts
    /// failed is `Failed` alone: none of its outputs reach its record,
    /// the blackboard or (hence) the manifest, and a duplicate sends no
    /// payload at all.
    fn persist_wave(
        &self,
        outcomes: Vec<Outcome>,
        wave: u64,
        records: &mut [Option<TaskRecord>],
        blackboard: &mut Blackboard,
        claimed: &mut Claimed,
        store: Option<&dyn ObjectStore>,
    ) {
        let mut pending = Vec::new();
        for Outcome { i, fp, compute_ns, result } in outcomes {
            let base = TaskRecord {
                compute_ns,
                ..self.record(i, TaskStatus::Succeeded, wave, fp, records)
            };
            let outputs = result.map_err(|e| e.to_string()).and_then(|outputs| {
                match outputs.iter().map(TaskOutput::key).find(|(n, l)| !claimed.claim(n, l)) {
                    Some((n, l)) => Err(format!("duplicate artifact {n:?} at {l:?}")),
                    None => Ok(outputs),
                }
            });
            match outputs {
                Ok(outputs) => pending.push((i, base, outputs)),
                Err(e) => {
                    records[i] =
                        Some(TaskRecord { status: TaskStatus::Failed, error: Some(e), ..base });
                }
            }
        }

        let items: Vec<(&str, &[u8])> = pending
            .iter()
            .flat_map(|(_, _, outputs)| outputs)
            .filter_map(|out| match out {
                TaskOutput::Payload { location, bytes, .. } => {
                    Some((location.as_str(), bytes.as_slice()))
                }
                TaskOutput::Stored(_) => None,
            })
            .collect();
        // Without a store nothing is sent: payloads only reach the
        // blackboard, and no put can fail.
        let failures: Vec<Option<NsdfError>> = match store {
            Some(store) if !items.is_empty() => {
                store.put_many(&items).into_iter().map(|ack| ack.err()).collect()
            }
            _ => items.iter().map(|_| None).collect(),
        };
        let mut failures = failures.into_iter();

        for (i, base, outputs) in pending {
            let mut produced = Vec::with_capacity(outputs.len());
            let mut payloads = Vec::new();
            let mut error = None;
            for out in outputs {
                match out {
                    TaskOutput::Stored(a) => produced.push(a),
                    TaskOutput::Payload { name, location, bytes } => {
                        if let Some(e) = failures.next().expect("one ack per payload") {
                            error.get_or_insert_with(|| format!("persist {name:?}: {e}"));
                        }
                        produced.push(Artifact::of_bytes(&name, &bytes, &location));
                        payloads.push((name, bytes));
                    }
                }
            }
            records[i] = Some(match error {
                Some(e) => TaskRecord { status: TaskStatus::Failed, error: Some(e), ..base },
                None => {
                    for (name, bytes) in payloads {
                        blackboard.insert(name, Arc::new(bytes));
                    }
                    TaskRecord { produced, ..base }
                }
            });
        }
    }
}

/// Payload bytes produced or loaded this run, by artifact name.
type Blackboard = BTreeMap<String, Arc<Vec<u8>>>;

/// What one executed task handed back, before its outputs are persisted.
struct Outcome {
    i: usize,
    fp: u64,
    compute_ns: u64,
    result: Result<Vec<TaskOutput>>,
}

/// Artifact names and object keys produced so far in one run — the
/// guard that keeps two tasks from writing one name or key, which a
/// batched `put_many` would otherwise settle in no defined order.
#[derive(Default)]
struct Claimed {
    names: BTreeSet<String>,
    locations: BTreeSet<String>,
}

impl Claimed {
    /// Claim `name` and `location`; false when either was already taken.
    fn claim(&mut self, name: &str, location: &str) -> bool {
        let fresh_name = self.names.insert(name.to_string());
        let fresh_location = self.locations.insert(location.to_string());
        fresh_name && fresh_location
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsdf_storage::{
        CloudStore, FailScope, FaultPlan, FaultStore, MemoryStore, NetworkProfile, ObjectMeta,
    };
    use nsdf_util::obs::Obs;

    const MS: u64 = 1_000_000;

    fn emit(
        name: &str,
        payload: &[u8],
        compute_ms: u64,
    ) -> impl Fn(&mut TaskCtx) -> Result<Vec<TaskOutput>> + Send + Sync {
        let name = name.to_string();
        let payload = payload.to_vec();
        move |ctx| {
            ctx.charge_compute_ns(compute_ms * MS);
            Ok(vec![TaskOutput::payload(&name, format!("obj/{name}"), payload.clone())])
        }
    }

    /// gen → {a, b} → join; a and b must share a wave, and the wave
    /// charges max(a, b), not the sum.
    #[test]
    fn diamond_runs_in_waves_and_overlaps_compute() {
        let mut g = TaskGraph::new("diamond");
        g.add_task("gen", &[], "v1", emit("dem", b"dem-bytes", 10)).unwrap();
        g.add_task("a", &["gen"], "v1", |ctx| {
            let dem = ctx.input_bytes("dem")?.to_vec();
            ctx.charge_compute_ns(20 * MS);
            Ok(vec![TaskOutput::payload("a-out", "obj/a", dem)])
        })
        .unwrap();
        g.add_task("b", &["gen"], "v1", |ctx| {
            ctx.charge_compute_ns(30 * MS);
            Ok(vec![TaskOutput::payload("b-out", "obj/b", ctx.input_bytes("dem")?.to_vec())])
        })
        .unwrap();
        g.add_task("join", &["a", "b"], "v1", |ctx| {
            assert_eq!(ctx.inputs().len(), 2);
            ctx.charge_compute_ns(5 * MS);
            Ok(vec![])
        })
        .unwrap();

        let clock = SimClock::new();
        let run = g.run(&RunOptions::new(clock.clone()).with_threads(4)).unwrap();
        assert!(run.succeeded());
        assert_eq!(run.waves, 3);
        assert_eq!(run.record("a").unwrap().wave, 1);
        assert_eq!(run.record("b").unwrap().wave, 1);
        assert_eq!(run.record("join").unwrap().wave, 2);
        // 10 (gen) + max(20, 30) + 5 = 45 ms of virtual compute.
        assert_eq!(clock.now_ns(), 45 * MS);
        assert_eq!(run.wave_ended_ns, vec![10 * MS, 40 * MS, 45 * MS]);
        assert!(run
            .to_json()
            .to_string()
            .contains("\"wave_ended_ns\":[10000000,40000000,45000000],"));

        // Sequential baseline: 10 + 20 + 30 + 5 = 65 ms — strictly more.
        let seq_clock = SimClock::new();
        let seq = g.run(&RunOptions::new(seq_clock.clone()).sequential()).unwrap();
        assert!(seq.succeeded());
        assert_eq!(seq_clock.now_ns(), 65 * MS);
        assert_eq!(seq.waves, 4);
    }

    /// A failure poisons exactly its downstream cone; the independent
    /// branch still completes and the report is returned, not an Err.
    #[test]
    fn failure_skips_only_dependent_cone() {
        let mut g = TaskGraph::new("cone");
        g.add_task("root", &[], "v1", emit("r", b"r", 1)).unwrap();
        g.add_task("bad", &["root"], "v1", |_ctx| Err(NsdfError::invalid("boom"))).unwrap();
        g.add_task("good", &["root"], "v1", emit("g", b"g", 1)).unwrap();
        g.add_task("after-bad", &["bad"], "v1", emit("ab", b"ab", 1)).unwrap();
        g.add_task("after-both", &["bad", "good"], "v1", emit("x", b"x", 1)).unwrap();
        g.add_task("after-good", &["good"], "v1", emit("ag", b"ag", 1)).unwrap();

        let run = g.run(&RunOptions::new(SimClock::new())).unwrap();
        assert!(!run.succeeded());
        assert_eq!(run.record("bad").unwrap().status, TaskStatus::Failed);
        assert!(run.record("bad").unwrap().error.as_deref().unwrap().contains("boom"));
        assert_eq!(run.record("after-bad").unwrap().status, TaskStatus::Skipped);
        assert_eq!(run.record("after-both").unwrap().status, TaskStatus::Skipped);
        assert_eq!(run.record("good").unwrap().status, TaskStatus::Succeeded);
        assert_eq!(run.record("after-good").unwrap().status, TaskStatus::Succeeded);
        assert_eq!(run.count(TaskStatus::Skipped), 2);
        assert!(run.first_error().unwrap().contains("boom"));

        // The cone helper agrees with what actually got poisoned.
        let cone = g.dependency_cone(&["bad"]);
        assert_eq!(
            cone.iter().map(String::as_str).collect::<Vec<_>>(),
            vec!["after-bad", "after-both", "bad"]
        );
    }

    /// With a manifest, an unchanged rerun verifies every task by hash
    /// and re-executes nothing; deleting a stored artifact or changing a
    /// definition forces exactly the right tasks to re-run.
    #[test]
    fn manifest_enables_hash_verified_incremental_rerun() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let build = |defn: &str| {
            let mut g = TaskGraph::new("inc");
            g.add_task("gen", &[], defn, emit("dem", b"dem-v1", 1)).unwrap();
            g.add_task("deriv", &["gen"], "v1", |ctx| {
                let mut out = ctx.input_bytes("dem")?.to_vec();
                out.reverse();
                Ok(vec![TaskOutput::payload("deriv-out", "obj/deriv", out)])
            })
            .unwrap();
            g.add_task("sink", &["deriv"], "v1", emit("sink-out", b"s", 1)).unwrap();
            g
        };
        let opts = |clock| {
            RunOptions::new(clock).with_store(Arc::clone(&store)).with_manifest("wf/manifest.json")
        };

        let g = build("v1");
        let first = g.run(&opts(SimClock::new())).unwrap();
        assert!(first.succeeded());
        assert_eq!(first.count(TaskStatus::Succeeded), 3);

        // Unchanged rerun: all three verify as up-to-date by hash.
        let second = g.run(&opts(SimClock::new())).unwrap();
        assert!(second.succeeded());
        assert_eq!(second.count(TaskStatus::UpToDate), 3);
        assert_eq!(second.count(TaskStatus::Succeeded), 0);
        // Up-to-date outputs still flow: produced lists match run 1.
        assert_eq!(
            second.record("deriv").unwrap().produced,
            first.record("deriv").unwrap().produced
        );

        // A vanished artifact fails head-verification → that task (and
        // its cone, whose input fingerprints change... here content is
        // identical so the cone cuts off) re-executes.
        store.delete("obj/deriv").unwrap();
        let third = g.run(&opts(SimClock::new())).unwrap();
        assert!(third.succeeded());
        assert_eq!(third.record("gen").unwrap().status, TaskStatus::UpToDate);
        assert_eq!(third.record("deriv").unwrap().status, TaskStatus::Succeeded);
        // deriv reproduced byte-identical output, so sink stays clean.
        assert_eq!(third.record("sink").unwrap().status, TaskStatus::UpToDate);
        assert_eq!(store.get("obj/deriv").unwrap(), b"1v-med".to_vec());

        // Changing a task definition dirties it and its consumers'
        // fingerprints only if content changes — gen emits the same
        // payload under "v2", so downstream stays up-to-date.
        let g2 = build("v2");
        let fourth = g2.run(&opts(SimClock::new())).unwrap();
        assert_eq!(fourth.record("gen").unwrap().status, TaskStatus::Succeeded);
        assert_eq!(fourth.record("deriv").unwrap().status, TaskStatus::UpToDate);
        assert_eq!(fourth.record("sink").unwrap().status, TaskStatus::UpToDate);
    }

    /// Identical runs render byte-identical reports at any thread count.
    #[test]
    fn run_report_is_deterministic_across_thread_counts() {
        let build = || {
            let mut g = TaskGraph::new("det");
            let mut names: Vec<String> = Vec::new();
            for i in 0..12 {
                let name = format!("t{i:02}");
                let deps: Vec<&str> = if i == 0 { vec![] } else { vec![names[i / 2].as_str()] };
                g.add_task(
                    &name,
                    &deps,
                    "v1",
                    emit(&format!("o{i:02}"), name.as_bytes(), i as u64 + 1),
                )
                .unwrap();
                names.push(name);
            }
            g
        };
        let a = build().run(&RunOptions::new(SimClock::new()).with_threads(1)).unwrap();
        let b = build().run(&RunOptions::new(SimClock::new()).with_threads(8)).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.succeeded());
    }

    /// A Seal-class WAN over a fresh memory store on `clock`, reporting
    /// into a registry of its own; also hands back the bare memory store.
    fn seal(clock: &SimClock) -> (Arc<dyn ObjectStore>, Arc<MemoryStore>, Obs) {
        let obs = Obs::new(clock.clone());
        let inner = Arc::new(MemoryStore::new());
        let wan = CloudStore::new(
            Arc::clone(&inner) as Arc<dyn ObjectStore>,
            NetworkProfile::private_seal(),
            clock.clone(),
            7,
        )
        .with_obs(&obs);
        (Arc::new(wan), inner, obs)
    }

    /// The `wan.*` counters the wave-shape tests compare, plus the number
    /// of WAN episodes charged (every single op and every batch is one
    /// observation of `wan.op_vsecs`; `wan.waves` counts only `get_many`
    /// and `put_many`).
    #[derive(Debug, PartialEq)]
    struct Wan {
        read_ops: u64,
        write_ops: u64,
        waves: u64,
        bytes_down: u64,
        episodes: u64,
    }

    impl Wan {
        fn of(obs: &Obs) -> Wan {
            let snap = obs.snapshot();
            Wan {
                read_ops: snap.counter("wan.read_ops"),
                write_ops: snap.counter("wan.write_ops"),
                waves: snap.counter("wan.waves"),
                bytes_down: snap.counter("wan.bytes_down"),
                episodes: snap.histograms["wan.op_vsecs"].counts.iter().sum(),
            }
        }
    }

    /// {g1, g2} → four mids consuming both → sink: three waves, seven
    /// outputs. A mid's payload ignores `mid_def`, so bumping it
    /// re-executes the mids but cuts the cone off before `sink`.
    fn fan_graph(mid_def: &str) -> TaskGraph {
        let mut g = TaskGraph::new("fan");
        g.add_task("g1", &[], "v1", emit("dem-a", b"dem-a-bytes", 1)).unwrap();
        g.add_task("g2", &[], "v1", emit("dem-b", b"dem-b-longer-bytes", 1)).unwrap();
        let mids: Vec<String> = (0..4).map(|k| format!("m{k}")).collect();
        for m in &mids {
            let name = m.clone();
            g.add_task(m, &["g1", "g2"], mid_def, move |ctx| {
                let mut out = ctx.input_bytes("dem-a")?.to_vec();
                out.extend_from_slice(ctx.input_bytes("dem-b")?);
                out.extend_from_slice(name.as_bytes());
                Ok(vec![TaskOutput::payload(format!("{name}-out"), format!("obj/{name}"), out)])
            })
            .unwrap();
        }
        let deps: Vec<&str> = mids.iter().map(String::as_str).collect();
        g.add_task("sink", &deps, "v1", emit("sink-out", b"s", 1)).unwrap();
        g
    }

    const MANIFEST: &str = "wf/manifest.json";

    /// A 20-task parallel wave persists its 20 payloads as one upload
    /// wave charged `2 x ceil(20 / 8 streams)` round trips — not one
    /// two-round-trip `put` per object.
    #[test]
    fn parallel_wave_uploads_in_one_put_many() {
        let mut g = TaskGraph::new("wide");
        for i in 0..20 {
            let name = format!("t{i:02}");
            g.add_task(&name, &[], "v1", emit(&format!("o{i:02}"), name.as_bytes(), 0)).unwrap();
        }
        let clock = SimClock::new();
        let (store, _, obs) = seal(&clock);
        let run = g.run(&RunOptions::new(clock.clone()).with_threads(4).with_store(store)).unwrap();
        assert!(run.succeeded());
        assert_eq!(run.waves, 1);
        let wan = Wan::of(&obs);
        assert_eq!((wan.waves, wan.write_ops, wan.episodes), (1, 20, 1));
        // 6 round trips of 30 ms, +-8 % jitter, ~60 bytes of transfer;
        // 40 round trips would be 1.2 s.
        let secs = clock.now_secs();
        assert!((0.165..0.195).contains(&secs), "upload wave took {secs} s");
    }

    /// A Seal-class WAN under a probe that logs every upload call: for a
    /// single `put`, its key, when it started and when it returned; for a
    /// `put_many`, its first key, when it returned and when its last upload
    /// ends. An issued wave returns at issue, since a run's lanes never
    /// bind. Every wave of these small graphs finds its streams free, and
    /// with payloads this small its last upload then ends exactly the
    /// wave's charge later, which `busy_vns` books.
    struct UploadProbe {
        wan: CloudStore,
        log: std::sync::Mutex<Vec<(String, u64, u64)>>,
    }

    impl UploadProbe {
        fn seal(clock: &SimClock) -> Arc<UploadProbe> {
            let inner = Arc::new(MemoryStore::new());
            let wan = CloudStore::new(inner, NetworkProfile::private_seal(), clock.clone(), 7);
            Arc::new(UploadProbe { wan, log: std::sync::Mutex::new(Vec::new()) })
        }
    }

    impl ObjectStore for UploadProbe {
        fn put(&self, key: &str, data: &[u8]) -> Result<ObjectMeta> {
            let start = self.wan.clock().now_ns();
            let meta = self.wan.put(key, data)?;
            self.log.lock().unwrap().push((key.to_string(), start, self.wan.clock().now_ns()));
            Ok(meta)
        }
        fn put_many(&self, items: &[(&str, &[u8])]) -> Vec<Result<ObjectMeta>> {
            let busy = self.wan.busy_vns();
            let acks = self.wan.put_many(items);
            let issued = self.wan.clock().now_ns();
            let end = issued + (self.wan.busy_vns() - busy);
            self.log.lock().unwrap().push((items[0].0.to_string(), issued, end));
            acks
        }
        fn get(&self, key: &str) -> Result<Vec<u8>> {
            self.wan.get(key)
        }
        fn get_many(&self, keys: &[&str]) -> Vec<Result<Vec<u8>>> {
            self.wan.get_many(keys)
        }
        fn head(&self, key: &str) -> Result<ObjectMeta> {
            self.wan.head(key)
        }
        fn head_many(&self, keys: &[&str]) -> Vec<Result<ObjectMeta>> {
            self.wan.head_many(keys)
        }
        fn list(&self, prefix: &str) -> Result<Vec<ObjectMeta>> {
            self.wan.list(prefix)
        }
        fn delete(&self, key: &str) -> Result<()> {
            self.wan.delete(key)
        }
    }

    /// `n` parallel tasks of no compute, each persisting one payload, then
    /// a task of `compute_ms` that consumes one of them and stores nothing.
    fn fan_out_then_compute(n: usize, compute_ms: u64) -> TaskGraph {
        let mut g = TaskGraph::new("fan-out");
        for i in 0..n {
            let name = format!("t{i:02}");
            g.add_task(&name, &[], "v1", emit(&format!("o{i:02}"), name.as_bytes(), 0)).unwrap();
        }
        g.add_task("next", &["t00"], "v1", move |ctx| {
            ctx.charge_compute_ns(compute_ms * MS);
            Ok(vec![])
        })
        .unwrap();
        g
    }

    /// Wave 0's 20 uploads run under wave 1's compute: the run ends at the
    /// later of the two to the nanosecond, not at their sum.
    #[test]
    fn a_waves_uploads_overlap_the_next_waves_compute() {
        for compute_ms in [300, 100] {
            let clock = SimClock::new();
            let (store, _, obs) = seal(&clock);
            let g = fan_out_then_compute(20, compute_ms);
            let run = g.run(&RunOptions::new(clock.clone()).with_store(store)).unwrap();
            assert!(run.succeeded());
            let wan = Wan::of(&obs);
            assert_eq!((wan.waves, wan.write_ops, wan.episodes), (1, 20, 1));
            // The one wave's charge: 6 round trips of 30 ms, +-8 % jitter.
            let upload = obs.snapshot().counter("wan.busy_vns");
            assert!((165 * MS..195 * MS).contains(&upload), "upload wave took {upload} ns");
            let end = upload.max(compute_ms * MS);
            assert_eq!(run.wave_ended_ns, vec![0, end], "compute {compute_ms} ms");
            assert_eq!((run.ended_ns, clock.now_ns()), (end, end));
        }
    }

    /// A 64-payload wave is wider than Seal's 8 streams, so it takes all
    /// of them at once: the run's lanes never bind, every upload starts at
    /// issue and the clock does not move until the wave is joined.
    #[test]
    fn a_wide_wave_starts_every_upload_at_issue() {
        let clock = SimClock::new();
        let probe = UploadProbe::seal(&clock);
        let g = fan_out_then_compute(64, 0);
        let run = g.run(&RunOptions::new(clock.clone()).with_store(probe.clone())).unwrap();
        assert!(run.succeeded());
        let log = probe.log.lock().unwrap();
        assert_eq!(log.len(), 1);
        let (_, issued, end) = log[0];
        assert_eq!(issued, 0, "the issuing call waited for an upload");
        // 2 x ceil(64 / 8) round trips of 30 ms, +-8 % jitter.
        assert!((440 * MS..520 * MS).contains(&end), "upload wave took {end} ns");
        assert_eq!(run.wave_ended_ns, vec![0, end]);
    }

    /// Uploads issued in wave `n` have ended by the end of wave `n + 1`,
    /// some are still in flight when their own wave ends, and the manifest
    /// is saved after the last upload ended, inside the last wave.
    #[test]
    fn a_waves_uploads_end_by_the_end_of_the_next_wave() {
        let clock = SimClock::new();
        let probe = UploadProbe::seal(&clock);
        let opts = RunOptions::new(clock.clone()).with_store(probe.clone()).with_manifest(MANIFEST);
        for mid_def in ["v1", "v2"] {
            probe.log.lock().unwrap().clear();
            let run = fan_graph(mid_def).run(&opts).unwrap();
            assert!(run.succeeded());
            assert_eq!(
                (run.ended_ns, run.wave_ended_ns.last()),
                (clock.now_ns(), Some(&clock.now_ns()))
            );
            let log = probe.log.lock().unwrap();
            let (manifest, uploads) = log.split_last().unwrap();
            assert_eq!((manifest.0.as_str(), manifest.2), (MANIFEST, run.ended_ns));
            let mut overlapped = 0;
            for (key, _, end) in uploads {
                let task =
                    run.records.iter().find(|r| r.produced.iter().any(|a| a.location == *key));
                let wave = task.unwrap().wave as usize;
                let due = run.wave_ended_ns.get(wave + 1).copied().unwrap_or(run.ended_ns);
                assert!(*end <= due, "{key}: wave {wave}'s upload ends at {end}, after {due}");
                assert!(*end <= manifest.1, "{key}: the manifest put started before {end}");
                overlapped += usize::from(*end > run.wave_ended_ns[wave]);
            }
            assert!(overlapped > 0, "{mid_def}: no wave's uploads outlived it");
        }
    }

    /// With no store, or over a bare `MemoryStore`, no upload costs time,
    /// so issuing changes nothing: the digests of the run reports and the
    /// manifest are those an engine with blocking uploads produces.
    #[test]
    fn runs_without_a_wan_are_unchanged() {
        let mut g = fan_graph("v1");
        g.add_exclusive_task("tail", &["sink"], "v1", |ctx| {
            ctx.charge_compute_ns(3 * MS);
            let sink = ctx.input_bytes("sink-out")?.to_vec();
            Ok(vec![TaskOutput::payload("tail-out", "obj/tail", sink)])
        })
        .unwrap();
        let digest = |run: &GraphRun| nsdf_util::fnv1a64(run.to_json().to_string().as_bytes());
        let bare = g.run(&RunOptions::new(SimClock::new())).unwrap();
        assert_eq!(bare.wave_ended_ns, vec![MS, MS, 2 * MS, 5 * MS]);
        assert_eq!(digest(&bare), 0x7833_1ad3_4bfe_968f);

        let store = Arc::new(MemoryStore::new());
        let opts = RunOptions::new(SimClock::new())
            .with_store(Arc::clone(&store) as Arc<dyn ObjectStore>)
            .with_manifest(MANIFEST);
        let cold = g.run(&opts).unwrap();
        assert_eq!(digest(&cold), digest(&bare));
        let rerun = g.run(&opts).unwrap();
        assert_eq!(rerun.wave_ended_ns, vec![5 * MS; 4]);
        assert_eq!(digest(&rerun), 0x203b_54d0_e894_9319);
        let manifest = store.get(MANIFEST).unwrap();
        assert_eq!(nsdf_util::fnv1a64(&manifest), 0x5b13_59b7_8d21_bf79);
    }

    /// An unchanged rerun verifies each wave's recorded outputs with one
    /// `head_many` and downloads nothing but the manifest.
    #[test]
    fn unchanged_rerun_issues_one_head_many_per_wave() {
        let clock = SimClock::new();
        let (store, inner, obs) = seal(&clock);
        let opts = RunOptions::new(clock).with_store(store).with_manifest(MANIFEST);
        let g = fan_graph("v1");
        let cold = g.run(&opts).unwrap();
        assert!(cold.succeeded());

        obs.reset();
        let rerun = g.run(&opts).unwrap();
        assert_eq!(rerun.count(TaskStatus::UpToDate), 7);
        assert_eq!(rerun.waves, 3);
        // The per-wave timeline tiles either run: every wave's uploads or
        // heads cost WAN time, and the last entry is the run's end.
        for run in [&cold, &rerun] {
            let mut marks = vec![run.started_ns];
            marks.extend(&run.wave_ended_ns);
            assert_eq!((marks.len(), marks[3]), (4, run.ended_ns));
            assert!(marks.windows(2).all(|w| w[0] < w[1]), "{marks:?}");
            let total: f64 = (0..=run.waves).map(|k| run.wave_secs(k)).sum();
            assert!((total - run.virtual_secs()).abs() < 1e-9);
        }
        assert_eq!(
            Wan::of(&obs),
            Wan {
                read_ops: 1 + 7, // manifest get + one head per recorded output
                write_ops: 1,    // manifest put
                waves: 0,        // no get_many, no put_many
                bytes_down: inner.head(MANIFEST).unwrap().size,
                episodes: 1 + 3 + 1, // manifest get, a head_many per wave, manifest put
            }
        );
    }

    /// When up-to-date tasks feed re-executing ones, the wave fetches
    /// each distinct missing input once — two artifacts for four
    /// consumers — in one `get_many`.
    #[test]
    fn rerun_fetches_each_missing_input_once_in_one_get_many() {
        let clock = SimClock::new();
        let (store, inner, obs) = seal(&clock);
        let opts = RunOptions::new(clock).with_store(store).with_manifest(MANIFEST);
        assert!(fan_graph("v1").run(&opts).unwrap().succeeded());

        obs.reset();
        let rerun = fan_graph("v2").run(&opts).unwrap();
        assert!(rerun.succeeded());
        assert_eq!(rerun.executed(), vec!["m0", "m1", "m2", "m3"]);
        assert_eq!(rerun.count(TaskStatus::UpToDate), 3);
        let inputs = b"dem-a-bytes".len() + b"dem-b-longer-bytes".len();
        assert_eq!(
            Wan::of(&obs),
            Wan {
                read_ops: 1 + 2 + 2 + 1, // manifest, heads of g1+g2, both inputs, head of sink
                write_ops: 4 + 1,        // the mids' payloads, manifest
                waves: 1 + 1,            // one get_many, one put_many
                bytes_down: inner.head(MANIFEST).unwrap().size + inputs as u64,
                episodes: 1 + 1 + 1 + 1 + 1 + 1,
            }
        );
    }

    /// Two sibling tasks writing one artifact: the later one (task-id
    /// order) fails with `duplicate artifact` and sends nothing, at any
    /// thread count.
    #[test]
    fn duplicate_artifact_fails_the_later_task() {
        let run = |threads: usize| {
            let mut g = TaskGraph::new("dup");
            g.add_task("root", &[], "v1", emit("r", b"r", 1)).unwrap();
            for (task, payload) in [("first", b"from-first"), ("later", b"from-later")] {
                g.add_task(task, &["root"], "v1", move |_ctx| {
                    Ok(vec![TaskOutput::payload("shared", "obj/shared", payload.to_vec())])
                })
                .unwrap();
            }
            // Same object key under another artifact name is a clash too.
            g.add_task("same-key", &["root"], "v1", |_ctx| {
                Ok(vec![TaskOutput::payload("other-name", "obj/shared", b"x".to_vec())])
            })
            .unwrap();
            g.add_task("after-later", &["later"], "v1", emit("al", b"al", 1)).unwrap();
            let store = Arc::new(MemoryStore::new());
            let opts = RunOptions::new(SimClock::new())
                .with_threads(threads)
                .with_store(Arc::clone(&store) as Arc<dyn ObjectStore>);
            let run = g.run(&opts).unwrap();
            assert_eq!(store.get("obj/shared").unwrap(), b"from-first".to_vec());
            run
        };
        let one = run(1);
        assert_eq!(one.record("first").unwrap().status, TaskStatus::Succeeded);
        for task in ["later", "same-key"] {
            let rec = one.record(task).unwrap();
            assert_eq!(rec.status, TaskStatus::Failed, "{task}");
            assert!(rec.error.as_deref().unwrap().contains("duplicate artifact"), "{task}");
            assert!(rec.produced.is_empty(), "{task}");
        }
        assert_eq!(one.record("after-later").unwrap().status, TaskStatus::Skipped);
        assert_eq!(one.to_json(), run(8).to_json());
    }

    /// One `put_many` with some items failing (seeded write faults): a
    /// task is `Failed` exactly when its own object did not land, its
    /// siblings in the same batch succeed, only its child is `Skipped`,
    /// and the next run re-executes exactly the failed tasks' cones.
    #[test]
    fn partial_put_many_failure_fails_only_the_affected_tasks() {
        let mut g = TaskGraph::new("partial");
        // `emit` stores task `x`'s one artifact at `obj/x`.
        g.add_task("gen", &[], "v1", emit("gen", b"dem", 1)).unwrap();
        for i in 0..12 {
            let (leaf, child) = (format!("t{i:02}"), format!("c{i:02}"));
            g.add_task(&leaf, &["gen"], "v1", emit(&leaf, leaf.as_bytes(), 1)).unwrap();
            g.add_task(&child, &[&leaf], "v1", emit(&child, b"child", 1)).unwrap();
        }
        let inner = Arc::new(MemoryStore::new());
        let plan = FaultPlan::new(2).with_scope(FailScope::Writes).with_fault_rate(0.25);
        let faulty =
            FaultStore::new(Arc::clone(&inner) as Arc<dyn ObjectStore>, plan, SimClock::new())
                .unwrap();
        let opts = |store: Arc<dyn ObjectStore>| {
            RunOptions::new(SimClock::new())
                .with_threads(4)
                .with_store(store)
                .with_manifest(MANIFEST)
        };

        let first = g.run(&opts(Arc::new(faulty))).unwrap();
        let failed: Vec<&str> = first
            .records
            .iter()
            .filter(|r| r.status == TaskStatus::Failed)
            .map(|r| r.name.as_str())
            .collect();
        let leaves_failed = failed.iter().filter(|t| t.starts_with('t')).count();
        assert!((1..12).contains(&leaves_failed), "seed must fail some leaves: {failed:?}");
        for r in &first.records {
            let key = format!("obj/{}", r.name);
            match r.status {
                TaskStatus::Succeeded => assert!(inner.head(&key).is_ok(), "{}", r.name),
                TaskStatus::Failed => {
                    assert!(inner.head(&key).unwrap_err().is_not_found(), "{}", r.name);
                    assert!(r.error.as_deref().unwrap().starts_with("persist "), "{}", r.name);
                    assert!(r.produced.is_empty(), "{}", r.name);
                }
                TaskStatus::Skipped => {
                    assert!(failed.contains(&r.name.replace('c', "t").as_str()), "{}", r.name)
                }
                TaskStatus::UpToDate => panic!("cold run cannot be up to date: {}", r.name),
            }
        }
        let manifest = Manifest::load(inner.as_ref(), MANIFEST).unwrap();
        assert!(failed.iter().all(|t| !manifest.tasks.contains_key(*t)));

        // The endpoint heals: exactly the failed tasks and their cones run.
        let second = g.run(&opts(Arc::clone(&inner) as Arc<dyn ObjectStore>)).unwrap();
        assert!(second.succeeded());
        let want = g.dependency_cone(&failed);
        let got: BTreeSet<String> = second.executed().into_iter().map(String::from).collect();
        assert_eq!(got, want);
        assert_eq!(second.count(TaskStatus::UpToDate), g.len() - want.len());
    }

    /// An input that cannot be loaded fails exactly its consumers, with
    /// the reason behind the `input prefetch:` prefix: the store's error
    /// when the fetch fails, a checksum failure when the producer handed
    /// back a `Stored` descriptor without a content hash — the object
    /// exists, but nothing vouches for its bytes.
    #[test]
    fn failed_input_fetch_fails_only_its_consumers() {
        let cases = [(1.0, true, "injected"), (0.0, false, "failed checksum verification")];
        for (read_fault_rate, hashed, want) in cases {
            let inner = Arc::new(MemoryStore::new());
            let plan =
                FaultPlan::new(1).with_scope(FailScope::Reads).with_fault_rate(read_fault_rate);
            let store: Arc<dyn ObjectStore> = Arc::new(
                FaultStore::new(Arc::clone(&inner) as Arc<dyn ObjectStore>, plan, SimClock::new())
                    .unwrap(),
            );
            let mut g = TaskGraph::new("unreadable");
            g.add_task("gen", &[], "v1", emit("dem", b"dem", 1)).unwrap();
            // An exclusive task stores its own output, so it is never on
            // the blackboard and its consumer has to fetch it.
            g.add_exclusive_task("init", &[], "v1", {
                let store = Arc::clone(&store);
                move |_ctx| {
                    store.put("obj/header", b"header")?;
                    let a = Artifact::of_bytes("header", b"header", "obj/header");
                    let a = if hashed { a } else { Artifact { checksum: 0, ..a } };
                    Ok(vec![TaskOutput::Stored(a)])
                }
            })
            .unwrap();
            g.add_task("reads-header", &["init"], "v1", emit("a", b"a", 1)).unwrap();
            g.add_task("reads-dem", &["gen"], "v1", emit("b", b"b", 1)).unwrap();
            g.add_task("after", &["reads-header"], "v1", emit("c", b"c", 1)).unwrap();

            let run = g.run(&RunOptions::new(SimClock::new()).with_store(store)).unwrap();
            assert!(inner.exists("obj/header").unwrap());
            let rec = run.record("reads-header").unwrap();
            assert_eq!(rec.status, TaskStatus::Failed);
            let error = rec.error.as_deref().unwrap();
            assert!(error.starts_with("input prefetch: ") && error.contains(want), "{error}");
            assert_eq!(run.record("after").unwrap().status, TaskStatus::Skipped);
            assert_eq!(run.record("reads-dem").unwrap().status, TaskStatus::Succeeded);
            assert_eq!(run.count(TaskStatus::Succeeded), 3);
        }
    }

    /// Lineage over the run report: who produced an artifact, who consumed
    /// it — consumers being every task downstream of the producer's edge.
    #[test]
    fn lineage_queries_follow_produced_and_consumed() {
        let run = fan_graph("v1").run(&RunOptions::new(SimClock::new())).unwrap();
        assert_eq!(run.producer_of("dem-a").unwrap().name, "g1");
        assert_eq!(run.producer_of("m2-out").unwrap().name, "m2");
        assert!(run.producer_of("nothing").is_none());
        let mids: Vec<&str> = run.consumers_of("dem-b").iter().map(|r| r.name.as_str()).collect();
        assert_eq!(mids, vec!["m0", "m1", "m2", "m3"]);
        assert_eq!(run.consumers_of("m2-out")[0].name, "sink");
        assert!(run.consumers_of("sink-out").is_empty());
    }

    /// Manifest JSON round-trips byte-stably.
    #[test]
    fn manifest_round_trip() {
        let mut m = Manifest::default();
        m.tasks.insert(
            "b-task".into(),
            ManifestEntry {
                fingerprint: u64::MAX,
                outputs: vec![Artifact::of_bytes("o", b"xy", "obj/o")],
            },
        );
        m.tasks.insert("a-task".into(), ManifestEntry { fingerprint: 7, outputs: vec![] });
        let json = m.to_json().to_string();
        let back = Manifest::from_json(&json).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_json().to_string(), json);
    }

    /// The bytes of a manifest and of a run report are pinned: a manifest
    /// already stored loads and re-serialises to the same bytes, and the
    /// escapes, hex fingerprints and key order stay as they were written.
    #[test]
    fn manifest_and_run_report_bytes_are_pinned() {
        let manifest = concat!(
            r#"{"tasks":{"a-task":{"fingerprint":"0000000000000007","outputs":[]},"#,
            r#""b-task \"quoted\"\n":{"fingerprint":"ffffffffffffffff","outputs":[{"bytes":2,"#,
            r#""checksum":"08f14f07b58deb1a","location":"obj/o\u0001","name":"o\\ut"}]}}}"#,
        );
        assert_eq!(Manifest::from_json(manifest).unwrap().to_json().to_string(), manifest);

        let mut g = TaskGraph::new("pin");
        g.add_task("gen", &[], "v1", |ctx| {
            ctx.charge_compute_ns(5);
            Ok(vec![TaskOutput::payload("dem", "obj/dem", b"abc".to_vec())])
        })
        .unwrap();
        g.add_task("bad", &["gen"], "v1", |_| Err(NsdfError::invalid("boom\t!"))).unwrap();
        g.add_task("after", &["bad"], "v1", |_| Ok(vec![])).unwrap();
        let run = g.run(&RunOptions::new(SimClock::new())).unwrap();
        let report = concat!(
            r#"{"ended_ns":5,"name":"pin","records":[{"compute_ns":5,"consumed":[],"error":null,"#,
            r#""fingerprint":"b50dc87cb9c68de5","name":"gen","produced":[{"bytes":3,"#,
            r#""checksum":"44bc2cf5ad770999","location":"obj/dem","name":"dem"}],"#,
            r#""status":"succeeded","wave":0},{"compute_ns":0,"consumed":["dem"],"#,
            r#""error":"invalid argument: boom\t!","fingerprint":"857cfcb69864b80e","name":"bad","#,
            r#""produced":[],"status":"failed","wave":1},{"compute_ns":0,"consumed":[],"#,
            r#""error":null,"fingerprint":"0000000000000000","name":"after","produced":[],"#,
            r#""status":"skipped","wave":2}],"started_ns":0,"wave_ended_ns":[5,5],"waves":2}"#,
        );
        assert_eq!(run.to_json().to_string(), report);
    }

    /// Graph construction rejects duplicates, empty names, and unknown
    /// (i.e. forward/cyclic) dependencies.
    #[test]
    fn construction_validation() {
        let mut g = TaskGraph::new("v");
        g.add_task("a", &[], "v1", emit("a", b"a", 1)).unwrap();
        assert!(g.add_task("a", &[], "v1", emit("a2", b"a", 1)).is_err());
        assert!(g.add_task("", &[], "v1", emit("e", b"e", 1)).is_err());
        assert!(g.add_task("b", &["zzz"], "v1", emit("b", b"b", 1)).is_err());
        assert_eq!(g.len(), 1);
        // A manifest without a store is rejected up front.
        let err = g.run(&RunOptions::new(SimClock::new()).with_manifest("m")).unwrap_err();
        assert!(err.to_string().contains("store"));
    }
}
