//! Property tests for the task-graph engine over seeded random DAGs.
//!
//! Three invariants the DAG scheduler rests on:
//!
//! 1. **Topological validity**: for every dependency edge `d -> t`, task
//!    `d` runs in a strictly earlier wave than `t`, whatever the random
//!    graph shape.
//! 2. **Deterministic schedule**: the full run report — statuses, waves,
//!    fingerprints, artifact checksums, virtual timestamps — serialises
//!    to byte-identical JSON across fresh runs and across worker-thread
//!    counts (1 vs 8).
//!    The same holds over a seeded WAN, where every engine store call
//!    draws jitter from a global operation counter: issue order is part
//!    of the report (`ended_ns`) and of the `wan.*` counters.
//! 3. **Exact incremental dirty set**: after editing the definitions of
//!    a random subset of tasks, a manifest-backed rerun re-executes
//!    *exactly* the dependency cone of the edited tasks — every task in
//!    the cone is `Succeeded`, every task outside it is `UpToDate`, and
//!    nothing is skipped or failed.
//! 4. **Virtual time is compute plus link time**: over a seeded WAN a
//!    run takes at least the sum of its waves' critical compute, and at
//!    most that plus the link time its store calls booked, however its
//!    issued uploads overlapped the compute.

use nsdf_storage::{CloudStore, MemoryStore, NetworkProfile, ObjectStore};
use nsdf_util::obs::Obs;
use nsdf_util::{Fnv1a, SimClock};
use nsdf_workflow::{GraphRun, RunOptions, TaskGraph, TaskOutput, TaskStatus};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A random DAG: `deps[i]` lists dependencies with indices `< i`, so the
/// graph is acyclic by construction (matching `add_task`'s contract).
#[derive(Debug, Clone)]
struct DagSpec {
    deps: Vec<Vec<usize>>,
}

impl DagSpec {
    fn from_seed(seed: u64) -> DagSpec {
        let mut rng = seed | 1;
        let n = 2 + (xorshift(&mut rng) % 18) as usize;
        let mut deps = Vec::with_capacity(n);
        for i in 0..n {
            let mut d = Vec::new();
            for j in 0..i {
                if xorshift(&mut rng).is_multiple_of(3) {
                    d.push(j);
                }
            }
            deps.push(d);
        }
        DagSpec { deps }
    }

    fn len(&self) -> usize {
        self.deps.len()
    }

    /// Build the graph. Each task's payload is an FNV chain over its own
    /// name, its `version`, and every consumed artifact's checksum and
    /// bytes — so any upstream content change propagates a content change
    /// down every path, and a version bump always changes the definition
    /// fingerprint.
    fn build(&self, versions: &[u64]) -> TaskGraph {
        let mut g = TaskGraph::new("prop-dag");
        for (i, dep_ids) in self.deps.iter().enumerate() {
            let name = format!("t{i}");
            let dep_names: Vec<String> = dep_ids.iter().map(|j| format!("t{j}")).collect();
            let deps: Vec<&str> = dep_names.iter().map(String::as_str).collect();
            let version = versions[i];
            let task_name = name.clone();
            g.add_task(name, &deps, &format!("v{version}"), move |ctx| {
                let mut h = Fnv1a::new();
                h.update(task_name.as_bytes());
                h.update(&version.to_le_bytes());
                for input in ctx.inputs() {
                    h.update(input.artifact.name.as_bytes());
                    h.update(&input.artifact.checksum.to_le_bytes());
                    h.update(&input.bytes);
                }
                ctx.charge_compute_ns(1_000 + (version % 7) * 500);
                let mut bytes = h.digest().to_le_bytes().to_vec();
                bytes.extend_from_slice(task_name.as_bytes());
                Ok(vec![TaskOutput::payload(
                    format!("out/{task_name}"),
                    format!("prop/{task_name}"),
                    bytes,
                )])
            })
            .unwrap();
        }
        g
    }
}

fn run_fresh(spec: &DagSpec, versions: &[u64], threads: usize) -> GraphRun {
    let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let opts = RunOptions::new(SimClock::new()).with_threads(threads).with_store(store);
    spec.build(versions).run(&opts).unwrap()
}

/// A cold run, then a rerun with every third task's version bumped,
/// both over one seeded Seal-class WAN — so the wave's `head_many`,
/// `get_many` and `put_many` all carry traffic. Returns both reports and
/// the endpoint's whole metrics registry (`wan.*` counters and the per-op
/// latency histogram) as JSON.
fn run_over_wan(spec: &DagSpec, threads: usize, wan_seed: u64) -> (String, String, String) {
    let clock = SimClock::new();
    let obs = Obs::new(clock.clone());
    let wan = CloudStore::new(
        Arc::new(MemoryStore::new()),
        NetworkProfile::private_seal(),
        clock.clone(),
        wan_seed,
    )
    .with_obs(&obs);
    let opts = RunOptions::new(clock)
        .with_threads(threads)
        .with_store(Arc::new(wan))
        .with_manifest("prop/manifest.json");
    let mut versions: Vec<u64> = (0..spec.len() as u64).map(|i| i % 5 + 1).collect();
    let cold = spec.build(&versions).run(&opts).unwrap();
    for v in versions.iter_mut().step_by(3) {
        *v += 1;
    }
    let rerun = spec.build(&versions).run(&opts).unwrap();
    assert!(cold.succeeded() && rerun.succeeded());
    (cold.to_json().to_string(), rerun.to_json().to_string(), obs.snapshot().to_json().to_string())
}

/// The sum over waves of the longest compute a task of the wave charged
/// (every task of these graphs is parallel).
fn critical_compute_ns(run: &GraphRun) -> u64 {
    let mut longest = vec![0u64; run.waves as usize];
    for r in run.records.iter().filter(|r| r.status == TaskStatus::Succeeded) {
        let w = &mut longest[r.wave as usize];
        *w = (*w).max(r.compute_ns);
    }
    longest.iter().sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_edge_respects_wave_order(seed in any::<u64>()) {
        let spec = DagSpec::from_seed(seed);
        let versions = vec![1u64; spec.len()];
        let run = run_fresh(&spec, &versions, 4);
        prop_assert!(run.succeeded());
        for (i, dep_ids) in spec.deps.iter().enumerate() {
            let ti = run.record(&format!("t{i}")).unwrap();
            for &j in dep_ids {
                let tj = run.record(&format!("t{j}")).unwrap();
                prop_assert!(
                    tj.wave < ti.wave,
                    "edge t{j} -> t{i}: waves {} !< {}", tj.wave, ti.wave
                );
            }
        }
    }

    #[test]
    fn schedule_is_deterministic_across_runs_and_thread_counts(seed in any::<u64>()) {
        let spec = DagSpec::from_seed(seed);
        let versions: Vec<u64> = (0..spec.len() as u64).map(|i| i % 5 + 1).collect();
        let a = run_fresh(&spec, &versions, 1).to_json();
        let b = run_fresh(&spec, &versions, 8).to_json();
        let c = run_fresh(&spec, &versions, 8).to_json();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&b, &c);
    }

    #[test]
    fn schedule_over_a_seeded_wan_is_deterministic_across_thread_counts(seed in any::<u64>()) {
        let spec = DagSpec::from_seed(seed);
        let a = run_over_wan(&spec, 1, seed);
        let b = run_over_wan(&spec, 8, seed);
        let c = run_over_wan(&spec, 8, seed);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&b, &c);
    }

    #[test]
    fn run_time_is_critical_compute_plus_at_most_the_link_time(seed in any::<u64>()) {
        let spec = DagSpec::from_seed(seed);
        let clock = SimClock::new();
        let obs = Obs::new(clock.clone());
        let wan = CloudStore::new(
            Arc::new(MemoryStore::new()),
            NetworkProfile::private_seal(),
            clock.clone(),
            seed,
        )
        .with_obs(&obs);
        let opts = RunOptions::new(clock)
            .with_threads(4)
            .with_store(Arc::new(wan))
            .with_manifest("prop/manifest.json");
        let mut versions: Vec<u64> = (0..spec.len() as u64).map(|i| i % 5 + 1).collect();
        for _ in 0..2 {
            // A cold run, then a rerun with every third task edited.
            let busy = obs.snapshot().counter("wan.busy_vns");
            let run = spec.build(&versions).run(&opts).unwrap();
            let link = obs.snapshot().counter("wan.busy_vns") - busy;
            let (compute, elapsed) = (critical_compute_ns(&run), run.ended_ns - run.started_ns);
            prop_assert!(run.succeeded());
            prop_assert!(compute <= elapsed, "compute {} > run {}", compute, elapsed);
            prop_assert!(
                elapsed <= compute + link,
                "run {} > compute {} + link {}", elapsed, compute, link
            );
            for v in versions.iter_mut().step_by(3) {
                *v += 1;
            }
        }
    }

    #[test]
    fn incremental_rerun_is_exactly_the_dirty_cone(seed in any::<u64>()) {
        let spec = DagSpec::from_seed(seed);
        let n = spec.len();
        let mut versions = vec![1u64; n];

        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let opts = RunOptions::new(SimClock::new())
            .with_threads(4)
            .with_store(Arc::clone(&store))
            .with_manifest("prop/manifest.json");
        let cold = spec.build(&versions).run(&opts).unwrap();
        prop_assert_eq!(cold.count(TaskStatus::Succeeded), n);

        // Dirty a random non-empty subset by bumping versions.
        let mut rng = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut dirty: Vec<usize> =
            (0..n).filter(|_| xorshift(&mut rng).is_multiple_of(4)).collect();
        if dirty.is_empty() {
            dirty.push((xorshift(&mut rng) % n as u64) as usize);
        }
        for &i in &dirty {
            versions[i] += 1;
        }

        let graph = spec.build(&versions);
        let dirty_names: Vec<String> = dirty.iter().map(|i| format!("t{i}")).collect();
        let seeds: Vec<&str> = dirty_names.iter().map(String::as_str).collect();
        let cone = graph.dependency_cone(&seeds);

        let rerun = graph.run(&opts).unwrap();
        prop_assert!(rerun.succeeded());
        prop_assert_eq!(rerun.count(TaskStatus::Failed), 0);
        prop_assert_eq!(rerun.count(TaskStatus::Skipped), 0);
        let executed: BTreeSet<String> = rerun
            .records
            .iter()
            .filter(|r| r.status == TaskStatus::Succeeded)
            .map(|r| r.name.clone())
            .collect();
        prop_assert_eq!(executed, cone, "dirty set {:?}", dirty_names);
    }
}
