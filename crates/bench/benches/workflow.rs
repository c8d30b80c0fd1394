//! Task-graph workflow: virtual-time cost of the four-step GEOtiled /
//! SOMOSPIE pipeline as a scheduled DAG versus the sequential baseline,
//! plus hash-verified incremental recompute after a one-cell DEM edit —
//! on both WAN profiles of §III. Emits `BENCH_workflow.json` at the repo
//! root; numbers are quoted in EXPERIMENTS.md ("Distributed GEOtiled
//! DAG").
//!
//! Every quantity in the artifact is virtual-clock, counter, or
//! content-digest state — nothing samples wall time or ambient entropy —
//! so two runs produce byte-identical files, and CI diffs them.

use nsdf_core::{run_terrain_dag, DagConfig, NsdfClient};
use nsdf_geotiled::DemEdit;
use nsdf_util::json::JsonValue;
use nsdf_workflow::TaskStatus;

const SEED: u64 = 42;

/// One DEM-cell edit strictly inside tile (1,1)'s interior on the 4x4
/// grid — at least 2 px from the tile boundary, so no neighbor halo
/// strip sees it and the dependency cone stays minimal.
const EDIT: DemEdit = DemEdit { x: 48, y: 36, delta_m: 40.0 };

struct ProfileRecord {
    endpoint: &'static str,
    parallel_secs: f64,
    parallel_waves: u64,
    sequential_secs: f64,
    sequential_waves: u64,
    incremental_secs: f64,
    incremental_executed: usize,
    incremental_up_to_date: usize,
    digests: JsonValue,
}

impl From<&ProfileRecord> for JsonValue {
    fn from(r: &ProfileRecord) -> JsonValue {
        JsonValue::obj([
            ("endpoint", r.endpoint.into()),
            ("parallel_virtual_secs", JsonValue::fixed(r.parallel_secs, 6)),
            ("parallel_waves", r.parallel_waves.into()),
            ("sequential_virtual_secs", JsonValue::fixed(r.sequential_secs, 6)),
            ("sequential_waves", r.sequential_waves.into()),
            ("speedup", JsonValue::fixed(r.sequential_secs / r.parallel_secs, 4)),
            ("incremental_virtual_secs", JsonValue::fixed(r.incremental_secs, 6)),
            ("incremental_executed", r.incremental_executed.into()),
            ("incremental_up_to_date", r.incremental_up_to_date.into()),
            ("digests", r.digests.clone()),
        ])
    }
}

fn config(endpoint: &str) -> DagConfig {
    let mut cfg = DagConfig::small(SEED);
    cfg.storage_endpoint = endpoint.into();
    cfg
}

fn run_profile(endpoint: &'static str) -> ProfileRecord {
    // Cold parallel run with the manifest enabled, plus a determinism
    // check: a second cold client must reproduce the schedule report
    // byte-for-byte.
    let client = NsdfClient::simulated(SEED);
    let cfg = config(endpoint);
    let cold = run_terrain_dag(&client, &cfg).expect("cold parallel run");
    assert_eq!(cold.run.count(TaskStatus::Succeeded), 107);
    {
        let twin = NsdfClient::simulated(SEED);
        let again = run_terrain_dag(&twin, &cfg).expect("twin run");
        assert_eq!(
            cold.run.to_json(),
            again.run.to_json(),
            "{endpoint}: cold schedule must be reproducible byte-for-byte"
        );
    }

    // Sequential baseline: same workload, ready queue truncated to one
    // task per wave, fresh client so WAN state matches the cold run.
    let seq_client = NsdfClient::simulated(SEED);
    let mut seq_cfg = config(endpoint);
    seq_cfg.sequential = true;
    seq_cfg.manifest_key = None;
    let seq = run_terrain_dag(&seq_client, &seq_cfg).expect("sequential baseline");
    assert_eq!(seq.digests, cold.digests, "{endpoint}: schedule must not change bytes");
    // The bar: waves overlap compute *and* batch their store traffic, so
    // the schedule must beat one-task-per-wave by at least 1.5x.
    assert!(
        seq.virtual_secs >= 1.5 * cold.virtual_secs,
        "{endpoint}: parallel {} is not 1.5x faster than sequential {}",
        cold.virtual_secs,
        seq.virtual_secs
    );

    // Incremental rerun after one DEM-cell edit, against the cold run's
    // store + manifest: exactly the dependency cone re-executes, and the
    // result is bitwise-identical to a from-scratch run with the edit.
    let mut edited = cfg.clone();
    edited.edits = vec![EDIT];
    let inc = run_terrain_dag(&client, &edited).expect("incremental rerun");
    assert_eq!(inc.run.count(TaskStatus::Succeeded), 48, "{endpoint}: cone size");
    assert_eq!(inc.run.count(TaskStatus::UpToDate), 59, "{endpoint}: cut-off size");
    let scratch_client = NsdfClient::simulated(SEED);
    let scratch = run_terrain_dag(&scratch_client, &edited).expect("from-scratch oracle");
    assert_eq!(
        inc.digests, scratch.digests,
        "{endpoint}: incremental result must equal from-scratch bitwise"
    );

    ProfileRecord {
        endpoint,
        parallel_secs: cold.virtual_secs,
        parallel_waves: cold.run.waves,
        sequential_secs: seq.virtual_secs,
        sequential_waves: seq.run.waves,
        incremental_secs: inc.virtual_secs,
        incremental_executed: inc.run.count(TaskStatus::Succeeded),
        incremental_up_to_date: inc.run.count(TaskStatus::UpToDate),
        digests: JsonValue::Obj(
            inc.digests.into_iter().map(|(k, v)| (k, v.as_str().into())).collect(),
        ),
    }
}

fn main() {
    let wall = std::time::Instant::now();
    let records: Vec<ProfileRecord> = ["dataverse", "seal"].map(run_profile).into_iter().collect();

    for r in &records {
        println!(
            "{}: parallel {:.3}s ({} waves) vs sequential {:.3}s ({} waves), speedup {:.2}x; \
             incremental edit re-ran {}/{} tasks in {:.3}s",
            r.endpoint,
            r.parallel_secs,
            r.parallel_waves,
            r.sequential_secs,
            r.sequential_waves,
            r.sequential_secs / r.parallel_secs,
            r.incremental_executed,
            r.incremental_executed + r.incremental_up_to_date,
            r.incremental_secs,
        );
    }

    let cfg = DagConfig::small(SEED);
    let edit = JsonValue::obj([
        ("x", EDIT.x.into()),
        ("y", EDIT.y.into()),
        ("delta_m", JsonValue::fixed(f64::from(EDIT.delta_m), 1)),
    ]);
    let workload = JsonValue::obj([
        ("width", cfg.width.into()),
        ("height", cfg.height.into()),
        ("tiles", [cfg.tiles.0, cfg.tiles.1].into_iter().collect()),
        ("tasks", 107u64.into()),
        ("threads", cfg.threads.into()),
        ("edit", edit),
    ]);
    let doc = JsonValue::obj([
        ("bench", "workflow".into()),
        ("seed", SEED.into()),
        ("workload", workload),
        ("profiles", records.iter().collect()),
    ]);
    nsdf_bench::write_artifact("BENCH_workflow.json", &doc);
    println!("{:.1}s wall", wall.elapsed().as_secs_f64());
}
