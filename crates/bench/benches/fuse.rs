//! §III-B NSDF-FUSE: which mapping package wins which op mix. Runs the
//! mapping palette over the small-file and large-file mixes on both WAN
//! profiles of §III, plus a chunk-size ablation of the Chunked mapping.
//! Emits `BENCH_fuse.json` at the repo root; the public-dataverse rows are
//! the table `reproduce -- fuse` prints and EXPERIMENTS.md quotes
//! ("NSDF-FUSE mapping packages").
//!
//! Every quantity in the artifact is a request counter or virtual-clock
//! time, so two runs with the same seed produce byte-identical files, and
//! CI diffs them.

use nsdf_fuse::{run_workload, FuseBenchResult, Mapping, OpMix};
use nsdf_storage::NetworkProfile;
use nsdf_util::json::JsonValue;

const SEED: u64 = 2024;
/// Mix of the chunk-size ablation: two 4 MiB files, written and read once.
const ABLATION_MIX: OpMix = OpMix { files: 2, file_bytes: 4 << 20, read_passes: 1, delete: false };
const ABLATION_CHUNKS: [usize; 4] = [64 << 10, 256 << 10, 1 << 20, 4 << 20];

/// One artifact row; `extra` is the member that tells a palette row
/// (`workload`) from an ablation row (`chunk_bytes`).
fn row(extra: (&str, JsonValue), r: &FuseBenchResult) -> JsonValue {
    println!(
        "{:<28} {:<17} {:<11} rd={:<5} wr={:<5} waves={:<5} virtual={:>8.3}s",
        format!("{}={}", extra.0, extra.1),
        r.network,
        r.mapping.name(),
        r.store_read_ops,
        r.store_write_ops,
        r.store_waves,
        r.virtual_secs
    );
    JsonValue::obj([
        extra,
        ("profile", r.network.as_str().into()),
        ("mapping", r.mapping.name().into()),
        ("file_ops", r.file_ops.into()),
        ("store_read_ops", r.store_read_ops.into()),
        ("store_write_ops", r.store_write_ops.into()),
        ("store_waves", r.store_waves.into()),
        ("virtual_secs", JsonValue::fixed(r.virtual_secs, 6)),
    ])
}

fn main() {
    let mut records = Vec::new();
    for profile in [NetworkProfile::public_dataverse, NetworkProfile::private_seal] {
        for (name, mix) in
            [("small-files", OpMix::small_files()), ("large-files", OpMix::large_files())]
        {
            for mapping in Mapping::palette() {
                let r = run_workload(mapping, profile(), mix, SEED).expect("workload runs");
                records.push(row(("workload", name.into()), &r));
            }
        }
    }

    let mut ablation = Vec::new();
    for chunk_bytes in ABLATION_CHUNKS {
        let mapping = Mapping::Chunked { chunk_bytes };
        let r = run_workload(mapping, NetworkProfile::private_seal(), ABLATION_MIX, SEED)
            .expect("workload runs");
        ablation.push(row(("chunk_bytes", chunk_bytes.into()), &r));
        // Chunk reads and writes go through `get_many`/`put_many`, so a
        // file split into several chunks costs a handful of WAN waves, not
        // one round trip per chunk.
        if chunk_bytes < ABLATION_MIX.file_bytes {
            assert!(
                r.store_waves < r.store_read_ops + r.store_write_ops,
                "chunked({chunk_bytes}): batched chunk I/O must collapse round trips"
            );
        }
    }

    let chunk_ablation = JsonValue::obj([
        ("files", ABLATION_MIX.files.into()),
        ("file_bytes", ABLATION_MIX.file_bytes.into()),
        ("records", JsonValue::Arr(ablation)),
    ]);
    let doc = JsonValue::obj([
        ("bench", "fuse".into()),
        ("seed", SEED.into()),
        ("records", JsonValue::Arr(records)),
        ("chunk_ablation", chunk_ablation),
    ]);
    nsdf_bench::write_artifact("BENCH_fuse.json", &doc);
}
