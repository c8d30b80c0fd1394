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

const SEED: u64 = 2024;
/// Mix of the chunk-size ablation: two 4 MiB files, written and read once.
const ABLATION_MIX: OpMix = OpMix { files: 2, file_bytes: 4 << 20, read_passes: 1, delete: false };
const ABLATION_CHUNKS: [usize; 4] = [64 << 10, 256 << 10, 1 << 20, 4 << 20];

/// One artifact row; `extra` is the leading `"key":value,` pair that tells
/// a palette row (`"workload"`) from an ablation row (`"chunk_bytes"`).
fn row(extra: &str, r: &FuseBenchResult) -> String {
    println!(
        "{extra:<28} {:<17} {:<11} rd={:<5} wr={:<5} waves={:<5} virtual={:>8.3}s",
        r.network,
        r.mapping.name(),
        r.store_read_ops,
        r.store_write_ops,
        r.store_waves,
        r.virtual_secs
    );
    format!(
        "{{{extra}\"profile\":\"{}\",\"mapping\":\"{}\",\"file_ops\":{},\"store_read_ops\":{},\
         \"store_write_ops\":{},\"store_waves\":{},\"virtual_secs\":{:.6}}}",
        r.network,
        r.mapping.name(),
        r.file_ops,
        r.store_read_ops,
        r.store_write_ops,
        r.store_waves,
        r.virtual_secs
    )
}

fn main() {
    let mut records = Vec::new();
    for profile in [NetworkProfile::public_dataverse, NetworkProfile::private_seal] {
        for (name, mix) in
            [("small-files", OpMix::small_files()), ("large-files", OpMix::large_files())]
        {
            for mapping in Mapping::palette() {
                let r = run_workload(mapping, profile(), mix, SEED).expect("workload runs");
                records.push(row(&format!("\"workload\":\"{name}\","), &r));
            }
        }
    }

    let mut ablation = Vec::new();
    for chunk_bytes in ABLATION_CHUNKS {
        let mapping = Mapping::Chunked { chunk_bytes };
        let r = run_workload(mapping, NetworkProfile::private_seal(), ABLATION_MIX, SEED)
            .expect("workload runs");
        ablation.push(row(&format!("\"chunk_bytes\":{chunk_bytes},"), &r));
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

    let json = format!(
        "{{\n  \"bench\": \"fuse\",\n  \"seed\": {SEED},\n  \"records\": [\n    {}\n  ],\n  \
         \"chunk_ablation\": {{\"files\": {}, \"file_bytes\": {}, \"records\": [\n    {}\n  ]}}\n}}\n",
        records.join(",\n    "),
        ABLATION_MIX.files,
        ABLATION_MIX.file_bytes,
        ablation.join(",\n    ")
    );
    nsdf_bench::write_artifact("BENCH_fuse.json", &json);
}
