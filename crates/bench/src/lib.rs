//! # nsdf-bench
//!
//! The deterministic artifact generators. Each target in `benches/` is a
//! plain `main` that writes committed `BENCH_*.json` files made of
//! virtual-clock times, counters and seeded draws;
//! `scripts/seeded_determinism.sh` runs every target twice, compares the
//! two files and diffs the result against the committed one, and refuses a
//! target that is not on its list. Wall-clock time is measured in one
//! place only, the end-to-end `benchmark/` package.

#![forbid(unsafe_code)]

/// Write one artifact to the repository root, where the determinism script
/// and `git diff` look for it.
pub fn write_artifact(name: &str, json: &str) {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}
