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

use nsdf_util::json::JsonValue;

/// Write one artifact to the repository root, where the determinism script
/// and `git diff` look for it: the one JSON writer's text, with each
/// top-level member and each element of a top-level array of objects on
/// its own line, so a regenerated artifact diffs by record.
pub fn write_artifact(name: &str, doc: &JsonValue) {
    let JsonValue::Obj(members) = doc else { panic!("{name}: an artifact is a JSON object") };
    let lines: Vec<String> = members
        .iter()
        .map(|(key, value)| match value {
            JsonValue::Arr(items)
                if !items.is_empty() && items.iter().all(|v| matches!(v, JsonValue::Obj(_))) =>
            {
                let rows: Vec<String> = items.iter().map(|v| format!("    {v}")).collect();
                format!("  {}:[\n{}\n  ]", JsonValue::from(key.as_str()), rows.join(",\n"))
            }
            _ => format!("  {}:{value}", JsonValue::from(key.as_str())),
        })
        .collect();
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let text = format!("{{\n{}\n}}\n", lines.join(",\n"));
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use nsdf_util::json::JsonValue;

    /// Every artifact `scripts/seeded_determinism.sh` gates parses with the
    /// workspace's one JSON parser and names the bench that writes it.
    #[test]
    fn committed_artifacts_parse_and_name_their_bench() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let read = |file: &str| {
            std::fs::read_to_string(format!("{root}/{file}"))
                .unwrap_or_else(|e| panic!("read {file}: {e}"))
        };
        let script = read("scripts/seeded_determinism.sh");
        let (_, list) = script.split_once("PAIRS=(").expect("PAIRS list");
        let (list, _) = list.split_once("\n)").expect("PAIRS list end");
        let pairs: Vec<(&str, &str)> = list
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| l.split_once(':').expect("bench:artifact"))
            .collect();
        assert_eq!(pairs.len(), 10, "{pairs:?}");
        for (bench, artifact) in pairs {
            let doc = JsonValue::parse(&read(artifact))
                .unwrap_or_else(|e| panic!("{artifact} does not parse: {e}"));
            let name = doc.field("bench").and_then(|b| b.str_of("bench")).expect("bench member");
            assert!(name.starts_with(bench), "{artifact} names bench {name:?}, written by {bench}");
        }
    }
}
