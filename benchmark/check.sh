#!/usr/bin/env bash
# check.sh — the package's tooling/CI entry: build, unit tests, lints,
# formatting, then two `--quick` runs of every workload whose virtual
# metrics and exact per-layer counters must come out identical.
set -euo pipefail
cd "$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

cargo build --release --offline
cargo test --offline
cargo clippy --offline --all-targets -- -D warnings
cargo fmt --check

BIN="$CARGO_TARGET_DIR/release/tutorial-day"
mkdir -p out
for w in pipeline ingest classroom catalog; do
  for trace in 0 1; do
    for run in a b; do
      "$BIN" --workload "$w" --quick --trace "$trace" | tail -n 1 > "out/quick-$w-$trace-$run.json"
    done
    python3 - "out/quick-$w-$trace-a.json" "out/quick-$w-$trace-b.json" "$w" "$trace" <<'PY'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
w, trace = sys.argv[3:5]
# Wall/CPU timings legitimately differ between runs; everything else is a
# count or a virtual-clock quantity and must repeat exactly.
timed = ("cpu_s", "cpu_us", "cpu_ms", "_mb_s")
skip = {"setup_s", "peak_rss_mib"}
diff = [k for k, m in a["metrics"].items()
        if k not in skip and not k.endswith(timed) and not k.startswith("trace.")
        and m["value"] != b["metrics"][k]["value"]]
ok = a["correct"] and b["correct"] and not diff and (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
print(f"check: {w} trace={trace}: {'identical' if ok else 'DIFFERENT ' + str(diff)}")
sys.exit(0 if ok else 1)
PY
  done
done
echo "check: ok"
