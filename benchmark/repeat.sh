#!/usr/bin/env bash
# repeat.sh [N=5] — run every workload N times, each time with another seed
# (the way the acceptance driver does), and print for each end-to-end metric
# x workload: min / median / max and the spread — the distance between the
# first and third quartile as a share of the median — against the metric's
# bound in BENCHMARK.json. Fails if a spread (setup_s excepted) exceeds its
# bound. Its output is what fixes the bounds written into BENCHMARK.json.
#
#   SEED0=100 benchmark/repeat.sh 10     # seeds 100..109
set -euo pipefail
cd "$(dirname "$0")/.."
N="${1:-5}"
SEED0="${SEED0:-2024}"
WORKLOADS="pipeline ingest classroom catalog"
OUT="benchmark/out/repeat"
mkdir -p "$OUT"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
BIN="$CARGO_TARGET_DIR/release/tutorial-day"

for w in $WORKLOADS; do
  : > "$OUT/$w.jsonl"
  for i in $(seq 0 $((N - 1))); do
    seed=$((SEED0 + i))
    echo "repeat: $w seed $seed" >&2
    "$BIN" --workload "$w" --seed "$seed" --trace 0 | tail -n 1 >> "$OUT/$w.jsonl"
  done
done

python3 - "$OUT" $WORKLOADS <<'PY'
import json, statistics, sys
out, workloads = sys.argv[1], sys.argv[2:]
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
bad = []
print(f"{'workload':<10} {'metric':<28} {'min':>14} {'median':>14} {'max':>14} {'spread':>8} {'bound':>6}")
for w in workloads:
    runs = [json.loads(l) for l in open(f"{out}/{w}.jsonl") if l.strip()]
    if not all(r["correct"] for r in runs):
        bad.append(f"{w}: a run reported correct=false")
    for name, bound in bounds.items():
        v = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(v)
        if len(v) >= 2:
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
        else:
            spread = 0.0
        flag = ""
        if name != "setup_s" and spread > bound:
            flag = "  > bound"
            bad.append(f"{w}/{name}: spread {spread:.4f} > bound {bound}")
        elif name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print(f"{w:<10} {name:<28} {min(v):>14.6f} {med:>14.6f} {max(v):>14.6f} {spread:>8.4f} {bound:>6}{flag}")
if bad:
    print("repeat: FAILED\n  " + "\n  ".join(bad))
    sys.exit(1)
print("repeat: every spread is within its bound")
PY
