#!/usr/bin/env bash
# same_numbers.sh <parent-checkout> [seed=2024] [workloads=all]
#
# The check a refactor that claims "same numbers" owes: builds benchmark/
# from <parent-checkout> and from this checkout into ab_pairs.sh's target
# directories ($AB_DIR/target-{parent,change}), runs every workload of
# BENCHMARK.json once per side untraced (end-to-end metrics) and once with
# --trace 1 (per-layer metrics), each for the file's run_seconds, and
# compares the two sides' result lines. The optional third argument names
# the workloads to compare instead, space- or comma-separated (one
# argument), so a change that claims a gain on one workload can show by
# exit status that the others did not move.
#
# Every metric must be identical except those read from the wall clock or
# the process size: names containing `cpu`, `setup_s`, `peak_rss_mib`,
# `*_mb_s` and `trace.overhead_frac`. `correct`, `attempted` and `failed`
# must be equal too. Prints one line per workload and mode, lists every
# metric that differs, and exits non-zero if any does. The JSON lines stay
# in $AB_DIR (default benchmark/out/ab_pairs, which git ignores).
#
#   git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
#   AB_DIR=../ab scripts/same_numbers.sh ../parent 2024
#   AB_DIR=../ab scripts/same_numbers.sh ../parent 7 "ingest classroom catalog"
set -euo pipefail
[ $# -ge 1 ] || { sed -n '2,25p' "$0" >&2; exit 2; }
PARENT="$(cd "$1" && pwd)"
SEED="${2:-2024}"
CHANGE="$(cd "$(dirname "$0")/.." && pwd)"
AB_DIR="${AB_DIR:-$CHANGE/benchmark/out/ab_pairs}"
mkdir -p "$AB_DIR"
AB_DIR="$(cd "$AB_DIR" && pwd)"
read -r SECONDS_BUDGET WORKLOADS < <(python3 -c '
import json, sys
spec = json.load(open(sys.argv[1]))
print(spec["run_seconds"], " ".join(w["name"] for w in spec["workloads"]))' "$CHANGE/BENCHMARK.json")
if [ -n "${3:-}" ]; then
  for w in ${3//,/ }; do
    case " $WORKLOADS " in *" $w "*) ;; *) echo "same_numbers: unknown workload $w" >&2; exit 2 ;; esac
  done
  WORKLOADS="${3//,/ }"
fi

for side in parent change; do
  root="$PARENT"; [ "$side" = change ] && root="$CHANGE"
  echo "same_numbers: building $side ($root)" >&2
  CARGO_TARGET_DIR="$AB_DIR/target-$side" \
    cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
done

status=0
for w in $WORKLOADS; do
  for trace in 0 1; do
    for side in parent change; do
      echo "same_numbers: $w trace=$trace $side" >&2
      (cd "$AB_DIR" && "target-$side/release/tutorial-day" --workload "$w" --seed "$SEED" \
        --seconds "$SECONDS_BUDGET" --trace "$trace") | tail -n 1 > "$AB_DIR/same.$w.$SEED.$trace.$side.json"
    done
    python3 - "$AB_DIR/same.$w.$SEED.$trace" "$w trace=$trace" <<'PY' || status=1
import json, sys
parent, change = (json.load(open(f"{sys.argv[1]}.{side}.json")) for side in ("parent", "change"))
timed = lambda k: "cpu" in k or k in ("setup_s", "peak_rss_mib", "trace.overhead_frac") or k.endswith("_mb_s")
value = lambda run, k: run["metrics"].get(k, {}).get("value")
keys = sorted(set(parent["metrics"]) | set(change["metrics"]))
diff = [f"{k}: {value(parent, k)} -> {value(change, k)}"
        for k in keys if not timed(k) and value(parent, k) != value(change, k)]
diff += [f"{k}: {parent[k]} -> {change[k]}"
         for k in ("correct", "attempted", "failed") if parent[k] != change[k]]
compared = sum(not timed(k) for k in keys)
print(f"same_numbers: {sys.argv[2]}: " + ("identical" if not diff else "DIFFERENT")
      + f" ({compared} metrics compared, {len(keys) - compared} timed skipped,"
      + f" failed {parent['failed']}/{parent['attempted']} vs {change['failed']}/{change['attempted']})")
for d in diff:
    print("  " + d)
sys.exit(1 if diff else 0)
PY
  done
done
exit "$status"
