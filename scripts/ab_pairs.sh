#!/usr/bin/env bash
# ab_pairs.sh <parent-checkout> <workload> [pairs=10] [seed=2024]
#
# The comparison a PR that claims a gain owes (choosing-metrics §8): builds
# benchmark/ from <parent-checkout> and from this checkout, each into its
# own target directory, runs <workload> untraced <pairs> times on each,
# alternating which side goes first, and prints for every end-to-end metric
# of BENCHMARK.json each side's median and quartiles, the pairs the change
# won, lost and tied, and a verdict:
#
#   gain       at least ten pairs, change wins >= 9/10 of them and the medians differ by
#              more than the distance between the parent's quartiles
#   regressed  change's median is worse than the parent's by more than the
#              metric's bound
#   same       every run of both sides printed the same value
#   -          neither
#
# Fails if a run reports correct=false or a failed operation. The per-run
# JSON lines stay in $AB_DIR (default benchmark/out/ab_pairs, which git
# ignores) beside the two target directories.
#
#   git clone -q . /root/scratch/parent && git -C /root/scratch/parent checkout -q HEAD~1
#   AB_DIR=/root/scratch/ab scripts/ab_pairs.sh /root/scratch/parent pipeline 10 7
set -euo pipefail
[ $# -ge 2 ] || { sed -n '2,24p' "$0" >&2; exit 2; }
PARENT="$(cd "$1" && pwd)"
WORKLOAD="$2"
PAIRS="${3:-10}"
SEED="${4:-2024}"
CHANGE="$(cd "$(dirname "$0")/.." && pwd)"
AB_DIR="${AB_DIR:-$CHANGE/benchmark/out/ab_pairs}"
mkdir -p "$AB_DIR"
AB_DIR="$(cd "$AB_DIR" && pwd)"

for side in parent change; do
  root="$PARENT"; [ "$side" = change ] && root="$CHANGE"
  echo "ab_pairs: building $side ($root)" >&2
  CARGO_TARGET_DIR="$AB_DIR/target-$side" \
    cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
done

run() { # <side>: one untraced run, its JSON line appended to the side's file
  (cd "$AB_DIR" && "target-$1/release/tutorial-day" --workload "$WORKLOAD" --seed "$SEED" --trace 0) \
    | tail -n 1 >> "$AB_DIR/$WORKLOAD.$SEED.$1.jsonl"
}
: > "$AB_DIR/$WORKLOAD.$SEED.parent.jsonl"
: > "$AB_DIR/$WORKLOAD.$SEED.change.jsonl"
for i in $(seq 1 "$PAIRS"); do
  if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  echo "ab_pairs: $WORKLOAD seed $SEED pair $i/$PAIRS ($order)" >&2
  for side in $order; do run "$side"; done
done

python3 - "$CHANGE/BENCHMARK.json" "$AB_DIR/$WORKLOAD.$SEED" <<'PY'
import json, statistics, sys
spec = json.load(open(sys.argv[1]))
load = lambda side: [json.loads(l) for l in open(f"{sys.argv[2]}.{side}.jsonl") if l.strip()]
parent, change = load("parent"), load("change")
bad = [f"{side} run {i + 1}: correct={r['correct']} failed={r['failed']}/{r['attempted']}"
       for side, runs in (("parent", parent), ("change", change))
       for i, r in enumerate(runs) if not r["correct"] or r["failed"]]

def quartiles(v):
    q = statistics.quantiles(v, n=4) if len(v) >= 2 else [v[0]] * 3
    return q[0], statistics.median(v), q[2]

print(f"{'metric':<28} {'parent q1 / median / q3':>38} {'change q1 / median / q3':>38} {'delta':>8} {'W-L-T':>9}  verdict")
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    better_by = (pm - cm) if lower else (cm - pm)
    if len(set(p + c)) == 1:
        verdict = "same"
    elif len(p) >= 10 and wins >= 0.9 * len(p) and better_by > p3 - p1:
        verdict = "gain"
    elif -better_by > m["bound"] * abs(pm):
        verdict = "regressed"
    else:
        verdict = "-"
    delta = f"{(cm - pm) / pm * 100:+.1f}%" if pm else "n/a"
    fmt = lambda a, b, c: f"{a:.6g} / {b:.6g} / {c:.6g}"
    print(f"{name:<28} {fmt(p1, pm, p3):>38} {fmt(c1, cm, c3):>38} {delta:>8} {f'{wins}-{len(p) - wins - ties}-{ties}':>9}  {verdict}")
print(f"ops: parent {parent[0]['attempted']} attempted, change {change[0]['attempted']} attempted; "
      f"{len(parent)} pairs; W-L-T = pairs the change won, lost, tied")
if bad:
    print("ab_pairs: FAILED\n  " + "\n  ".join(bad))
    sys.exit(1)
PY
