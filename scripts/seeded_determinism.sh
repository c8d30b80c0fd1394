#!/usr/bin/env bash
# seeded_determinism.sh — the CI `seeded-determinism` job, runnable locally.
#
# Each bench below writes an artifact made only of virtual-clock times,
# integer counters and seeded draws. Two identically-seeded runs must
# produce byte-identical files (any drift means nondeterminism leaked into
# that layer), and the result must equal the committed file: a change that
# moves a wave, a span or a counter regenerates and commits the artifact,
# never drifts past it silently.
#
# Extra arguments go to cargo, e.g. `scripts/seeded_determinism.sh --offline`.
set -euo pipefail
cd "$(dirname "$0")/.."

# bench:artifact
PAIRS=(
  # Cold and warm read latency per fetch concurrency and WAN profile.
  streaming:BENCH_streaming.json
  # Spans and counters of the streaming read path.
  streaming:BENCH_streaming_metrics.json
  # Fault injection, hedging, back-off and the scripted fault window, plus
  # the embedded metrics snapshot and span tree.
  chaos:BENCH_chaos.json
  # Upload waves, RMW fetches and the acceptance ratios.
  ingest:BENCH_ingest.json
  # Per-interaction latencies and refinement curves on both WAN profiles.
  dashboard:BENCH_dashboard.json
  # Sizes, ratios, per-block codec histograms and virtual WAN times.
  codecs:BENCH_codecs_compare.json
  # Arrivals, zipf popularity, grant order and every latency percentile.
  fleet:BENCH_fleet.json
  # Bulk-load virtual time, bloom FPR, amplification and dedup counters.
  catalog:BENCH_catalog.json
  # DAG schedules, task statuses and mosaic digests: all store I/O happens
  # on the caller thread, in per-wave batches ordered by task id.
  workflow:BENCH_workflow.json
  # Request counters, WAN waves and virtual seconds per mapping x op mix.
  fuse:BENCH_fuse.json
)

# crates/bench holds the artifact generators and nothing else: a [[bench]]
# or a benches/*.rs file that is not listed above (or a pair without its
# target) fails here, before anything is built. A bench may own several
# artifacts, so the listed names are deduplicated.
declared="$({
  sed -n 's/^name = "\(.*\)"$/\1/p' crates/bench/Cargo.toml | grep -vx nsdf-bench
  basename -s .rs crates/bench/benches/*.rs
} | sort -u)"
listed="$(printf '%s\n' "${PAIRS[@]%%:*}" | sort -u)"
if [ "$declared" != "$listed" ]; then
  echo "determinism: crates/bench/Cargo.toml targets and PAIRS differ (< crates/bench, > PAIRS):" >&2
  diff <(echo "$declared") <(echo "$listed") >&2 || true
  exit 1
fi

first="$(mktemp -d)"
trap 'rm -rf "$first"' EXIT
for pair in "${PAIRS[@]}"; do
  bench="${pair%%:*}"
  artifact="${pair#*:}"
  cargo bench "$@" -p nsdf-bench --bench "$bench"
  cp "$artifact" "$first/$artifact"
  cargo bench "$@" -p nsdf-bench --bench "$bench"
  cmp "$first/$artifact" "$artifact"
  git diff --exit-code -- "$artifact"
  echo "determinism: $bench -> $artifact: two runs identical, equal to the committed file"
done
echo "determinism: ok (${#PAIRS[@]} artifacts)"
