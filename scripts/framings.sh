#!/usr/bin/env bash
# framings.sh — hand-written checksum footers in product code and benches.
#
# Every persisted NSDF object is framed by nsdf_util::seal / unseal: one
# magic · body · checksum64 (XXH64) envelope, written and checked in one
# place. A line that appends a digest by hand (`checksum64(..).to_le_bytes()`,
# the retired `fnv1a64(..).to_le_bytes()`, `digest.to_le_bytes()`, an
# `"fnv {..}"` text footer) is a second framing:
# this prints every such line in the product lines (product_lines.awk) of
# crates/*/src and in crates/bench/benches, outside
# crates/nsdf-util/src/hash.rs, and exits 1 if there is one.
#
# Usage: scripts/framings.sh [repo-root]   (default: this checkout)
set -euo pipefail
product_lines="$(cd "$(dirname "$0")" && pwd)/product_lines.awk"
cd "${1:-$(dirname "$0")/..}"
found="$(find crates/*/src crates/bench/benches -name '*.rs' -not -path crates/nsdf-util/src/hash.rs -print0 |
  sort -z | xargs -0 -r awk -f "$product_lines" |
  grep -E '(checksum64|fnv1a64)\(.*\)\.to_le_bytes|digest\.to_le_bytes|"fnv \{' || true)"
if [ -n "$found" ]; then
  printf '%s\n' "$found"
  echo "framings: hand-written checksum footers above; frame the object with nsdf_util::seal instead" >&2
  exit 1
fi
echo "framings: every persisted object goes through nsdf_util::seal"
