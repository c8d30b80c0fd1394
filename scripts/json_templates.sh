#!/usr/bin/env bash
# json_templates.sh — hand-written JSON in product code and bench generators.
#
# Every JSON document the workspace writes is a nsdf_util::json::JsonValue
# rendered by its one writer (compact, keys sorted). A string template that
# spells a `\"key\":` pair is a second writer: this prints every such line
# in the product lines (product_lines.awk) of crates/*/src and in
# crates/bench/benches, outside crates/nsdf-util/src/json.rs, and exits 1
# if there is one.
#
# Usage: scripts/json_templates.sh [repo-root]   (default: this checkout)
set -euo pipefail
product_lines="$(cd "$(dirname "$0")" && pwd)/product_lines.awk"
cd "${1:-$(dirname "$0")/..}"
found="$(find crates/*/src crates/bench/benches -name '*.rs' -not -path crates/nsdf-util/src/json.rs -print0 |
  sort -z | xargs -0 -r awk -f "$product_lines" | grep -E '\\"[A-Za-z_{][A-Za-z0-9_{}]*\\":' || true)"
if [ -n "$found" ]; then
  printf '%s\n' "$found"
  echo "json_templates: hand-written JSON above; build a nsdf_util::json::JsonValue instead" >&2
  exit 1
fi
echo "json_templates: no hand-written JSON"
