#!/usr/bin/env bash
# knobs.sh — the values a caller can set on the product crates, per crate.
#
# Reads the product lines of every crate (product_lines.awk, the cut
# product_loc.sh counts) and lists
#   - each `pub fn with_*` and `pub fn set_*`, and
#   - each `pub` field of a struct named `*Config`, `*Policy`, `*Options`
#     or `*Spec` (`pub(crate)` fields are not settable from outside),
# one line each, then a count per crate and the total. Simplicity PRs quote
# the total before and after: a change that simplifies adds no option.
#
# The total is a ratchet: when the counted checkout has a
# `scripts/knobs.ceiling` (one integer), a total above it exits 1. A change
# that really needs a new option raises the ceiling in the same diff.
#
# Usage: scripts/knobs.sh [repo-root]   (default: this checkout)
set -euo pipefail
export LC_ALL=C
product_lines="$(cd "$(dirname "$0")" && pwd)/product_lines.awk"
cd "${1:-$(dirname "$0")/..}"

knobs() { # <src dir> -> "<file>:<line>\t<kind>\t<name>" per settable value
  find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk -f "$product_lines" | awk -F '\t' '
    { text = $0; sub(/^[^\t]*\t[^\t]*\t/, "", text); at = $1 ":" $2 }
    depth > 0 {
      if (depth == 1 && match(text, /^[[:space:]]*pub [A-Za-z_][A-Za-z0-9_]*:/)) {
        name = substr(text, RSTART, RLENGTH); sub(/^[[:space:]]*pub /, "", name); sub(/:$/, "", name)
        print at "\tfield\t" owner "." name
      }
      line = text; depth += gsub(/\{/, "", line) - gsub(/\}/, "", line)
      next
    }
    match(text, /struct [A-Za-z0-9_]*(Config|Policy|Options|Spec)[[:space:]<{]/) && text ~ /\{[[:space:]]*$/ {
      owner = substr(text, RSTART + 7, RLENGTH - 8); sub(/[<[:space:]].*/, "", owner)
      depth = 1
      next
    }
    match(text, /^[[:space:]]*pub fn (with|set)_[A-Za-z0-9_]*/) {
      name = substr(text, RSTART, RLENGTH); sub(/^[[:space:]]*pub fn /, "", name)
      print at "\tfn\t" name
    }'
}

total=0
counts=""
for src in crates/*/src src; do
  [ -d "$src" ] || continue
  name="$(basename "$(dirname "$src")")"
  [ "$src" = src ] && name="nsdf (umbrella)"
  list="$(knobs "$src")"
  n=0
  if [ -n "$list" ]; then
    n="$(printf '%s\n' "$list" | wc -l)"
    printf '%s\n' "$list" | awk -F '\t' -v c="$name" '{ printf "%-18s %-6s %-40s %s\n", c, $2, $3, $1 }'
  fi
  total=$((total + n))
  counts="$counts$(printf '%-18s %7d' "$name" "$n")"$'\n'
done
printf '\n%s' "$counts"
printf '%-18s %7d\n' total "$total"

if [ -f scripts/knobs.ceiling ]; then
  ceiling="$(tr -d '[:space:]' < scripts/knobs.ceiling)"
  if ! [[ "$ceiling" =~ ^[0-9]+$ ]]; then
    echo "knobs.sh: scripts/knobs.ceiling must hold one integer, got '$ceiling'" >&2
    exit 1
  fi
  if [ "$total" -gt "$ceiling" ]; then
    echo "knobs.sh: $total settable values exceed the ceiling of $ceiling in scripts/knobs.ceiling" >&2
    exit 1
  fi
  printf '%-18s %7d\n' ceiling "$ceiling"
fi
