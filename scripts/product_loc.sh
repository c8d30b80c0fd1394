#!/usr/bin/env bash
# product_loc.sh — non-test lines of product code, per crate.
#
# For every crate under crates/ (and the umbrella crate's src/), counts the
# lines of src/**/*.rs that product_lines.awk keeps: everything above each
# file's `#[cfg(test)]` module, minus lone test-only items further up.
# Comments and blank lines count — it is the size of what one has to read,
# not a statement count — but tests, benches and examples do not.
# Simplicity PRs quote this number before and after.
#
# The total is a ratchet: when the counted checkout has a
# `scripts/product_loc.ceiling` (one integer), a total above it exits 1. A
# change that must add lines raises the ceiling in the same diff.
#
# Usage: scripts/product_loc.sh [repo-root]   (default: this checkout)
set -euo pipefail
product_lines="$(cd "$(dirname "$0")" && pwd)/product_lines.awk"
cd "${1:-$(dirname "$0")/..}"

count() { # <src dir> -> product lines of every .rs file under it
  find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk -f "$product_lines" | wc -l
}

total=0
for src in crates/*/src src; do
  [ -d "$src" ] || continue
  name="$(basename "$(dirname "$src")")"
  [ "$src" = src ] && name="nsdf (umbrella)"
  n="$(count "$src")"
  total=$((total + n))
  printf '%-18s %7d\n' "$name" "$n"
done
printf '%-18s %7d\n' total "$total"

if [ -f scripts/product_loc.ceiling ]; then
  ceiling="$(tr -d '[:space:]' < scripts/product_loc.ceiling)"
  if ! [[ "$ceiling" =~ ^[0-9]+$ ]]; then
    echo "product_loc.sh: scripts/product_loc.ceiling must hold one integer, got '$ceiling'" >&2
    exit 1
  fi
  if [ "$total" -gt "$ceiling" ]; then
    echo "product_loc.sh: $total product lines exceed the ceiling of $ceiling in scripts/product_loc.ceiling" >&2
    exit 1
  fi
  printf '%-18s %7d\n' ceiling "$ceiling"
fi
