#!/usr/bin/env bash
# product_loc.sh — non-test lines of product code, per crate.
#
# For every crate under crates/ (and the umbrella crate's src/), sums the
# lines of src/**/*.rs above each file's first `#[cfg(test)]` module: the
# in-file test modules sit at the bottom of every file here, so that is the
# code that ships. A `#[cfg(test)]` on a lone item further up (a test-only
# helper fn) drops that item only, by brace matching, not the rest of the
# file. Comments and blank lines count — it is the size of what one has to
# read, not a statement count — but tests, benches and examples do not.
# Simplicity PRs quote this number before and after.
#
# Usage: scripts/product_loc.sh [repo-root]   (default: this checkout)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() { # <src dir> -> product lines of every .rs file under it
  find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
    FNR == 1 { state = 0 }                    # 0 product, 1 saw the attribute, 2 in a test item, 3 test module: to EOF
    state == 3 { next }
    state == 0 && /^[[:space:]]*#\[cfg\(test\)\]/ { state = 1; next }
    state == 1 {
      if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod /) { state = 3; next }
      state = 2; depth = 0; opened = 0
    }
    state == 2 {
      line = $0
      o = gsub(/\{/, "", line); c = gsub(/\}/, "", line)
      depth += o - c
      if (o > 0) opened = 1
      if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) state = 0
      next
    }
    { n++ }
    END { print n + 0 }'
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
