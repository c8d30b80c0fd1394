#!/usr/bin/env bash
# dead_pub.sh — public items of the product crates that nothing outside their
# crate names.
#
# For every crate under crates/ except crates/bench, reads the product lines
# of src/**/*.rs (product_lines.awk, the cut product_loc.sh counts) and
# collects
#   - each item defined `pub fn|struct|enum|trait|type|const|static`, and
#   - each name a `pub use` re-exports (the alias when it has one).
# A function is listed when no .rs file outside its crate calls it or names
# it in a path or a use item: `name(`, `.name(`, `name::<`, `::name`, or a
# word of a `use` statement (a local variable or a test called `name` is no
# use). Any other item is listed when it appears as a word in no such file.
# Outside means the other crates (crates/bench included), src/, tests/,
# examples/ and benchmark/src. The crate's own tests/ are inside it, so a
# seam only they use is listed. The match is by name, not by path, so a
# listed item is certainly unused outside; an unlisted one may still be.
#
# scripts/dead_pub.allow keeps what must stay public, one entry a line:
#   <crate> <name> <reason>
# The script prints every listed item, marks the allowed ones, and exits
# non-zero when a listed item is not allowed or an allowed one is no longer
# listed (so the allow list cannot outlive its reasons).
#
# Usage: scripts/dead_pub.sh [repo-root]   (default: this checkout)
set -euo pipefail
export LC_ALL=C
product_lines="$(cd "$(dirname "$0")" && pwd)/product_lines.awk"
cd "${1:-$(dirname "$0")/..}"
allow=scripts/dead_pub.allow
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

defs() { # <src dir> -> "<name>\t<file>:<line>\t<kind>" per public item
  find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk -f "$product_lines" | awk -F '\t' '
    function emit(name, kind, at) { if (name ~ /^[A-Za-z_][A-Za-z0-9_]*$/ && name != "self") print name "\t" at "\t" kind }
    function reexports(stmt, at,    n, parts, i, p) {
      sub(/^[[:space:]]*pub use[[:space:]]+/, "", stmt); sub(/;.*/, "", stmt)
      n = split(stmt, parts, /[{},]/)
      for (i = 1; i <= n; i++) {
        p = parts[i]; gsub(/^[[:space:]]+|[[:space:]]+$/, "", p)
        if (p ~ / as /) { sub(/.* as[[:space:]]+/, "", p); emit(p, "use", at); continue }
        emit(p ~ /::/ ? substr(p, match(p, /[^:]*$/)) : p, "use", at)
      }
    }
    { text = $0; sub(/^[^\t]*\t[^\t]*\t/, "", text) }
    use != "" || text ~ /^[[:space:]]*pub use / {
      if (use == "") at = $1 ":" $2
      use = use " " text
      if (use ~ /;/) { reexports(use, at); use = "" }
      next
    }
    match(text, /^[[:space:]]*pub ((const|unsafe|async|extern "C") )*(fn|struct|enum|trait|type|const|static) [A-Za-z_][A-Za-z0-9_]*/) {
      n = split(substr(text, RSTART, RLENGTH), w, /[[:space:]]+/)
      emit(w[n], w[n - 1], $1 ":" $2)
    }'
}

# "<file>\t<name>" for every name a file calls (`name(`, `name::<`; not a
# `fn name(` definition), reaches by a path (`::name`) or names in a `use`
# statement.
find crates src tests examples benchmark/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  function emit(tok) { print FILENAME "\t" tok }
  inuse || /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?use[[:space:]]/ {
    line = $0; inuse = line !~ /;/; sub(/;.*/, "", line)
    n = split(line, w, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++) if (w[i] != "") emit(w[i])
    next
  }
  {
    line = $0
    while (match(line, /(fn[[:space:]]+)?[A-Za-z_][A-Za-z0-9_]*[[:space:]]*(\(|::<)/)) {
      tok = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
      if (tok !~ /^fn[[:space:]]/) { sub(/[[:space:]]*(\(|::<)$/, "", tok); emit(tok) }
    }
    line = $0
    while (match(line, /::[A-Za-z_][A-Za-z0-9_]*/)) {
      emit(substr(line, RSTART + 2, RLENGTH - 2)); line = substr(line, RSTART + RLENGTH)
    }
  }' >"$work/calls"

for dir in crates/*; do
  crate="$(basename "$dir")"
  [ "$crate" = bench ] || [ ! -d "$dir/src" ] && continue
  defs "$dir/src" >"$work/defs"
  cut -f1 "$work/defs" | sort -u >"$work/names"
  [ -s "$work/names" ] || continue
  # Every .rs file outside this crate; a name any of them says is in use,
  # a function only in a call, path or use form.
  find crates src tests examples benchmark/src -name '*.rs' -not -path "crates/$crate/*" -print0 |
    xargs -0 grep -howF -f "$work/names" | sort -u >"$work/used" || true
  awk -F '\t' -v d="crates/$crate/" 'index($1, d) != 1 { print $2 }' "$work/calls" |
    sort -u >"$work/called"
  { awk -F '\t' '$3 != "fn"' "$work/defs" | sort -k1,1 | join -t "$(printf '\t')" -v1 - "$work/used"
    awk -F '\t' '$3 == "fn"' "$work/defs" | sort -k1,1 | join -t "$(printf '\t')" -v1 - "$work/called"
  } | awk -v c="$crate" -F '\t' '{ print c "\t" $1 "\t" $2 "\t" $3 }' >>"$work/listed"
done
touch "$work/listed"
[ -f "$allow" ] && awk 'NF && $1 !~ /^#/ { print $1 "\t" $2 }' "$allow" | sort -u >"$work/allowed" || : >"$work/allowed"

fail=0
while IFS=$'\t' read -r crate name at kind; do
  if grep -qxF "$crate	$name" "$work/allowed"; then
    printf 'allowed  %-14s %-28s %-6s %s\n' "$crate" "$name" "$kind" "$at"
  else
    printf 'DEAD     %-14s %-28s %-6s %s\n' "$crate" "$name" "$kind" "$at"
    fail=1
  fi
done < <(sort "$work/listed")
cut -f1,2 "$work/listed" | sort -u >"$work/listed_keys"
while IFS=$'\t' read -r crate name; do
  printf 'STALE    %-14s %-28s (in %s, but used outside its crate or gone)\n' "$crate" "$name" "$allow"
  fail=1
done < <(comm -13 "$work/listed_keys" "$work/allowed")
printf '%d names listed, %d of them not in %s\n' \
  "$(wc -l <"$work/listed_keys")" "$(comm -23 "$work/listed_keys" "$work/allowed" | wc -l)" "$allow"
exit "$fail"
