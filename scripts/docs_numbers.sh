#!/usr/bin/env bash
# docs_numbers.sh — regenerate every reproduce block of EXPERIMENTS.md.
#
# `examples/reproduce.rs` prints each target as one markdown block between
# `<!-- reproduce:<target> -->` and `<!-- /reproduce -->`, made only of
# seeded, virtual-clock and counter values. This script runs `reproduce all`
# once and replaces the body of each same-named block in EXPERIMENTS.md with
# that output. Text outside the blocks is never touched. CI runs it and then
# `git diff --exit-code -- EXPERIMENTS.md`, so a change that moves a printed
# number must regenerate and commit the file.
#
# It fails, leaving EXPERIMENTS.md as it was, when the file names a target
# that `reproduce` does not print, when a block is not closed before the next
# one opens or the file ends, or when a target `reproduce` prints has no
# block in the file.
#
# Extra arguments go to cargo, e.g. `scripts/docs_numbers.sh --offline`.
set -euo pipefail
cd "$(dirname "$0")/.."

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
# Wall-clock readings go to stderr and stay on the terminal.
cargo run --release --quiet "$@" --example reproduce -- all >"$work/blocks.md"

awk -v blocks="$work/blocks.md" '
  function fail(msg) { print "docs_numbers: EXPERIMENTS.md:" NR ": " msg > "/dev/stderr"; failed = 1; exit 1 }
  BEGIN {
    while ((getline line < blocks) > 0) {
      if (match(line, /^<!-- reproduce:[a-z0-9]+ -->$/)) {
        name = substr(line, 16, RLENGTH - 19); body[name] = ""; printed[name] = 1
      } else if (line == "<!-- /reproduce -->") {
        name = ""
      } else if (name != "") {
        body[name] = body[name] line "\n"
      }
    }
  }
  /^<!-- reproduce:/ {
    if (open != "") fail("block " open " is not closed before the next one opens")
    if (!match($0, /^<!-- reproduce:[a-z0-9]+ -->$/)) fail("malformed marker: " $0)
    open = substr($0, 16, RLENGTH - 19)
    if (!(open in printed)) fail("unknown target " open)
    seen[open] = 1
    printf "%s\n%s", $0, body[open]
    next
  }
  /^<!-- \/reproduce -->$/ {
    if (open == "") fail("closing marker without an open block")
    open = ""
  }
  open == "" { print }
  END {
    if (failed) exit 1
    if (open != "") fail("block " open " is not closed at the end of the file")
    for (t in printed) if (!(t in seen)) { missing = missing " " t }
    if (missing != "") { print "docs_numbers: reproduce prints targets with no block in EXPERIMENTS.md:" missing > "/dev/stderr"; exit 1 }
  }
' EXPERIMENTS.md >"$work/EXPERIMENTS.md"

cp "$work/EXPERIMENTS.md" EXPERIMENTS.md
echo "docs_numbers: EXPERIMENTS.md rewritten from reproduce ($(grep -c '^<!-- reproduce:' EXPERIMENTS.md) blocks)"
