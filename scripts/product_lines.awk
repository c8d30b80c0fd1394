# product_lines.awk — the lines of code that ship, from the Rust files given.
#
# Prints "<file>\t<line>\t<text>" for every line above a file's first
# `#[cfg(test)]` module: the in-file test modules sit at the bottom of every
# file here. A `#[cfg(test)]` on a lone item further up (a test-only helper
# fn, field or struct-literal line) drops that item only: it ends at its
# closing brace, or at a `;` before any brace, or — on its first line — at
# a trailing `,`. Shared by product_loc.sh and dead_pub.sh so both read the
# same product code.
FNR == 1 { state = 0 }                    # 0 product, 1 saw the attribute, 2 in a test item, 3 test module: to EOF
state == 3 { next }
state == 0 && /^[[:space:]]*#\[cfg\(test\)\]/ { state = 1; next }
state == 1 {
  if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod /) { state = 3; next }
  state = 2; depth = 0; opened = 0; first = 1
}
state == 2 {
  line = $0
  o = gsub(/\{/, "", line); c = gsub(/\}/, "", line)
  depth += o - c
  if (o > 0) opened = 1
  if ((opened && depth <= 0) || (!opened && ($0 ~ /;[[:space:]]*$/ || (first && $0 ~ /,[[:space:]]*$/)))) state = 0
  first = 0
  next
}
{ print FILENAME "\t" FNR "\t" $0 }
