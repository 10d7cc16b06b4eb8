#!/usr/bin/env bash
# Dead-citation lint: fails when a Rust doc comment (`//!` or `///`) or a
# top-level document describing the tree cites a file that does not exist:
# any `*.md` file, or a `*.rs` file given as a path (a citation containing
# a `/`, such as `tests/paper_claims.rs`; a bare `lib.rs` names no place).
#
# A cited path resolves if it exists relative to the repository root or to
# the citing file's directory. Glob-like citations (containing `*` or `<`)
# are patterns, not files, and are skipped.
#
# Usage: tools/check_doc_refs.sh   (exits non-zero listing every dead citation)
set -euo pipefail
cd "$(dirname "$0")/.."

# The top-level documents that describe the tree. The others are logs or
# quotations: CHANGES.md names files that later changes deleted, and
# SNIPPETS.md cites files in other repositories.
DOCS=(README.md PAPER.md PAPERS.md ROADMAP.md)

# A listed document that is gone would silently drop out of the check;
# fail fast instead.
for doc in "${DOCS[@]}"; do
  if [[ ! -f "$doc" ]]; then
    echo "check_doc_refs: listed document $doc does not exist" >&2
    exit 1
  fi
done

# Prints `file:line:citation` for every `*.md` and `*.rs` citation in
# stdin, which holds the text of `file`.
citations() {
  grep -noE '[A-Za-z0-9_./<>*-]*\.(md|rs)\b' | sed "s|^|$1:|" || true
}

fail=0
while IFS=: read -r file line cited; do
  [[ "$cited" == *'*'* || "$cited" == *'<'* ]] && continue
  [[ "$cited" == *.rs && "$cited" != */* ]] && continue
  [[ -e "$cited" || -e "$(dirname "$file")/$cited" ]] && continue
  echo "$file:$line: cites $cited, which does not exist"
  fail=1
done < <(
  for file in $(git ls-files '*.rs'); do
    # Blank every line but doc comments, keeping line numbers.
    sed -E '/^[[:space:]]*\/\/[/!]/!s/.*//' "$file" | citations "$file"
  done
  for doc in "${DOCS[@]}"; do
    citations "$doc" < "$doc"
  done
)

if [[ "$fail" -ne 0 ]]; then
  echo >&2
  echo "check_doc_refs: dead citations found." >&2
  exit 1
fi
echo "check_doc_refs: clean"
