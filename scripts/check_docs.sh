#!/bin/sh
# Documentation battery, in the spirit of check_kernels.sh: configures and builds the tree,
# runs the `docs` ctest label (env-flag coverage in README.md + DESIGN.md), then walks the
# core documents and verifies every relative markdown link points at an existing file and
# every #anchor at a real heading (GitHub slug rules: lowercase, punctuation dropped,
# spaces to dashes).
#
# Usage: scripts/check_docs.sh [build-dir]   (default: build-docs)
set -eu

cd "$(dirname "$0")/.."
dir="${1:-build-docs}"

echo "== configure $dir"
cmake -B "$dir" -S . > /dev/null
cmake --build "$dir" -j "$(nproc)" > /dev/null
echo "== ctest -L docs in $dir"
(cd "$dir" && ctest -L docs --output-on-failure)

docs="README.md DESIGN.md EXPERIMENTS.md docs/SCHEDULES.md"
fail=0

# GitHub-style anchor slugs for a markdown file's headings.
slugs_of() {
  grep -E '^#{1,6} ' "$1" | sed -E 's/^#+ +//' | tr 'A-Z' 'a-z' |
    sed -E 's/[^a-z0-9 _-]//g; s/ /-/g'
}

for doc in $docs; do
  if [ ! -f "$doc" ]; then
    echo "FAIL: $doc missing"
    fail=1
    continue
  fi
  docdir=$(dirname "$doc")
  # Inline links: [text](target). External schemes are out of scope.
  grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//' |
    grep -vE '^(https?|mailto):' > /tmp/check_docs_links.$$ || true
  while IFS= read -r link; do
    target="${link%%#*}"
    anchor=""
    case "$link" in
      *'#'*) anchor="${link#*#}" ;;
    esac
    if [ -n "$target" ]; then
      path="$docdir/$target"
      if [ ! -e "$path" ] && [ ! -e "$target" ]; then
        echo "FAIL: $doc links to missing file: $target"
        fail=1
        continue
      fi
      [ -e "$path" ] || path="$target"
    else
      path="$doc"
    fi
    if [ -n "$anchor" ]; then
      case "$path" in
        *.md) ;;
        *) continue ;;
      esac
      if ! slugs_of "$path" | grep -qx "$anchor"; then
        echo "FAIL: $doc -> $path#$anchor: no heading with that anchor"
        fail=1
      fi
    fi
  done < /tmp/check_docs_links.$$
  rm -f /tmp/check_docs_links.$$
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "docs OK: ctest -L docs green; links and anchors in $docs resolve"
