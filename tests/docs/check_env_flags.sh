#!/bin/sh
# Documentation guard, both ways. The PIPEDREAM_* variables the code reads — the names
# passed to getenv in src/, examples/ and tools/ — must be exactly the rows of README.md's
# environment table and exactly the rows of DESIGN.md's environment-knob index, so neither
# an undocumented variable nor a deleted one that is still documented gets through. The
# only PIPEDREAM_* names src/ may mention are the ones it reads and the CMake options
# PIPEDREAM_PORTABLE and PIPEDREAM_SANITIZE (header guards aside). perfbench/ is not
# scanned: it reads no variable of its own. Registered with ctest (label `docs`).
#
# Usage: check_env_flags.sh <repo_root>
set -u

repo_root="${1:-$(cd "$(dirname "$0")/../.." && pwd)}"
cd "$repo_root" || exit 1

for doc in README.md DESIGN.md; do
  if [ ! -f "$doc" ]; then
    echo "FAIL: $doc not found at $repo_root/$doc"
    exit 1
  fi
done

read_vars=$(grep -rhoE 'getenv\("PIPEDREAM_[A-Z_]+"' src examples tools |
  sed 's/^getenv("//; s/"$//' | sort -u)
if [ -z "$read_vars" ]; then
  echo "FAIL: no getenv(\"PIPEDREAM_*\") reads found under $repo_root (wrong root?)"
  exit 1
fi

# The `PIPEDREAM_*` names in the first column of the table rows that follow the line
# matching $2 in file $1, up to the next level-2 heading.
table_rows() {
  awk -v start="$2" '$0 ~ start { on = 1; next } /^## / { on = 0 } on' "$1" |
    grep -oE '^\| `PIPEDREAM_[A-Z_]+`' | sed 's/^| `//; s/`$//' | sort -u
}

failed=0

# Prints "<label> <name>" for every name in list $2 that is not in list $3.
missing_from() {
  for name in $2; do
    if ! printf '%s\n' "$3" | grep -qx "$name"; then
      echo "FAIL: $name $1"
      failed=1
    fi
  done
}

readme_rows=$(table_rows README.md '^## Environment flags')
design_rows=$(table_rows DESIGN.md '^\*\*Environment-knob index\.\*\*')
missing_from "is read by the code but has no row in README.md's environment table" \
  "$read_vars" "$readme_rows"
missing_from "has a row in README.md's environment table but no code reads it" \
  "$readme_rows" "$read_vars"
missing_from "is read by the code but has no row in DESIGN.md's environment-knob index" \
  "$read_vars" "$design_rows"
missing_from "has a row in DESIGN.md's environment-knob index but no code reads it" \
  "$design_rows" "$read_vars"

src_reads=$(grep -rhoE 'getenv\("PIPEDREAM_[A-Z_]+"' src | sed 's/^getenv("//; s/"$//')
allowed=$(printf '%s\nPIPEDREAM_PORTABLE\nPIPEDREAM_SANITIZE\n' "$src_reads")
src_names=$(grep -rhoE 'PIPEDREAM_[A-Z_]+' src | grep -v '_H_$' | sort -u)
missing_from "appears in src/ but is neither read there nor a CMake option" \
  "$src_names" "$allowed"

if [ "$failed" -ne 0 ]; then
  exit 1
fi
count=$(printf '%s\n' "$read_vars" | wc -l)
echo "OK: the $count PIPEDREAM_* variables the code reads match README.md and DESIGN.md"
exit 0
