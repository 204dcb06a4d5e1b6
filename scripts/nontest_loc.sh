#!/bin/sh
# Non-test lines of Rust source: every line of each *.rs file up to (not
# including) its first `#[cfg(test)]`, summed per directory and in total.
# Usage: scripts/nontest_loc.sh [DIR]   (default: crates/dsdps/src)
set -eu
dir="${1:-crates/dsdps/src}"
find "$dir" -name '*.rs' | sort | while read -r f; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    printf '%s %s\n' "$n" "$f"
done | awk -v root="$dir" '
    {
        d = $2; sub(/\/[^\/]*$/, "", d)
        per_dir[d] += $1; total += $1
    }
    END {
        for (d in per_dir) printf "%7d  %s\n", per_dir[d], d | "sort -k2"
        close("sort -k2")
        printf "%7d  %s (total)\n", total, root
    }'
