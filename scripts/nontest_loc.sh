#!/bin/sh
# Non-test lines and public items of Rust source, summed per directory and
# in total.  Each *.rs file counts up to (not including) its first
# `#[cfg(test)]`: every line, and the lines there that declare a
# `pub fn|struct|enum|trait|type|const|static|mod|use` (`pub(crate)` and
# `pub(super)` are not public and do not count).  Files under a `tests/`
# directory are integration tests and are skipped.
# Usage: scripts/nontest_loc.sh [DIR]   (default: crates/dsdps/src)
set -eu
dir="${1:-crates/dsdps/src}"
find "$dir" -name '*.rs' -not -path '*/tests/*' | sort | while read -r f; do
    awk -v f="$f" '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        { n++ }
        /^[[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod|use)[[:space:]]/ { p++ }
        END { printf "%d %d %s\n", n, p, f }' "$f"
done | awk -v root="$dir" '
    {
        d = $3; sub(/\/[^\/]*$/, "", d)
        lines[d] += $1; pubs[d] += $2; total += $1; total_pub += $2
    }
    END {
        printf "%7s %5s  %s\n", "lines", "pub", "directory"
        for (d in lines) printf "%7d %5d  %s\n", lines[d], pubs[d], d | "sort -k3"
        close("sort -k3")
        printf "%7d %5d  %s (total)\n", total, total_pub, root
    }'
