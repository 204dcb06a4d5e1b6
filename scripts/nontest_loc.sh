#!/bin/sh
# Non-test lines, public items and public config fields of Rust source,
# summed per directory and in total.  Each *.rs file counts up to (not
# including) its first `#[cfg(test)]`: every line; the lines there that
# declare a `pub fn|struct|enum|trait|type|const|static|mod|use`
# (`pub(crate)` and `pub(super)` are not public and do not count); and the
# `pub` fields of structs named `*Config` or `*Params`, each one a value a
# caller can set.  Files under a `tests/` directory are integration tests
# and are skipped.
# Usage: scripts/nontest_loc.sh [DIR]   (default: crates/dsdps/src)
set -eu
dir="${1:-crates/dsdps/src}"
find "$dir" -name '*.rs' -not -path '*/tests/*' | sort | while read -r f; do
    awk -v f="$f" '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        { n++ }
        /^[[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod|use)[[:space:]]/ { p++ }
        cfg && /^[[:space:]]*}/ { cfg = 0 }
        cfg && /^[[:space:]]*pub [a-z_][a-z0-9_]*[[:space:]]*:/ { c++ }
        /^[[:space:]]*pub struct [A-Za-z0-9_]*(Config|Params)[[:space:]]*\{/ { cfg = 1 }
        END { printf "%d %d %d %s\n", n, p, c, f }' "$f"
done | awk -v root="$dir" '
    {
        d = $4; sub(/\/[^\/]*$/, "", d)
        lines[d] += $1; pubs[d] += $2; cfgs[d] += $3
        total += $1; total_pub += $2; total_cfg += $3
    }
    END {
        printf "%7s %5s %5s  %s\n", "lines", "pub", "cfg", "directory"
        for (d in lines) printf "%7d %5d %5d  %s\n", lines[d], pubs[d], cfgs[d], d | "sort -k4"
        close("sort -k4")
        printf "%7d %5d %5d  %s (total)\n", total, total_pub, total_cfg, root
    }'
