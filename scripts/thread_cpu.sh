#!/bin/sh
# CPU per thread of a process and its child processes (the `dist` workers)
# over a window.  Reads utime+stime of every thread from
# /proc/<pid>/task/*/stat at the start and at the end of the window, and
# prints one row per thread, busiest first: its name
# (/proc/<pid>/task/*/comm, of which Linux keeps 15 bytes), pid/tid, the
# CPU seconds it spent in the window and the share of one core that makes.
# A thread that exits inside the window is not counted.
# Usage: scripts/thread_cpu.sh PID [SECONDS]   (default window: 3 s)
set -eu
pid="$1"
window="${2:-3}"
hz=$(getconf CLK_TCK)

# PID and the processes whose parent it is, one per line.
family() {
    echo "$pid"
    cat /proc/[0-9]*/stat 2>/dev/null | awk -v parent="$pid" '{
        rest = substr($0, match($0, /\)[^)]*$/) + 2)
        split(rest, f, " ")
        if (f[2] == parent) print $1
    }'
}

# One line per thread: `pid/tid <TAB> utime+stime ticks <TAB> comm`.
sample() {
    for p in $(family); do
        for t in /proc/"$p"/task/*; do
            ticks=$(awk '{
                rest = substr($0, match($0, /\)[^)]*$/) + 2)
                split(rest, f, " ")
                print f[12] + f[13]
            }' "$t/stat" 2>/dev/null) || continue
            comm=$(cat "$t/comm" 2>/dev/null) || continue
            printf '%s/%s\t%s\t%s\n' "$p" "${t##*/}" "$ticks" "$comm"
        done
    done
}

start=$(date +%s.%N)
before=$(sample)
sleep "$window"
after=$(sample)
end=$(date +%s.%N)

printf '%s\n--\n%s\n' "$before" "$after" | awk -F '\t' -v hz="$hz" -v t0="$start" -v t1="$end" '
    BEGIN {
        wall = t1 - t0
        printf "window %.2f s, %d ticks/s\n", wall, hz
        printf "%-16s %14s %8s %10s\n", "thread", "pid/tid", "cpu_s", "core_share"
        fflush()
    }
    $0 == "--" { after = 1; next }
    !after { before[$1] = $2; next }
    {
        cpu = ($2 - before[$1]) / hz
        total += cpu
        printf "%-16s %14s %8.3f %10.3f\n", $3, $1, cpu, cpu / wall | "sort -k3 -rn"
    }
    END {
        close("sort -k3 -rn")
        printf "%-16s %14s %8.3f %10.3f\n", "(total)", "", total, total / wall
    }'
