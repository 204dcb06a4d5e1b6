//! What the kernel reports about a process: CPU time and peak memory from
//! `/proc/<pid>/{stat,status}`, plus the host facts stamped into results.

use std::fs;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// architecture this harness targets.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds consumed so far by the live threads of `pid`; 0 if the
/// process is gone.
///
/// Summed from `/proc/<pid>/task/*/schedstat`, the scheduler's exact on-CPU
/// nanoseconds per thread.  `/proc/<pid>/stat` is only the fallback: its
/// `utime`/`stime` are tick-sampled, which for a handful of threads that
/// sleep and wake thousands of times a second is a ±5 % estimate per second.
/// (A thread that exits takes its time with it; none does inside a window.)
pub fn cpu_seconds(pid: u32) -> f64 {
    let mut ns = 0u64;
    if let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            ns += fs::read_to_string(task.path().join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    if ns > 0 {
        return ns as f64 * 1e-9;
    }
    let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // the closing parenthesis, so utime/stime are the 12th/13th from there.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let ticks = |s: Option<&str>| s.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / TICKS_PER_S
}

/// Peak resident set (`VmHWM`) of `pid` in MB; 0 if the process is gone.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let Ok(status) = fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of `cmd args…` on stdout, or `"unknown"`.
pub fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}
