//! Plan mode: every workload × its runs, each run a fresh child process of
//! this binary in single-run mode, plus one traced pass per workload.
//! Prints every metric as `workload metric value unit`, writes
//! `results.json`, and in `--selftest` compares two sets of runs.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use serde::JsonValue;

use crate::plan::{Metric, Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::proc;
use crate::stats::{iqr_share, median, quartiles};

/// The contract's result line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// One child run, parsed back from its result line.
struct RunResult {
    seed: u64,
    /// The run broke an open-loop validity guard.
    invalid: bool,
    correct: bool,
    attempted: i64,
    failed: i64,
    metrics: Vec<(String, f64)>,
}

impl RunResult {
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    }
}

fn field<'a>(obj: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    obj.as_object()?.iter().find(|e| e.0 == key).map(|e| &e.1)
}

fn run_child(workload: &str, seed: u64, seconds: u32, traced: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or("");
    let invalid = text.lines().any(|l| l.ends_with(" gen.invalid_runs 1"));
    let doc = serde_json::parse(line).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); exit {}",
            out.status
        )
    })?;
    let metrics = field(&doc, "metrics")
        .and_then(JsonValue::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), field(m, "value")?.as_f64()?)))
        .collect();
    Ok(RunResult {
        seed,
        invalid,
        correct: matches!(field(&doc, "correct"), Some(JsonValue::Bool(true))),
        attempted: field(&doc, "attempted")
            .and_then(JsonValue::as_i64)
            .unwrap_or(0),
        failed: field(&doc, "failed")
            .and_then(JsonValue::as_i64)
            .unwrap_or(0),
        metrics,
    })
}

/// All runs of one workload in one set.
struct WorkloadRuns {
    workload: &'static Workload,
    runs: Vec<RunResult>,
    traced: Option<RunResult>,
}

impl WorkloadRuns {
    fn values(&self, metric: &str) -> Vec<f64> {
        self.runs.iter().map(|r| r.get(metric)).collect()
    }
}

fn run_set(
    filter: Option<&str>,
    base_seed: u64,
    quick: bool,
    with_trace: bool,
) -> Result<Vec<WorkloadRuns>, String> {
    let seconds = if quick { 1 } else { RUN_SECONDS };
    let mut set = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| filter.is_none_or(|f| f == w.name))
    {
        let n = if quick { 1 } else { w.runs };
        let mut runs = Vec::new();
        for r in 0..n {
            let seed = base_seed + r as u64;
            let mut run = run_child(w.name, seed, seconds, false)?;
            if run.invalid {
                eprintln!("{} run {}/{n}: invalid; re-running once", w.name, r + 1);
                run = run_child(w.name, seed, seconds, false)?;
            }
            eprintln!(
                "{} run {}/{} seed {}: correct={} acked_per_s={:.0}",
                w.name,
                r + 1,
                n,
                run.seed,
                run.correct,
                run.get("acked_per_s")
            );
            runs.push(run);
        }
        let traced = if with_trace {
            Some(run_child(w.name, base_seed, seconds, true)?)
        } else {
            None
        };
        set.push(WorkloadRuns {
            workload: w,
            runs,
            traced,
        });
    }
    Ok(set)
}

fn print_set(set: &[WorkloadRuns]) {
    for wr in set {
        let name = wr.workload.name;
        for m in &END_TO_END {
            let v = wr.values(m.name);
            println!(
                "{name} {} {} {}   (runs {}, spread {:.1}%)",
                m.name,
                median(&v),
                m.unit,
                v.len(),
                iqr_share(&v) * 100.0
            );
        }
        if let Some(t) = &wr.traced {
            for m in PER_LAYER {
                println!("{name} {} {} {}", m.name, t.get(m.name), m.unit);
            }
        }
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// `results.json`: provenance, the run plan, per-run raw values and the
/// per-metric summary of every workload.
fn results_json(sets: &[Vec<WorkloadRuns>], seed: u64, quick: bool) -> String {
    let mut s = String::from("{\n  \"schema\": \"benchmark_results/v1\",\n");
    let _ = writeln!(s, "  \"comparable\": {},", !quick);
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(
        s,
        "  \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"commit\": {}, \"rustc\": {}, \
         \"cargo_features\": [], \"hot_path_telemetry\": {}}},",
        proc::nproc(),
        json_str(&proc::cpu_model()),
        json_str(&proc::command_line("git", &["rev-parse", "HEAD"])),
        json_str(&proc::command_line("rustc", &["--version"])),
        dsdps::telemetry::HOT_PATH_TELEMETRY
    );
    s.push_str("  \"sets\": [\n");
    for (si, set) in sets.iter().enumerate() {
        s.push_str("    {\n");
        for (wi, wr) in set.iter().enumerate() {
            let w = wr.workload;
            let _ = writeln!(s, "      {}: {{", json_str(w.name));
            let _ = writeln!(
                s,
                "        \"load\": {}, \"offered_rate\": {}, \"plan\": {{\"runs\": {}, \"seconds\": {}}},",
                json_str(w.load),
                w.rate,
                wr.runs.len(),
                if quick { 1 } else { RUN_SECONDS }
            );
            s.push_str("        \"runs\": [\n");
            for (ri, r) in wr.runs.iter().enumerate() {
                let values: Vec<String> = r
                    .metrics
                    .iter()
                    .map(|(n, v)| format!("{}: {}", json_str(n), json_num(*v)))
                    .collect();
                let _ = writeln!(
                    s,
                    "          {{\"seed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, {}}}{}",
                    r.seed,
                    r.correct,
                    r.attempted,
                    r.failed,
                    values.join(", "),
                    if ri + 1 < wr.runs.len() { "," } else { "" }
                );
            }
            s.push_str("        ],\n        \"end_to_end\": {\n");
            for (mi, m) in END_TO_END.iter().enumerate() {
                let v = wr.values(m.name);
                let (q1, q3) = if v.len() >= 2 {
                    quartiles(&v)
                } else {
                    (v[0], v[0])
                };
                let (min, max) = v
                    .iter()
                    .fold((f64::MAX, f64::MIN), |a, x| (a.0.min(*x), a.1.max(*x)));
                let _ = writeln!(
                    s,
                    "          {}: {{\"unit\": {}, \"median\": {}, \"min\": {}, \"q1\": {}, \
                     \"q3\": {}, \"max\": {}, \"samples\": {}, \"bound\": {}}}{}",
                    json_str(m.name),
                    json_str(m.unit),
                    json_num(median(&v)),
                    json_num(min),
                    json_num(q1),
                    json_num(q3),
                    json_num(max),
                    v.len(),
                    m.bound,
                    if mi + 1 < END_TO_END.len() { "," } else { "" }
                );
            }
            s.push_str("        },\n        \"per_layer\": {");
            if let Some(t) = &wr.traced {
                let values: Vec<String> = t
                    .metrics
                    .iter()
                    .map(|(n, v)| format!("{}: {}", json_str(n), json_num(*v)))
                    .collect();
                s.push_str(&values.join(", "));
            }
            let _ = writeln!(
                s,
                "}}\n      }}{}",
                if wi + 1 < set.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "    }}{}", if si + 1 < sets.len() { "," } else { "" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative = better).
fn worsening(m: &Metric, first: f64, second: f64) -> f64 {
    let delta = if m.higher {
        first - second
    } else {
        second - first
    };
    delta / first.abs().max(1e-12)
}

/// Compares the two sets' medians per end-to-end metric against its bound.
fn selftest_report(sets: &[Vec<WorkloadRuns>]) -> (String, bool) {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "selftest: two sets of runs of the same build; a metric agrees when the second set's\n\
         median is not worse than the first's by more than its bound, either way round\n\
         (nproc {}, {}, {})\n",
        proc::nproc(),
        proc::cpu_model(),
        proc::command_line("rustc", &["--version"])
    );
    let _ = writeln!(
        s,
        "{:<15} {:<18} {:>14} {:>14} {:>8} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "median_1", "median_2", "diff%", "bound%", "spread1%", "spread2%"
    );
    let mut ok = true;
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        for m in &END_TO_END {
            let (va, vb) = (a.values(m.name), b.values(m.name));
            let (ma, mb) = (median(&va), median(&vb));
            let worse = worsening(m, ma, mb).max(worsening(m, mb, ma));
            let agrees = worse <= m.bound;
            ok &= agrees;
            let _ = writeln!(
                s,
                "{:<15} {:<18} {:>14.5} {:>14.5} {:>8.2} {:>7.1} {:>8.2} {:>8.2}  {}",
                a.workload.name,
                m.name,
                ma,
                mb,
                worse * 100.0,
                m.bound * 100.0,
                iqr_share(&va) * 100.0,
                iqr_share(&vb) * 100.0,
                if agrees { "agree" } else { "UNRESOLVED" }
            );
        }
    }
    (s, ok)
}

pub fn run_plan(
    filter: Option<&str>,
    seed: u64,
    quick: bool,
    selftest: bool,
    out_dir: &Path,
) -> ExitCode {
    let n_sets = if selftest { 2 } else { 1 };
    let mut sets = Vec::new();
    for k in 0..n_sets {
        // Each set gets its own seeds, as two sets run by the driver would.
        match run_set(filter, seed + 1000 * k, quick, k == 0) {
            Ok(set) => sets.push(set),
            Err(e) => {
                eprintln!("benchmark: {e}");
                return ExitCode::from(1);
            }
        }
    }
    print_set(&sets[0]);
    if quick {
        println!("note: --quick numbers (1 run x 1 s) are for smoke use only and not comparable");
    }
    let mut ok = sets
        .iter()
        .flatten()
        .flat_map(|wr| wr.runs.iter().chain(&wr.traced))
        .all(|r| r.correct);
    if !ok {
        eprintln!("benchmark: at least one run failed its output checks");
    }
    if let Err(e) = std::fs::create_dir_all(out_dir).and_then(|()| {
        std::fs::write(
            out_dir.join("results.json"),
            results_json(&sets, seed, quick),
        )
    }) {
        eprintln!("benchmark: writing results.json: {e}");
        ok = false;
    }
    if selftest {
        let (report, agrees) = selftest_report(&sets);
        print!("{report}");
        if let Err(e) = std::fs::write(out_dir.join("selftest.txt"), &report) {
            eprintln!("benchmark: writing selftest.txt: {e}");
        }
        ok &= agrees;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
