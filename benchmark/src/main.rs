//! One benchmark for the whole system.  See `README.md` next to
//! `Cargo.toml` for the workloads, the metrics and how to read the output.
//!
//! Two ways to call it:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs ONE
//!   run of one workload in this process and prints, as the last line of
//!   stdout, one JSON object (`correct`, `attempted`, `failed`, `metrics`).
//!   This is the contract `BENCHMARK.json` describes.
//! * without `--seconds` it runs the plan: every workload (or the one
//!   `--workload` names) × its runs, each as a fresh child process of the
//!   first kind, plus one traced pass per workload; prints every metric as
//!   `workload metric value unit` and writes `benchmark/out/results.json`.
//!   `--quick` shrinks the plan to 1 run × 1 s; `--selftest` runs two sets
//!   and compares their medians against each metric's bound.

mod direct;
mod flood;
mod gen;
mod live;
mod misbehave;
mod paced;
mod plan;
mod proc;
mod runner;
mod sim_flood;
mod sim_predictive;
mod stats;
mod trace;
mod wrap;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use live::Pass;
use plan::{RunCtx, END_TO_END, PER_LAYER};

/// Set-ups per end-to-end run of a wall-clock workload: the real one and
/// the rehearsals before it.
const SETUP_REPS: usize = 10;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    selftest: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        selftest: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => a.trace = value("0 or 1")? == "1",
            "--quick" => a.quick = true,
            "--selftest" => a.selftest = true,
            "--manifest" => a.manifest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &a.workload {
        if plan::workload(w).is_none() {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    Ok(a)
}

/// Where trace files, results and worker dumps go, relative to the current
/// directory, which the contract makes the checkout's root.
const OUT_DIR: &str = "benchmark/out";

fn run_pass(name: &str, ctx: &RunCtx) -> Pass {
    match name {
        "rt_flood" => flood::run_rt(ctx),
        "dist_flood" => flood::run_dist(ctx),
        "rt_paced" => paced::run(ctx),
        "rt_misbehave" => misbehave::run(ctx),
        "sim_predictive" => sim_predictive::run(ctx),
        "sim_flood" => sim_flood::run(ctx),
        _ => unreachable!("workload names are validated at parse"),
    }
}

/// A paced pass that breaks an open-loop validity guard (the generator ran
/// late, or a backlog grew) is reported with a warning and counted in
/// `gen.invalid_runs`: the guard judges the measurement, not the program's
/// outputs, so it does not make the run incorrect.  Plan mode runs such a
/// run once more, in a fresh process (a second pass in this one would add
/// its memory to `peak_rss_mb`).
fn run_valid_pass(name: &str, ctx: &RunCtx) -> Pass {
    let mut pass = run_pass(name, ctx);
    let invalid = pass.invalid.take();
    if let Some(why) = &invalid {
        eprintln!("{name}: WARNING: run invalid ({why})");
    }
    pass.put("gen.invalid_runs", f64::from(u8::from(invalid.is_some())));
    pass
}

/// One run in this process; prints the contract's result line last.
fn single_run(name: &str, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let out_dir = PathBuf::from(OUT_DIR);
    let ctx = |seconds, setup_reps, tracer| RunCtx {
        started: Instant::now(),
        seed,
        seconds,
        setup_reps,
        tracer,
        out_dir: out_dir.clone(),
    };
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let (attempted, failed, checks);
    if !traced {
        let p = run_valid_pass(name, &ctx(seconds, SETUP_REPS, None));
        let values = [p.setup_s, p.acked_per_s, p.latency_p50_ms, p.peak_rss_mb];
        for (m, v) in END_TO_END.iter().zip(values) {
            metrics.push((m.name, v, m.unit));
        }
        // Not end-to-end metrics: cost, tail, one set-up, and what the
        // validity of the latencies rests on.
        println!("{name} cpu_us_per_acked {} us", p.cpu_us_per_acked);
        println!("{name} latency_p95_ms {} ms", p.latency_p95_ms);
        println!("{name} setup.once_ms {} ms", p.setup_once_s * 1e3);
        for (n, v) in &p.layer {
            if matches!(
                *n,
                "gen.latency_samples" | "gen.invalid_runs" | "gen.lag_p99_ms"
            ) {
                println!("{name} {n} {v}");
            }
        }
        (attempted, failed, checks) = (p.attempted, p.failed, p.checks);
    } else {
        // The traced pass: an untraced and a traced half of the window, so
        // the difference between them is the tracing overhead.
        let half = seconds / 2.0;
        let plain = run_valid_pass(name, &ctx(half, SETUP_REPS, None));
        let tracer = Arc::new(trace::Tracer::new(Instant::now()));
        let mut traced = run_valid_pass(name, &ctx(half, SETUP_REPS, Some(tracer.clone())));
        let (spans, dropped) = tracer.take();
        let path = out_dir.join(format!("trace_{name}.json"));
        if let Err(e) = trace::write_chrome_trace(&path, &spans) {
            traced.check(format!("{name}: trace file written ({e})"), false);
        }
        for (span, count, total_us, self_us) in trace::self_times(&spans) {
            println!(
                "{name} span {span} count {count} mean_us {:.3} self_mean_us {:.3}",
                total_us / count as f64,
                self_us / count as f64
            );
        }
        let mut layer = std::mem::take(&mut traced.layer);
        layer.push(("cpu_us_per_acked", traced.cpu_us_per_acked));
        layer.push(("latency_p95_ms", traced.latency_p95_ms));
        layer.push(("setup.once_ms", traced.setup_once_s * 1e3));
        layer.push((
            "telemetry.trace_overhead_pct",
            (plain.acked_per_s - traced.acked_per_s) / plain.acked_per_s.max(1e-9) * 100.0,
        ));
        layer.push(("telemetry.spans_recorded", spans.len() as f64));
        layer.push(("telemetry.spans_dropped", dropped as f64));
        layer.push((
            "failed_ratio",
            traced.failed as f64 / traced.attempted.max(1) as f64,
        ));
        let direct = direct::measure();
        direct::put_budget(name, &direct, &mut layer);
        layer.extend(direct);
        for m in PER_LAYER {
            // Later entries win: a workload's own figure replaces a default.
            let v = layer
                .iter()
                .rev()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |e| e.1);
            metrics.push((m.name, v, m.unit));
        }
        attempted = plain.attempted + traced.attempted;
        failed = plain.failed + traced.failed;
        checks = [plain.checks, traced.checks].concat();
    }

    let mut correct = true;
    for (what, held) in &checks {
        if !held {
            correct = false;
            eprintln!("CHECK FAILED: {what}");
        }
    }
    for (n, v, u) in &metrics {
        println!("{name} {n} {v} {u}");
    }
    println!(
        "{}",
        runner::result_line(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    // A re-exec with DSDPS_DIST_ADDR set is a dist worker of `dist_flood`:
    // the binary is its own worker fleet.
    let worker_registry = flood::registry(flood::FloodGen {
        shared: gen::GenShared::new(gen::IDLE),
        seed: 0,
        seconds: 0.0,
        probe_rate: 1.0,
        tracer: None,
    });
    if dsdps::dist::maybe_worker_from_env(&worker_registry) {
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(64);
        }
    };
    if args.manifest {
        print!("{}", plan::manifest_json());
        return ExitCode::SUCCESS;
    }
    match (args.seconds, &args.workload) {
        (Some(seconds), Some(name)) => single_run(name, args.seed, seconds, args.trace),
        (Some(_), None) => {
            eprintln!("benchmark: --seconds needs --workload");
            ExitCode::from(64)
        }
        (None, _) => runner::run_plan(
            args.workload.as_deref(),
            args.seed,
            args.quick,
            args.selftest,
            Path::new(OUT_DIR),
        ),
    }
}
