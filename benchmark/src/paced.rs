//! `rt_paced`: the threaded data plane used for latency instead of
//! throughput.  `gen → parse×2 (shuffle) → count×2 (fields on url; 1 s
//! tumbling window, checkpoints every 100 ms, exactly-once-effect) →
//! report×1 (global)`, Zipf(1.1) over 5000 URLs, batch 16, linger 1 ms,
//! open loop at a fixed rate far below saturation.  Linger, wake-ups,
//! fields hashing, window state and checkpoints are on the path.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsdps::config::EngineConfig;
use dsdps::rt::{self, RecoveryMode, RtConfig};
use dsdps::topology::{Topology, TopologyBuilder};
use dsdps::tuple::Fields;
use dsdps::window::{WindowAssigner, WindowedBolt};

use crate::gen::{GenConfig, GenShared, GenSpout, Keys, Pace, IDLE, WARMUP};
use crate::live::{self, Pass};
use crate::plan::{RunCtx, RT_PACED_RATE};
use crate::trace::Tracer;
use crate::wrap::{parsed_fields, Parse, Probes, Report, ReportTotals, Timed, UrlCount};

const URLS: usize = 5000;
const ZIPF_SKEW: f64 = 1.1;
const WINDOW_S: f64 = 1.0;
/// A paced run is invalid when the generator ran later than this (p99)…
const MAX_LAG_P99_MS: f64 = 5.0;
/// …or the system acked less than this share of the offered rate.
const MIN_RATE_SHARE: f64 = 0.99;

fn build(
    gen: Arc<GenShared>,
    probes: Arc<Probes>,
    totals: Arc<ReportTotals>,
    seed: u64,
    tracer: Option<Arc<Tracer>>,
) -> Topology {
    let gen_fields = Fields::new(["id", "key", "due", "flag"]);
    let mut b = TopologyBuilder::new("paced");
    let f = gen_fields.clone();
    b.set_spout("gen", 1, move || {
        GenSpout::new(
            gen.clone(),
            GenConfig {
                pace: Pace::Open {
                    rate: RT_PACED_RATE,
                },
                keys: Keys::urls(URLS, ZIPF_SKEW, seed),
                fields: Some(f.clone()),
                fault: None,
                tracer: tracer.clone(),
            },
        )
    })
    .expect("gen")
    .output_fields(gen_fields);
    let p = probes.clone();
    b.set_bolt("parse", 2, move || Timed::new(Parse::default(), p.clone()))
        .expect("parse")
        .output_fields(parsed_fields())
        .shuffle_grouping("gen")
        .expect("parse grouping");
    let p = probes.clone();
    b.set_bolt("count", 2, move || {
        let windowed =
            WindowedBolt::new(WindowAssigner::Tumbling { size_s: WINDOW_S }, UrlCount, 0.0);
        Timed::new(windowed, p.clone())
    })
    .expect("count")
    .fields_grouping("parse", &["url"])
    .expect("count grouping");
    b.set_bolt("report", 1, move || {
        Timed::new(Report(totals.clone()), probes.clone())
    })
    .expect("report")
    .global_grouping("count")
    .expect("report grouping");
    b.build().expect("paced topology")
}

fn engine() -> EngineConfig {
    let mut cfg = live::engine();
    // Windows close on ticks once input stops; keep that prompt so the
    // drain does not wait a second for the last window.
    cfg.tick_interval_s = 0.1;
    cfg
}

fn rt_config() -> RtConfig {
    RtConfig::default()
        .with_batch_size(16)
        .with_linger(Duration::from_millis(1))
        .with_checkpoints(Duration::from_millis(100))
        .with_recovery_mode(RecoveryMode::ExactlyOnceEffect)
}

pub fn run(ctx: &RunCtx) -> Pass {
    let mut setups = live::rehearse_setup(
        ctx.setup_reps,
        || {
            let idle = GenShared::new(IDLE);
            let topo = build(idle, Probes::for_run(None), Arc::default(), ctx.seed, None);
            rt::submit_with(topo, engine(), rt_config()).expect("submit")
        },
        |running| drop(running.shutdown()),
    );

    let gen = GenShared::new(WARMUP);
    let probes = Probes::for_run(ctx.tracer.clone());
    let totals: Arc<ReportTotals> = Arc::default();
    let t_submit = Instant::now();
    let topo = build(
        gen.clone(),
        probes.clone(),
        totals.clone(),
        ctx.seed,
        ctx.tracer.clone(),
    );
    let running = rt::submit_with(topo, engine(), rt_config()).expect("submit");
    setups.push(t_submit.elapsed().as_secs_f64());

    let me = std::process::id();
    // Settled once every window holding an emitted tuple has closed and
    // reached `report`.
    let settled = || totals.total.load(Ordering::SeqCst) >= gen.emitted.load(Ordering::SeqCst);
    let driven = live::drive(
        &gen,
        &probes,
        t_submit,
        ctx.seconds,
        (0.0, ctx.seconds),
        &|| vec![me],
        &settled,
    );
    let (history, report) = running.shutdown();
    let res = gen.take_result();

    let mut pass = Pass {
        attempted: report.tracked,
        failed: report.permanently_failed + report.in_flight,
        ..Pass::default()
    };
    live::fill_setup(&mut pass, ctx.started, &setups, &driven);
    live::fill_end_to_end(&mut pass, &res, &driven, (0.0, ctx.seconds), None);

    let lag_p99 = res.lag.quantile_ms(0.99);
    let whole_rate = live::ack_rate(&res, 0.0, ctx.seconds);
    if lag_p99 > MAX_LAG_P99_MS {
        pass.invalid = Some(format!("gen.lag_p99_ms {lag_p99:.2} > {MAX_LAG_P99_MS}"));
    } else if whole_rate < MIN_RATE_SHARE * RT_PACED_RATE {
        pass.invalid = Some(format!(
            "acked {whole_rate:.0}/s < {MIN_RATE_SHARE} of the offered {RT_PACED_RATE}/s"
        ));
    }

    pass.check("rt_paced: drained and windows flushed", driven.drained);
    pass.check("rt_paced: ack conservation", report.conservation_holds());
    pass.check(
        "rt_paced: credit conservation",
        report.credit_conservation_holds(),
    );
    pass.check(
        "rt_paced: acked == emitted after drain",
        report.acked == report.spout_emitted && res.measured_acked == res.measured_emitted,
    );
    let reported = totals.per_url.lock().expect("report totals poisoned");
    let reference: HashMap<&str, u64> = res
        .reference
        .iter()
        .map(|(k, c)| (k.as_str(), *c))
        .collect();
    let same = reported.len() == reference.len()
        && reported
            .iter()
            .all(|(url, n)| reference.get(url.as_str()) == Some(n));
    pass.check(
        "rt_paced: per-URL window totals equal the generator's reference counts",
        same,
    );
    pass.check(
        "rt_paced: checkpoints were taken",
        report.checkpoints_taken > 0,
    );

    live::put_gen_layers(&mut pass, &res, &driven);
    live::put_rt_report_layers(&mut pass, &report, &history);
    if ctx.traced() {
        live::put_stage_layers(&mut pass, &driven.stages, &res, &driven);
    }
    pass
}
