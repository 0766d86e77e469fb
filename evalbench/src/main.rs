//! `evalbench` — one evaluation of Chronos, measured end to end against a
//! real `chronos-server`, with a traced run that charges each operation's
//! time to the crate layers.
//!
//! ```text
//! evalbench --workload <ledger|dashboard|demo-sweep|replicated>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer metrics. Every
//! metric is also printed on its own line above it, and a record with the
//! environment and per-repetition values is appended to
//! `.bench_out/results.jsonl`. The exit code is non-zero when a
//! correctness check fails.

mod agent;
mod env;
mod gen;
mod metrics;
mod proto;
mod replay;
mod stats;
mod trace;
mod workloads;
mod world;

use std::io::Write;
use std::path::PathBuf;

use chronos_json::{obj, Value};

use metrics::{Metrics, Outcome};
use proto::OpKind;
use stats::{median, reported_percentile};
use trace::Tracer;
use workloads::{Ctx, Phase};

/// End-to-end metrics: reported by every workload with `--trace 0`.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "jobs_per_s",
    "overhead_ms_p50",
    "claim_ms_p50",
    "upload_ms_p50",
    "wal_bytes_per_job",
    "recovery_s",
    "heap_mb",
];

/// Per-layer metrics: reported by every workload with `--trace 1`.
const PER_LAYER: [&str; 40] = [
    "agent.post_run_ms_p50",
    "agent.phase_ms_p50",
    "agent.deliver_ms_p50",
    "agent.claim_to_setup_ms_p50",
    "http.requests_per_job",
    "http.connections_per_job",
    "http.loops_per_request",
    "http.wakeups_per_request",
    "http.floor_ms_p50",
    "http.gap_ms_p50.claim",
    "http.gap_ms_p50.upload",
    "api.upload_encode_us_p50",
    "api.claim_decode_us_p50",
    "api.upload_body_bytes_p50",
    "core.claim_ms_p50",
    "core.claim_ms.first_decile",
    "core.claim_ms.last_decile",
    "core.heartbeat_ms_p50",
    "core.log_ms_p50",
    "core.finish_ms_p50",
    "core.status_ms_p50",
    "core.list_jobs_ms_p50",
    "core.stats_ms_p50",
    "core.summary_ms_p50",
    "core.chart_ms_p50",
    "core.create_evaluation_ms",
    "core.open_s",
    "store.wal_bytes.claim",
    "store.wal_bytes.heartbeat",
    "store.wal_bytes.log",
    "store.wal_bytes.finish",
    "store.log_records_per_job",
    "store.wal_bytes_per_job.first_decile",
    "store.wal_bytes_per_job.last_decile",
    "analytics.ingest_ms_p50",
    "analytics.reencoded_bytes_per_ingest",
    "analytics.load_ms_p50",
    "analytics.bytes_per_row",
    "bench.trace_overhead_frac",
    "bench.attribution_residual_frac",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ledger,
    Dashboard,
    DemoSweep,
    Replicated,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "ledger" => Some(Workload::Ledger),
            "dashboard" => Some(Workload::Dashboard),
            "demo-sweep" => Some(Workload::DemoSweep),
            "replicated" => Some(Workload::Replicated),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Ledger => "ledger",
            Workload::Dashboard => "dashboard",
            Workload::DemoSweep => "demo-sweep",
            Workload::Replicated => "replicated",
        }
    }
}

/// Lock message: a poisoned lock means a benchmark thread panicked.
pub const POISONED: &str = "a benchmark thread panicked while holding a lock";

/// Where stores, spans and result records go, relative to the directory
/// the benchmark runs in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, seed, seconds, trace })
}

fn run(
    workload: Workload,
    ctx: &Ctx,
    tracer: &Tracer,
    ops: &proto::OpLog,
    out: &mut Outcome,
) -> Phase {
    match workload {
        Workload::Ledger => workloads::ledger(ctx, tracer, ops, out),
        Workload::Dashboard => workloads::dashboard(ctx, tracer, ops, out),
        Workload::DemoSweep => workloads::demo_sweep(ctx, tracer, ops, out),
        Workload::Replicated => workloads::replicated(ctx, tracer, ops, out),
    }
}

fn column(phase: &Phase, f: impl Fn(&proto::JobSample) -> f64) -> Vec<f64> {
    phase.jobs.iter().map(f).collect()
}

/// The end-to-end metrics of one measured phase.
fn end_to_end(out: &Outcome, phase: &Phase) -> Metrics {
    let mut m = Metrics::default();
    let jobs = phase.jobs.len();
    m.opt("setup_s", out.repetitions.get("setup_s").and_then(|v| median(v)), "s");
    // Recovery of one store is fixed work whose times fall into a fast and
    // a slow mode with the host; the fastest stays in the fast one, where a
    // median flips between them.
    let recovery = out.repetitions.get("recovery_s");
    m.opt("recovery_s", recovery.and_then(|v| v.iter().copied().reduce(f64::min)), "s");
    if phase.measured_s > 0.0 && jobs > 0 {
        m.set("jobs_per_s", jobs as f64 / phase.measured_s, "1/s");
        m.set("wal_bytes_per_job", phase.wal_bytes as f64 / jobs as f64, "bytes");
    }
    for (name, values) in [
        ("overhead_ms", column(phase, |j| j.overhead_ms)),
        ("claim_ms", column(phase, |j| j.claim_ms)),
        ("upload_ms", column(phase, |j| j.upload_ms)),
        ("read_ms", phase.reads.iter().map(|r| r.latency_ms).collect()),
    ] {
        m.opt(&format!("{name}_p50"), median(&values), "ms");
        m.opt(&format!("{name}_p99"), reported_percentile(&values, 0.99), "ms");
    }
    m.opt("heap_mb", phase.heap_mb, "MB");
    m.opt("rss_mb", phase.rss_mb, "MB");
    m.set("failed_frac", out.failed as f64 / out.attempted.max(1) as f64, "fraction");
    m.set("jobs", jobs as f64, "count");
    m.merge(phase.extra.clone());
    m
}

/// The agent-side and transport per-layer metrics of a traced phase.
fn agent_and_http(phase: &Phase) -> Metrics {
    let mut m = Metrics::default();
    m.opt("agent.post_run_ms_p50", median(&column(phase, |j| j.post_run_ms)), "ms");
    m.opt("agent.phase_ms_p50", median(&column(phase, |j| j.phase_ms)), "ms");
    m.opt("agent.deliver_ms_p50", median(&column(phase, |j| j.upload_ms)), "ms");
    m.opt("agent.claim_to_setup_ms_p50", median(&column(phase, |j| j.claim_to_setup_ms)), "ms");
    let jobs = phase.jobs.len().max(1) as f64;
    let requests = phase.http.requests.max(1) as f64;
    m.set("http.requests_per_job", phase.http.requests as f64 / jobs, "count");
    m.set("http.connections_per_job", phase.http.connections as f64 / jobs, "count");
    m.set("http.loops_per_request", phase.http.loops as f64 / requests, "count");
    m.set("http.wakeups_per_request", phase.http.wakeups as f64 / requests, "count");
    m.set("http.shed_total", phase.http.shed as f64, "count");
    m.opt("http.floor_ms_p50", median(&phase.floor_ms), "ms");
    m
}

/// Charges each live round trip: the matched direct call to its layer and
/// the rest (`http.gap_ms_p50.*`) to transport, routing and codec.
/// `bench.attribution_residual_frac` is the share of round-trip time that
/// the layers measured apart from it (the `/healthz` floor under load, the
/// codec and the matched direct call) do not account for, summed per
/// operation so that over- and under-charges do not cancel.
fn attribution(charged: &[replay::Charged], floor_ms: f64) -> Metrics {
    let mut m = Metrics::default();
    let gap = |keep: &dyn Fn(OpKind) -> bool| -> Vec<f64> {
        charged.iter().filter(|c| keep(c.kind)).map(|c| c.rtt_ms - c.core_ms).collect()
    };
    m.opt("http.gap_ms_p50.claim", median(&gap(&|k| k == OpKind::Claim)), "ms");
    m.opt("http.gap_ms_p50.upload", median(&gap(&|k| k == OpKind::Upload)), "ms");
    m.opt("http.gap_ms_p50.read", median(&gap(&|k| matches!(k, OpKind::Read(_)))), "ms");
    let rtt: f64 = charged.iter().map(|c| c.rtt_ms).sum();
    let residual: f64 =
        charged.iter().map(|c| (c.rtt_ms - (floor_ms + c.codec_ms + c.core_ms)).abs()).sum();
    if rtt > 0.0 {
        m.set("bench.attribution_residual_frac", residual / rtt, "fraction");
    }
    m
}

fn main() {
    // `--recover <store> <evaluation>`: time recovery of a store in this
    // fresh process and print the series (used by the workloads).
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--recover") && argv.len() == 4 {
        let Ok(evaluation) = chronos_util::Id::parse_base32(&argv[3]) else {
            std::process::exit(2);
        };
        let series = workloads::recovery_series(std::path::Path::new(&argv[2]), evaluation);
        let series: Vec<String> = series.iter().map(f64::to_string).collect();
        println!("{}", series.join(" "));
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("evalbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("evalbench: cannot create {}: {e}", out_dir().display());
        std::process::exit(2);
    }
    let ctx = Ctx { seed: args.seed, seconds: args.seconds, traced: false };
    let mut out = Outcome::default();
    let mut all = Metrics::default();
    if !args.trace {
        let phase =
            run(args.workload, &ctx, &Tracer::new(false), &proto::OpLog::new(false), &mut out);
        all = end_to_end(&out, &phase);
    } else {
        // The untraced phase is the baseline for the tracing overhead.
        let mut untraced = Outcome::default();
        let base =
            run(args.workload, &ctx, &Tracer::new(false), &proto::OpLog::new(false), &mut untraced);
        let base = end_to_end(&untraced, &base);
        out.errors.extend(untraced.errors);
        out.attempted += untraced.attempted;
        out.failed += untraced.failed;

        let tracer = Tracer::new(true);
        let ops = proto::OpLog::new(true);
        let traced_ctx = Ctx { traced: true, ..ctx };
        let phase = run(args.workload, &traced_ctx, &tracer, &ops, &mut out);
        all.merge(end_to_end(&out, &phase));
        all.merge(agent_and_http(&phase));
        let replayed = replay::replay(args.workload, args.seed, &phase.ops, &tracer);
        out.errors.extend(replayed.errors);
        all.merge(replayed.metrics);
        all.merge(attribution(&replayed.charged, median(&phase.floor_ms).unwrap_or(0.0)));
        if let (Some(traced), Some(untraced)) = (all.get("jobs_per_s"), base.get("jobs_per_s")) {
            all.set("bench.trace_overhead_frac", 1.0 - traced / untraced, "fraction");
        }
        let path = out_dir().join(format!("spans-{}-{}.jsonl", args.workload.name(), args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            out.errors.push(format!("cannot write {}: {e}", path.display()));
        }
    }

    let required: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for name in required {
        out.check(all.get(name).is_some(), || format!("metric {name} was not measured"));
    }
    let correct = out.errors.is_empty();
    for e in &out.errors {
        eprintln!("evalbench: CHECK FAILED: {e}");
    }

    for (name, (value, unit)) in &all.0 {
        println!("{:<44} {:>16.4} {unit}", name, value);
    }
    let repetitions: chronos_json::Map = out
        .repetitions
        .iter()
        .map(|(k, v)| {
            let mut series = obj! {
                "values" => Value::Array(v.iter().map(|x| Value::from(*x)).collect()),
                "median" => median(v).unwrap_or(0.0),
            };
            if let Some((q1, q3)) = stats::quartiles(v) {
                series.set("q1", q1);
                series.set("q3", q3);
            }
            (k.clone(), series)
        })
        .collect();
    let record = obj! {
        "workload" => args.workload.name(),
        "seconds" => args.seconds,
        "trace" => args.trace,
        "correct" => correct,
        "errors" => Value::Array(out.errors.iter().map(|e| Value::from(e.as_str())).collect()),
        "environment" => env::describe(args.seed),
        "repetitions" => Value::Object(repetitions),
        "metrics" => all.to_json(all.0.keys().map(String::as_str)),
    };
    if let Ok(mut file) =
        std::fs::OpenOptions::new().create(true).append(true).open(out_dir().join("results.jsonl"))
    {
        let _ = writeln!(file, "{record}");
    }
    let result = obj! {
        "correct" => correct,
        "attempted" => out.attempted.max(1) as i64,
        "failed" => out.failed as i64,
        "metrics" => all.to_json(required.iter().copied()),
    };
    println!("{result}");
    std::process::exit(if correct { 0 } else { 1 });
}
