//! The traced run's view inside the server. The live run's operations are
//! replayed, in completion order, straight into a fresh `ChronosControl`
//! on a durable store, a standalone `AnalyticsStore` and the `chronos-api`
//! codecs, timing each call. Matching each live round trip with its direct
//! call charges the difference to transport, routing and codec.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use chronos_analytics::AnalyticsStore;
use chronos_api::v1;
use chronos_api::{WireDecode, WireEncode};
use chronos_core::analysis;
use chronos_core::charts::{ChartRegistry, ChartSpec};
use chronos_core::ChronosControl;
use chronos_json::{obj, Value};
use chronos_util::Id;

use crate::gen::ReadClass;
use crate::metrics::Metrics;
use crate::proto::{ms, Op, OpKind};
use crate::stats::{decile_medians, median, reported_percentile};
use crate::trace::Tracer;
use crate::world::{self, WorkDir, World};
use crate::Workload;

/// Direct rendering of one dashboard read, split into the control-plane
/// call and the response encoding, exactly as the v1 handlers do them.
pub struct DirectRead {
    pub body: Vec<u8>,
    pub core_ms: f64,
    pub encode_ms: f64,
}

pub fn direct_read(
    control: &ChronosControl,
    world: &World,
    history: &[Id],
    class: ReadClass,
    target: (usize, usize),
) -> DirectRead {
    let evaluation = history.get(target.0).copied().unwrap_or(world.evaluation);
    let start = Instant::now();
    let rendered: Result<Value, String> = (|| match class {
        ReadClass::Detail => {
            let detail = control.get_evaluation(evaluation).map_err(|e| e.to_string())?;
            let status = control.evaluation_status(evaluation).map_err(|e| e.to_string())?;
            let mut detail = detail.to_json();
            detail.set("status", status.to_json());
            Ok(detail)
        }
        ReadClass::Jobs => {
            let jobs = control.list_jobs(evaluation).map_err(|e| e.to_string())?;
            Ok(Value::Array(jobs.iter().map(|j| j.to_json_summary()).collect()))
        }
        ReadClass::Summary => {
            analysis::summary_table(control, evaluation).map_err(|e| e.to_string())
        }
        ReadClass::Stats => stats(control),
        ReadClass::Regressions => regressions(control, world),
        ReadClass::Chart => Ok(Value::Null),
    })();
    if class == ReadClass::Chart {
        let svg = chart_svg(control, evaluation, target.1);
        let core_ms = ms(start, Instant::now());
        return DirectRead { body: svg.into_bytes(), core_ms, encode_ms: 0.0 };
    }
    let core_done = Instant::now();
    let body = match rendered {
        Ok(value) => value.to_string().into_bytes(),
        Err(e) => format!("error: {e}").into_bytes(),
    };
    DirectRead { body, core_ms: ms(start, core_done), encode_ms: ms(core_done, Instant::now()) }
}

/// `/api/v1/stats`, as its handler computes it.
fn stats(control: &ChronosControl) -> Result<Value, String> {
    let mut stats = v1::StatsResponse {
        scheduled: 0,
        running: 0,
        finished: 0,
        aborted: 0,
        failed: 0,
        quarantined: 0,
        remaining_space: 0,
        systems: control.list_systems().len(),
        projects: control.list_projects().len(),
    };
    for evaluation in control.list_evaluations(None) {
        let status = control.evaluation_status(evaluation.id).map_err(|e| e.to_string())?;
        stats.scheduled += status.scheduled;
        stats.running += status.running;
        stats.finished += status.finished;
        stats.aborted += status.aborted;
        stats.failed += status.failed;
        stats.quarantined += status.quarantined;
        stats.remaining_space += status.remaining.unwrap_or(0) as u64;
    }
    Ok(stats.to_value())
}

/// `/api/v1/experiments/:id/regressions` with the default query.
fn regressions(control: &ChronosControl, world: &World) -> Result<Value, String> {
    let experiment = world.history_experiment.unwrap_or(world.experiment);
    let report = analysis::experiment_regressions(
        control,
        experiment,
        "/throughput_ops_per_sec",
        chronos_core::ChangePointConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let response = v1::RegressionsResponse {
        experiment_id: report.experiment_id,
        value_path: report.value_path,
        seed: report.config.seed,
        permutations: report.config.permutations as u64,
        significance: report.config.significance,
        min_segment: report.config.min_segment as u64,
        runs: report
            .runs
            .iter()
            .map(|r| v1::RegressionRunDto {
                evaluation_id: r.evaluation_id,
                created_at: r.created_at,
                jobs_measured: r.jobs_measured,
                mean: r.mean,
            })
            .collect(),
        change_points: report
            .change_points
            .iter()
            .map(|cp| v1::RegressionChangePointDto {
                index: cp.index as u64,
                before_mean: cp.before_mean,
                after_mean: cp.after_mean,
                p_value: cp.p_value,
            })
            .collect(),
        regressed: report.regressed,
    };
    Ok(response.to_value())
}

/// The chart the null workloads' direct calls render: throughput by point.
fn null_chart() -> ChartSpec {
    ChartSpec::from_json(&obj! {
        "kind" => "line", "title" => "throughput by point", "x_param" => "point",
        "value_path" => "/throughput_ops_per_sec", "y_label" => "ops/s",
    })
    .expect("chart spec")
}

fn chart_spec(control: &ChronosControl, evaluation: Id, index: usize) -> Option<ChartSpec> {
    let evaluation = control.get_evaluation(evaluation).ok()?;
    let experiment = control.get_experiment(evaluation.experiment_id).ok()?;
    let system = control.get_system(experiment.system_id).ok()?;
    system.charts.get(index).cloned()
}

/// `charts/<index>.svg`, as its handler renders it.
pub fn chart_svg(control: &ChronosControl, evaluation: Id, index: usize) -> String {
    let spec = chart_spec(control, evaluation, index).unwrap_or_else(null_chart);
    let data = match analysis::chart_data(control, evaluation, &spec) {
        Ok(data) => data,
        Err(e) => return format!("error: {e}"),
    };
    ChartRegistry::with_builtins()
        .render_svg(&spec, &data)
        .unwrap_or_else(|e| format!("error: {e}"))
}

/// Records in a JSON-lines WAL.
fn wal_records(path: &Path) -> u64 {
    std::fs::read(path).map(|b| b.iter().filter(|&&c| c == b'\n').count() as u64).unwrap_or(0)
}

/// Per-operation attribution of one live round trip.
pub struct Charged {
    pub kind: OpKind,
    pub rtt_ms: f64,
    pub core_ms: f64,
    pub codec_ms: f64,
}

pub struct ReplayOut {
    pub metrics: Metrics,
    pub charged: Vec<Charged>,
    pub errors: Vec<String>,
}

#[derive(Default)]
struct Samples {
    by_name: HashMap<&'static str, Vec<f64>>,
}

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.by_name.entry(name).or_default().push(value);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    fn median(&self, name: &str) -> Option<f64> {
        median(self.get(name))
    }
}

/// Replays `ops` (completion order) into a fresh world of `workload`.
pub fn replay(workload: Workload, seed: u64, ops: &[Op], tracer: &Tracer) -> ReplayOut {
    let dir = WorkDir::new("replay");
    let path = dir.store_path("replay");
    let control = world::durable_control(&path);
    let (world, history) = match workload {
        Workload::Ledger => (world::ledger(&control), Vec::new()),
        Workload::Replicated => (world::replicated(&control), Vec::new()),
        Workload::DemoSweep => (world::demo_sweep(&control, seed), Vec::new()),
        Workload::Dashboard => world::dashboard(&control, seed),
    };
    let analytics = AnalyticsStore::new();
    analytics.mark_fresh(world.evaluation.as_u128());
    let records_before = wal_records(&path);

    let mut s = Samples::default();
    let mut errors = Vec::new();
    let mut charged = Vec::new();
    let mut jobs: HashMap<Id, (chronos_core::model::Job, u64)> = HashMap::new();
    let mut wal_per_job = Vec::new();
    let mut read_bytes: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut evaluations = vec![world.evaluation];
    let mut ingested_rows = 0usize;

    for (index, op) in ops.iter().enumerate() {
        let id = index as u64;
        let offset = control.replication_offset();
        let start = Instant::now();
        let mut core_ms = 0.0;
        let mut codec_ms = 0.0;
        let mut children = Vec::new();
        match op.kind {
            OpKind::Claim => {
                let key = Id::generate().to_base32();
                let t = Instant::now();
                let claimed = control.claim_next_job(world.deployment, Some(&key));
                let t_core = Instant::now();
                children.push(("core.claim", t, t_core));
                core_ms = ms(t, t_core);
                s.push("core.claim", core_ms);
                let Ok(Some(job)) = claimed else {
                    errors.push(format!("replay: claim {index} found no job"));
                    break;
                };
                let body = job.to_json().to_string();
                let t_enc = Instant::now();
                let decoded =
                    chronos_json::parse(&body).ok().and_then(|v| v1::ClaimedJob::decode(&v).ok());
                let t_dec = Instant::now();
                children.push(("api.claim_decode", t_enc, t_dec));
                if decoded.is_none() {
                    errors.push("replay: claimed job does not decode".into());
                }
                s.push("api.claim_decode_us", ms(t_enc, t_dec) * 1e3);
                codec_ms = ms(t_core, t_dec);
                if let Some(live) = op.job {
                    jobs.insert(live, (job, 0));
                }
            }
            OpKind::Heartbeat | OpKind::Log => {
                let Some((job, _)) = op.job.and_then(|j| jobs.get(&j)) else {
                    errors.push(format!("replay: {} for an unclaimed job", op.kind.name()));
                    break;
                };
                let t = Instant::now();
                let done = if op.kind == OpKind::Heartbeat {
                    control.heartbeat(job.id, Some(0), Some(job.attempts)).map(|_| ())
                } else {
                    control.append_log(job.id, op.text.as_deref().unwrap_or(""))
                };
                let end = Instant::now();
                core_ms = ms(t, end);
                let name = if op.kind == OpKind::Heartbeat { "core.heartbeat" } else { "core.log" };
                children.push((name, t, end));
                s.push(name, core_ms);
                if let Err(e) = done {
                    errors.push(format!("replay: {name}: {e}"));
                }
            }
            OpKind::Upload => {
                let Some((job, _)) = op.job.and_then(|j| jobs.get(&j)) else {
                    errors.push("replay: upload for an unclaimed job".into());
                    break;
                };
                let (data, archive) = op.upload.clone().unwrap_or((Value::Null, Vec::new()));
                let key = Id::generate().to_base32();
                let t = Instant::now();
                let mut frame = String::with_capacity(archive.len() / 3 * 4 + 64);
                v1::write_upload_frame(&mut frame, &data, &archive, Some(job.attempts), Some(&key));
                let t_enc = Instant::now();
                let request = chronos_json::parse(&frame)
                    .ok()
                    .and_then(|v| v1::UploadResultRequest::decode(&v).ok());
                let t_dec = Instant::now();
                children.push(("api.upload_encode", t, t_enc));
                children.push(("api.upload_decode", t_enc, t_dec));
                s.push("api.upload_encode_us", ms(t, t_enc) * 1e3);
                s.push("api.upload_body_bytes", frame.len() as f64);
                codec_ms = ms(t, t_dec);
                let Some(request) = request else {
                    errors.push("replay: upload frame does not decode".into());
                    break;
                };
                let finished = control.finish_job(
                    job.id,
                    request.data,
                    request.archive,
                    request.attempt,
                    request.idempotency_key.as_deref(),
                );
                let t_fin = Instant::now();
                children.push(("core.finish", t_dec, t_fin));
                core_ms = ms(t_dec, t_fin);
                s.push("core.finish", core_ms);
                if let Err(e) = finished {
                    errors.push(format!("replay: finish: {e}"));
                }
                analytics.ingest(
                    job.evaluation_id.as_u128(),
                    job.id.as_u128(),
                    &job.parameters,
                    &data,
                    &analysis::STANDARD_METRIC_PATHS,
                );
                let t_ing = Instant::now();
                children.push(("analytics.ingest", t_fin, t_ing));
                s.push("analytics.ingest", ms(t_fin, t_ing));
                s.push(
                    "analytics.reencoded_bytes",
                    analytics.encoded_size(job.evaluation_id.as_u128()) as f64,
                );
                ingested_rows += 1;
            }
            OpKind::Read(class) => {
                let read = direct_read(&control, &world, &history, class, op.target);
                core_ms = read.core_ms;
                codec_ms = read.encode_ms;
                let t_core = start + std::time::Duration::from_secs_f64(core_ms / 1e3);
                children.push((core_read_name(class), start, t_core));
                s.push(core_read_name(class), read.core_ms);
                read_bytes.entry(class.name()).or_default().push(read.body.len() as f64);
            }
            OpKind::CreateEvaluation => {
                let t = Instant::now();
                match control.create_evaluation(world.experiment) {
                    Ok(evaluation) => {
                        analytics.mark_fresh(evaluation.id.as_u128());
                        evaluations.push(evaluation.id);
                    }
                    Err(e) => errors.push(format!("replay: create evaluation: {e}")),
                }
                let end = Instant::now();
                children.push(("core.create_evaluation", t, end));
                s.push("core.create_evaluation", ms(t, end));
            }
        }
        let wal = control.replication_offset() - offset;
        if let Some((_, bytes)) = op.job.and_then(|j| jobs.get_mut(&j)) {
            *bytes += wal;
            if op.kind == OpKind::Upload {
                wal_per_job.push(*bytes as f64);
            }
        }
        s.push(wal_name(op.kind), wal as f64);
        let children: Vec<_> = children.into_iter().filter(|c| c.1 < c.2).collect();
        tracer.record_tree((replay_name(op.kind), start, Instant::now()), &children, id);
        if let Some(rtt_ms) = op.rtt_ms {
            charged.push(Charged { kind: op.kind, rtt_ms, core_ms, codec_ms });
        }
    }

    // Read costs at this store's final size, for every workload.
    let main = *evaluations.last().unwrap_or(&world.evaluation);
    let reads = history.len().max(1);
    for round in 0..5 {
        let target = (round % reads, round % 3);
        for class in [ReadClass::Detail, ReadClass::Jobs, ReadClass::Stats] {
            let read = direct_read(&control, &world, &history, class, target);
            s.push(core_read_name(class), read.core_ms);
        }
        let t = Instant::now();
        let _ = analysis::summary_table(&control, history.get(target.0).copied().unwrap_or(main));
        s.push("core.summary", ms(t, Instant::now()));
        let evaluation = history.get(target.0).copied().unwrap_or(main);
        let spec = chart_spec(&control, evaluation, target.1).unwrap_or_else(null_chart);
        let t = Instant::now();
        let _ = analysis::chart_data(&control, evaluation, &spec);
        s.push("core.chart", ms(t, Instant::now()));
        let t = Instant::now();
        let loaded = analytics.load(main.as_u128());
        s.push("analytics.load", ms(t, Instant::now()));
        drop(loaded);
    }

    // Planning one more evaluation at the final history size.
    let t = Instant::now();
    if control.create_evaluation(world.experiment).is_ok() {
        s.push("core.create_evaluation", ms(t, Instant::now()));
    }

    let records = wal_records(&path).saturating_sub(records_before);
    let uploads = s.get("core.finish").len();
    let encoded: usize = evaluations.iter().map(|e| analytics.encoded_size(e.as_u128())).sum();
    drop(control);
    let t = Instant::now();
    let reopened = world::durable_control(&path);
    let open_s = t.elapsed().as_secs_f64();
    drop(reopened);

    let mut m = Metrics::default();
    m.opt("core.claim_ms_p50", s.median("core.claim"), "ms");
    m.opt("core.claim_ms_p99", reported_percentile(s.get("core.claim"), 0.99), "ms");
    if let Some((first, last)) = decile_medians(s.get("core.claim")) {
        m.set("core.claim_ms.first_decile", first, "ms");
        m.set("core.claim_ms.last_decile", last, "ms");
    }
    m.opt("core.heartbeat_ms_p50", s.median("core.heartbeat"), "ms");
    m.opt("core.log_ms_p50", s.median("core.log"), "ms");
    m.opt("core.finish_ms_p50", s.median("core.finish"), "ms");
    m.opt("core.finish_ms_p99", reported_percentile(s.get("core.finish"), 0.99), "ms");
    m.opt("core.status_ms_p50", s.median("core.status"), "ms");
    m.opt("core.list_jobs_ms_p50", s.median("core.list_jobs"), "ms");
    m.opt("core.stats_ms_p50", s.median("core.stats"), "ms");
    m.opt("core.summary_ms_p50", s.median("core.summary"), "ms");
    m.opt("core.chart_ms_p50", s.median("core.chart"), "ms");
    m.opt("core.create_evaluation_ms", s.median("core.create_evaluation"), "ms");
    m.set("core.open_s", open_s, "s");
    for kind in [OpKind::Claim, OpKind::Heartbeat, OpKind::Log, OpKind::Upload] {
        m.opt(
            match kind {
                OpKind::Claim => "store.wal_bytes.claim",
                OpKind::Heartbeat => "store.wal_bytes.heartbeat",
                OpKind::Log => "store.wal_bytes.log",
                _ => "store.wal_bytes.finish",
            },
            median(s.get(wal_name(kind))),
            "bytes",
        );
    }
    if uploads > 0 {
        m.set("store.log_records_per_job", records as f64 / uploads as f64, "count");
    }
    if let Some((first, last)) = decile_medians(&wal_per_job) {
        m.set("store.wal_bytes_per_job.first_decile", first, "bytes");
        m.set("store.wal_bytes_per_job.last_decile", last, "bytes");
    }
    m.opt("api.upload_encode_us_p50", s.median("api.upload_encode_us"), "us");
    m.opt("api.claim_decode_us_p50", s.median("api.claim_decode_us"), "us");
    m.opt("api.upload_body_bytes_p50", s.median("api.upload_body_bytes"), "bytes");
    for (class, sizes) in &read_bytes {
        m.opt(&format!("api.read_body_bytes.{class}"), median(sizes), "bytes");
    }
    m.opt("analytics.ingest_ms_p50", s.median("analytics.ingest"), "ms");
    m.opt("analytics.ingest_ms_p99", reported_percentile(s.get("analytics.ingest"), 0.99), "ms");
    m.opt("analytics.reencoded_bytes_per_ingest", s.median("analytics.reencoded_bytes"), "bytes");
    m.opt("analytics.load_ms_p50", s.median("analytics.load"), "ms");
    if ingested_rows > 0 {
        m.set("analytics.bytes_per_row", encoded as f64 / ingested_rows as f64, "bytes");
    }
    ReplayOut { metrics: m, charged, errors }
}

fn core_read_name(class: ReadClass) -> &'static str {
    match class {
        ReadClass::Detail => "core.status",
        ReadClass::Jobs => "core.list_jobs",
        ReadClass::Summary => "core.summary",
        ReadClass::Chart => "core.chart",
        ReadClass::Stats => "core.stats",
        ReadClass::Regressions => "core.regressions",
    }
}

fn wal_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Claim => "wal.claim",
        OpKind::Heartbeat => "wal.heartbeat",
        OpKind::Log => "wal.log",
        OpKind::Upload => "wal.finish",
        OpKind::Read(_) => "wal.read",
        OpKind::CreateEvaluation => "wal.create_evaluation",
    }
}

fn replay_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Claim => "replay.claim",
        OpKind::Heartbeat => "replay.heartbeat",
        OpKind::Log => "replay.log",
        OpKind::Upload => "replay.upload",
        OpKind::Read(_) => "replay.read",
        OpKind::CreateEvaluation => "replay.create_evaluation",
    }
}
