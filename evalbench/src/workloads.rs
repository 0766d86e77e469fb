//! The four workloads. Each builds its world, starts a real
//! `chronos-server` on a durable store, drives it for the measured phase,
//! checks the outputs and times recovery of the store it left behind.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use chronos_agent::{
    current_rss_kib, AgentConfig, ChronosAgent, ControlClient, DocstoreClient, HttpSink,
};
use chronos_core::analysis;
use chronos_core::model::JobState;
use chronos_core::ChronosControl;
use chronos_http::{Client, Server};
use chronos_json::Value;
use chronos_server::{ChronosServer, ClusterOptions};
use chronos_util::Id;

use crate::agent::{JobTimes, Shared, TimingClient, TimingSink};
use crate::gen::{PlannedRead, ReadClass, ReadMix, Rng};
use crate::metrics::{Metrics, Outcome};
use crate::proto::{ms, JobSample, Op, OpKind, OpLog, ProtocolAgent};
use crate::replay::direct_read;
use crate::trace::Tracer;
use crate::world::{self, WorkDir, World, PASSWORD, USER};
use crate::POISONED;

/// Open-loop dashboard read rate: about a third of the closed-loop read
/// capacity of one keep-alive connection with this mix and the live writer
/// running (880–955 reads/s on a 2-vCPU host). At half of it the generator
/// fell behind in bursts and the round trips spread past their bounds
/// between runs (see README.md).
pub const READ_RATE_PER_S: f64 = 330.0;
/// Set-ups and store recoveries are each repeated, with a pause after
/// each, at least `MIN_REPEATS` times and until the repetitions span their
/// window of wall time (at most `MAX_REPEATS` times); `setup_s` is their
/// median and `recovery_s` the fastest. Spreading short repetitions over a
/// window keeps a brief burst of host noise from moving either.
/// Recoveries get the longer window: their times alternate between a fast
/// and a slow mode, each lasting a second or two, on the host.
const MIN_REPEATS: usize = 3;
const SETUP_WINDOW: Duration = Duration::from_secs(3);
const RECOVERY_WINDOW: Duration = Duration::from_secs(5);
const REPEAT_PAUSE: Duration = Duration::from_millis(50);
const MAX_REPEATS: usize = 100;
/// Protocol agents on the ledger. One closed-loop agent keeps the load to
/// one thread beside the server's; with two, each one's waits on the
/// other's store lock doubled `overhead_ms_p50` and its run-to-run spread.
const LEDGER_AGENTS: usize = 1;
/// In traced runs each protocol agent probes `/healthz` after every this
/// many jobs (the dashboard reader after every this many reads).
const PROBE_EVERY: usize = 10;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// One dashboard read as the open-loop reader saw it.
#[derive(Debug, Clone)]
pub struct ReadSample {
    pub class: ReadClass,
    /// From the request's due time to the response.
    pub latency_ms: f64,
    /// From sending to the response.
    pub service_ms: f64,
    /// How late the generator sent it.
    pub late_ms: f64,
}

/// What a measured phase gathered.
#[derive(Default)]
pub struct Phase {
    pub jobs: Vec<JobSample>,
    pub reads: Vec<ReadSample>,
    pub floor_ms: Vec<f64>,
    pub measured_s: f64,
    pub wal_bytes: u64,
    pub http: HttpCounters,
    /// Heap the control plane held, and the process RSS, at the end of the
    /// run, MB (see `record_memory`).
    pub heap_mb: Option<f64>,
    pub rss_mb: Option<f64>,
    pub ops: Vec<Op>,
    /// Workload-specific figures.
    pub extra: Metrics,
}

/// Deltas of `ChronosServer::metrics()` over the measured phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct HttpCounters {
    pub requests: u64,
    pub connections: u64,
    pub loops: u64,
    pub wakeups: u64,
    pub shed: u64,
}

impl HttpCounters {
    fn read(server: &ChronosServer) -> HttpCounters {
        let m = server.metrics();
        HttpCounters {
            requests: m.requests.get(),
            connections: m.accepted.get(),
            loops: m.reactor_loops.get(),
            wakeups: m.wakeups.get(),
            shed: m.shed_overload.get()
                + m.shed_draining.get()
                + m.shed_idle.get()
                + m.deadline_exceeded.get(),
        }
    }

    fn add_delta(&mut self, before: HttpCounters, after: HttpCounters) {
        self.requests += after.requests - before.requests;
        self.connections += after.connections - before.connections;
        self.loops += after.loops - before.loops;
        self.wakeups += after.wakeups - before.wakeups;
        self.shed += after.shed - before.shed;
    }
}

/// glibc's allocator statistics, `struct mallinfo2`.
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> MallInfo2;
}

/// Bytes in use in every malloc arena, plus mmapped chunks.
fn heap_in_use() -> usize {
    // SAFETY: `mallinfo2` only reads the allocator's counters and may be
    // called from any thread at any time.
    let info = unsafe { mallinfo2() };
    info.uordblks + info.hblkhd
}

/// Memory at the end of a run: the RSS, and the heap the control plane
/// held, as what `release` (dropping its servers and controls) frees. The
/// load threads have ended by then, so nothing else allocates meanwhile,
/// and the benchmark's own samples stay out of the figure. The RSS also
/// counts free heap the allocator keeps, which moved by a fifth between
/// demo-sweep runs of the same work with how many malloc arenas the job
/// threads happened to take; the heap held did not.
fn record_memory(phase: &mut Phase, release: impl FnOnce()) {
    phase.rss_mb = current_rss_kib().map(|kib| kib as f64 / 1024.0);
    let held = heap_in_use();
    release();
    phase.heap_mb = Some(held.saturating_sub(heap_in_use()) as f64 / (1024.0 * 1024.0));
}

fn start_server(control: &Arc<ChronosControl>) -> ChronosServer {
    ChronosServer::start(Arc::clone(control), "127.0.0.1:0").expect("start chronos-server")
}

/// Store recovery: open, rebuild the control plane, then the first status
/// and summary reads.
fn recover(path: &Path, evaluation: Id) -> f64 {
    let start = Instant::now();
    let control = world::durable_control(path);
    let _ = control.evaluation_status(evaluation);
    let _ = analysis::summary_table(&control, evaluation);
    start.elapsed().as_secs_f64()
}

/// The recovery series of one store, measured in the current process.
pub fn recovery_series(path: &Path, evaluation: Id) -> Vec<f64> {
    let mut out = Outcome::default();
    while !repeated(&mut out, "recovery_s", recover(path, evaluation)) {}
    out.repetitions.remove("recovery_s").unwrap_or_default()
}

/// Records one repetition under `name`, pauses, and says whether the
/// repetitions are now enough for a median. A set-up is torn down only
/// after this returns, so tear-down (which waits out the server's sweeper
/// interval) is never timed.
fn repeated(out: &mut Outcome, name: &str, seconds: f64) -> bool {
    out.repetition(name, seconds);
    std::thread::sleep(REPEAT_PAUSE);
    let samples = out.repetitions[name].len();
    let window = if name == "recovery_s" { RECOVERY_WINDOW } else { SETUP_WINDOW };
    samples >= MAX_REPEATS || (samples >= MIN_REPEATS && out.started[name].elapsed() >= window)
}

/// Times `make` as `setup_s` until `repeated` says enough, and keeps the
/// last set-up. Each earlier one is torn down on a thread of its own:
/// tear-down waits out the server's sweeper interval, and it only sleeps
/// while the next set-up is timed.
fn set_up_repeatedly<T: Send + 'static>(out: &mut Outcome, mut make: impl FnMut() -> T) -> T {
    let mut teardowns = Vec::new();
    let kept = loop {
        let start = Instant::now();
        let made = make();
        if repeated(out, "setup_s", start.elapsed().as_secs_f64()) {
            break made;
        }
        teardowns.push(std::thread::spawn(move || drop(made)));
        std::thread::sleep(REPEAT_PAUSE);
    };
    for teardown in teardowns {
        teardown.join().expect("set-up tear-down");
    }
    kept
}

/// Recovery is timed in a fresh process, as a restart would pay it: the
/// benchmark's own binary with `--recover`, which prints the series.
fn recoveries(out: &mut Outcome, path: &Path, evaluation: Id) {
    let series = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .arg("--recover")
            .arg(path)
            .arg(evaluation.to_base32())
            .stderr(std::process::Stdio::inherit())
            .output()
    });
    let values: Vec<f64> = match &series {
        Ok(output) if output.status.success() => String::from_utf8_lossy(&output.stdout)
            .split_whitespace()
            .filter_map(|v| v.parse().ok())
            .collect(),
        _ => Vec::new(),
    };
    out.check(!values.is_empty(), || format!("recovery of {} failed: {series:?}", path.display()));
    for value in values {
        out.repetition("recovery_s", value);
    }
}

/// Exactly once: every planned point of `evaluation` is accounted for by
/// the status totals, and every finished job has exactly one result.
/// Returns the number of finished jobs.
fn check_evaluation(out: &mut Outcome, control: &ChronosControl, evaluation: Id) -> usize {
    let (Ok(doc), Ok(status), Ok(jobs)) = (
        control.get_evaluation(evaluation),
        control.evaluation_status(evaluation),
        control.list_jobs(evaluation),
    ) else {
        out.errors.push(format!("evaluation {evaluation} is unreadable"));
        return 0;
    };
    let planned = doc.source.as_ref().map(|s| s.total_points as usize).unwrap_or(jobs.len());
    out.check(status.total() == planned, || {
        format!("status totals {} != {planned} planned points", status.total())
    });
    out.check(status.failed + status.aborted + status.quarantined == 0, || {
        format!("evaluation {evaluation} has failed, aborted or quarantined jobs")
    });
    let mut results = std::collections::HashSet::new();
    let mut finished = 0;
    for job in jobs.iter().filter(|j| j.state == JobState::Finished) {
        finished += 1;
        let stored = control.result_for_job(job.id).ok().flatten();
        let ok = matches!((job.result_id, &stored), (Some(id), Some(r)) if r.id == id)
            && results.insert(job.result_id);
        out.check(ok, || format!("job {} lacks exactly one result", job.id));
    }
    out.check(status.finished == finished, || {
        format!("status says {} finished, jobs say {finished}", status.finished)
    });
    finished
}

// ----- protocol agents ------------------------------------------------------

/// What one protocol agent did.
#[derive(Default)]
struct AgentRun {
    jobs: Vec<JobSample>,
    probe: Probe,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

struct Drive<'a> {
    url: &'a str,
    deployment: Id,
    agents: usize,
    seed: u64,
    deadline: Option<Instant>,
    tracer: &'a Tracer,
    ops: &'a OpLog,
    probe: bool,
}

/// Runs `agents` protocol agents closed-loop until the deadline, or until
/// `on_idle` (called when nothing is claimable) says there is no more work.
fn drive_protocol_agents(
    d: &Drive<'_>,
    on_idle: &(dyn Fn() -> bool + Sync),
    on_ack: &(dyn Fn(&JobSample) + Sync),
) -> Vec<AgentRun> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..d.agents)
            .map(|i| {
                scope.spawn(move || {
                    let mut run = AgentRun::default();
                    let client = match ControlClient::login(d.url, USER, PASSWORD) {
                        Ok(client) => client,
                        Err(e) => {
                            run.attempted += 1;
                            run.failed += 1;
                            run.errors.push(format!("agent login: {e}"));
                            return run;
                        }
                    };
                    let mut agent = ProtocolAgent {
                        client,
                        deployment: d.deployment,
                        rng: Rng::stream(d.seed, 100 + i as u64),
                        tracer: d.tracer,
                        ops: d.ops,
                    };
                    let mut probe = if d.probe { Probe::new(d.url) } else { Probe::default() };
                    while d.deadline.is_none_or(|deadline| Instant::now() < deadline) {
                        match agent.run_job() {
                            Ok(Some(sample)) => {
                                run.attempted += 1;
                                on_ack(&sample);
                                run.jobs.push(sample);
                                if run.jobs.len() % PROBE_EVERY == 0 {
                                    probe.sample(d.tracer);
                                }
                            }
                            Ok(None) => {
                                if !on_idle() {
                                    break;
                                }
                            }
                            Err(e) => {
                                run.attempted += 1;
                                run.failed += 1;
                                run.errors.push(format!("agent {i}: {e}"));
                                break;
                            }
                        }
                    }
                    run.probe = probe;
                    run
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("agent thread")).collect()
    })
}

/// The transport floor under load: `/healthz` round trips on a keep-alive
/// connection of their own.
#[derive(Default)]
struct Probe {
    client: Option<Client>,
    floor_ms: Vec<f64>,
}

impl Probe {
    fn new(url: &str) -> Probe {
        Probe { client: Some(Client::new(url)), floor_ms: Vec::new() }
    }

    fn sample(&mut self, tracer: &Tracer) {
        let Some(client) = &self.client else {
            return;
        };
        let start = Instant::now();
        let ok = client.get("/healthz").map(|r| r.status.is_success()).unwrap_or(false);
        let end = Instant::now();
        if ok {
            self.floor_ms.push(ms(start, end));
            tracer.record("http.healthz", start, end, None, 0);
        }
    }

    fn into_phase(self, phase: &mut Phase) {
        phase.floor_ms.extend(self.floor_ms);
    }
}

fn absorb(phase: &mut Phase, out: &mut Outcome, runs: Vec<AgentRun>) {
    for run in runs {
        phase.jobs.extend(run.jobs);
        run.probe.into_phase(phase);
        out.attempted += run.attempted;
        out.failed += run.failed;
        out.errors.extend(run.errors);
    }
}

// ----- ledger ---------------------------------------------------------------

/// Rounds of one fresh durable store each, with one lazy evaluation of
/// `LEDGER_JOBS` null jobs driven by one protocol agent, until the
/// measured time reaches the run length. A traced run makes one round, so
/// the replay sees one world.
pub fn ledger(ctx: &Ctx, tracer: &Tracer, ops: &OpLog, out: &mut Outcome) -> Phase {
    let mut phase = Phase::default();
    let mut teardowns = Vec::new();
    let mut last = None;
    let mut rounds = 0;
    // Set-up time: fresh stores set up and torn down before the rounds.
    let kept = set_up_repeatedly(out, || {
        let dir = WorkDir::new("ledger-setup");
        let control = Arc::new(world::durable_control(&dir.store_path("control")));
        world::ledger(&control);
        (start_server(&control), control, dir)
    });
    teardowns.push(std::thread::spawn(move || drop(kept)));
    while last.is_none() {
        let dir = WorkDir::new("ledger");
        let path = dir.store_path("control");
        let control = Arc::new(world::durable_control(&path));
        let world = world::ledger(&control);
        let server = start_server(&control);

        let url = server.base_url();
        let (offset, http) = (control.replication_offset(), HttpCounters::read(&server));
        let start = Instant::now();
        let drive = Drive {
            url: &url,
            deployment: world.deployment,
            agents: LEDGER_AGENTS,
            seed: ctx.seed.wrapping_add(rounds as u64),
            deadline: None,
            tracer,
            ops,
            probe: ctx.traced,
        };
        let runs = drive_protocol_agents(&drive, &|| false, &|_| {});
        let elapsed = start.elapsed().as_secs_f64();
        phase.measured_s += elapsed;
        phase.wal_bytes += control.replication_offset() - offset;
        phase.http.add_delta(http, HttpCounters::read(&server));
        let completed: usize = runs.iter().map(|r| r.jobs.len()).sum();
        absorb(&mut phase, out, runs);
        out.repetition("round_jobs_per_s", completed as f64 / elapsed);

        let finished = check_evaluation(out, &control, world.evaluation);
        out.check(finished == world::LEDGER_JOBS as usize && completed == finished, || {
            format!("ledger round finished {finished} jobs, agents completed {completed}")
        });
        out.check(control.count_results() == finished, || "stray results in the store".into());
        rounds += 1;
        if ctx.traced || phase.measured_s >= ctx.seconds {
            last = Some((server, control, dir, path, world.evaluation));
        } else {
            // Tear-down waits out the server's sweeper interval, which is
            // longer than a round, so it sleeps beside the next round
            // instead of between them; the store directory goes with it.
            teardowns.push(std::thread::spawn(move || drop((server, control, dir))));
        }
    }
    for teardown in teardowns {
        teardown.join().expect("ledger tear-down");
    }
    phase.ops = ops.take_sorted();
    if let Some((server, control, _dir, path, evaluation)) = last {
        record_memory(&mut phase, move || drop((server, control)));
        recoveries(out, &path, evaluation);
    }
    phase
}

// ----- dashboard ------------------------------------------------------------

struct Dashboard {
    server: ChronosServer,
    control: Arc<ChronosControl>,
    path: PathBuf,
    world: World,
    history: Vec<Id>,
    dir: WorkDir,
}

fn dashboard_setup(seed: u64) -> Dashboard {
    let dir = WorkDir::new("dashboard");
    let path = dir.store_path("control");
    let control = Arc::new(world::durable_control(&path));
    let (world, history) = world::dashboard(&control, seed);
    let server = start_server(&control);
    Dashboard { server, control, path, world, history, dir }
}

fn read_path(world: &World, history: &[Id], read: &PlannedRead) -> String {
    let evaluation = history[read.evaluation].to_base32();
    match read.class {
        ReadClass::Detail => format!("/api/v1/evaluations/{evaluation}"),
        ReadClass::Jobs => format!("/api/v1/evaluations/{evaluation}/jobs"),
        ReadClass::Summary => format!("/api/v1/evaluations/{evaluation}/summary"),
        ReadClass::Chart => format!("/api/v1/evaluations/{evaluation}/charts/{}.svg", read.chart),
        ReadClass::Stats => "/api/v1/stats".to_string(),
        ReadClass::Regressions => format!(
            "/api/v1/experiments/{}/regressions",
            world.history_experiment.expect("history experiment").to_base32()
        ),
    }
}

/// The read's target as the checks key it: stats and regressions have one
/// target, only charts use the chart index.
fn target_of(read: &PlannedRead) -> (usize, usize) {
    match read.class {
        ReadClass::Stats | ReadClass::Regressions => (0, 0),
        ReadClass::Chart => (read.evaluation, read.chart),
        _ => (read.evaluation, 0),
    }
}

#[derive(Default)]
struct ReaderRun {
    reads: Vec<ReadSample>,
    probe: Probe,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// First body seen per target, and how many later bodies differed.
    bodies: HashMap<(ReadClass, (usize, usize)), Vec<u8>>,
    changed: Vec<String>,
    stats: Vec<Vec<u8>>,
}

/// The open-loop reader: sends the seeded mix at `READ_RATE_PER_S`,
/// timing each request from when it was due.
fn open_loop_reader(
    dash: &Dashboard,
    token: &str,
    seed: u64,
    deadline: Instant,
    tracer: &Tracer,
    ops: &OpLog,
    probe_health: bool,
) -> ReaderRun {
    let url = dash.server.base_url();
    let client = Client::new(&url);
    client.set_default_header(chronos_api::TOKEN_HEADER, token);
    let mut run = ReaderRun::default();
    if probe_health {
        run.probe = Probe::new(&url);
    }
    let start = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / READ_RATE_PER_S);
    let mix = ReadMix::new(seed, dash.history.len(), 3);
    for (k, read) in mix.enumerate() {
        let due = start + interval * k as u32;
        if due >= deadline || Instant::now() >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let path = read_path(&dash.world, &dash.history, &read);
        let sent = Instant::now();
        let response = client.get(&path);
        let done = Instant::now();
        run.attempted += 1;
        let response = match response {
            Ok(r) if r.status.is_success() => r,
            failed => {
                run.failed += 1;
                let why = match failed {
                    Ok(r) => format!("status {}", r.status.0),
                    Err(e) => e.to_string(),
                };
                run.errors.push(format!("read {path} failed: {why}"));
                continue;
            }
        };
        let target = target_of(&read);
        tracer.record_tree(
            ("dashboard.read", due, done),
            &[("bench.generator_late", due, sent), ("http.read", sent, done)],
            k as u64,
        );
        ops.push(|| Op {
            target,
            ..Op::new(OpKind::Read(read.class), tracer.stamp(done), Some(ms(sent, done)))
        });
        run.reads.push(ReadSample {
            class: read.class,
            latency_ms: ms(due, done),
            service_ms: ms(sent, done),
            late_ms: ms(due, sent),
        });
        if read.class == ReadClass::Stats {
            run.stats.push(response.body);
        } else {
            let first =
                run.bodies.entry((read.class, target)).or_insert_with(|| response.body.clone());
            if *first != response.body {
                run.changed.push(path);
            }
        }
        if run.reads.len() % PROBE_EVERY == 0 {
            run.probe.sample(tracer);
        }
    }
    run
}

/// Every JSON read matches the direct `chronos-core` call; `/stats` reads
/// (which race the live writer) lie between the seeded and final totals.
fn check_reads(out: &mut Outcome, dash: &Dashboard, run: &ReaderRun, seeded_finished: usize) {
    for path in &run.changed {
        out.errors.push(format!("read {path} changed between requests"));
    }
    for ((class, target), body) in &run.bodies {
        let direct = direct_read(&dash.control, &dash.world, &dash.history, *class, *target);
        let same = if *class == ReadClass::Chart {
            direct.body == *body
        } else {
            let parse = |b: &[u8]| chronos_json::parse(&String::from_utf8_lossy(b)).ok();
            parse(body).is_some() && parse(body) == parse(&direct.body)
        };
        out.check(same, || {
            format!("{} read of {target:?} differs from the direct call", class.name())
        });
    }
    let direct = direct_read(&dash.control, &dash.world, &dash.history, ReadClass::Stats, (0, 0));
    let final_stats =
        chronos_json::parse(&String::from_utf8_lossy(&direct.body)).unwrap_or_default();
    let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(u64::MAX);
    for body in &run.stats {
        let stats = chronos_json::parse(&String::from_utf8_lossy(body)).unwrap_or_default();
        let finished = field(&stats, "finished");
        let ok = ["systems", "projects", "failed", "aborted"]
            .iter()
            .all(|k| field(&stats, k) == field(&final_stats, k))
            && finished >= seeded_finished as u64
            && finished <= field(&final_stats, "finished");
        out.check(ok, || format!("stats read {stats} is outside the run's totals {final_stats}"));
    }
}

/// Seeded history plus an open-loop reader and one live protocol agent.
pub fn dashboard(ctx: &Ctx, tracer: &Tracer, ops: &OpLog, out: &mut Outcome) -> Phase {
    let dash = set_up_repeatedly(out, || dashboard_setup(ctx.seed));
    let token = dash.control.login(USER, PASSWORD).expect("reader login");
    let url = dash.server.base_url();
    // Warm-up: one untimed pass over every read target fills the caches.
    {
        let client = Client::new(&url);
        client.set_default_header(chronos_api::TOKEN_HEADER, &token);
        for read in ReadMix::new(ctx.seed, dash.history.len(), 3).take(60) {
            let _ = client.get(&read_path(&dash.world, &dash.history, &read));
        }
    }
    let seeded_finished =
        dash.control.evaluation_status(dash.history[0]).map(|s| s.finished).unwrap_or(0)
            * dash.history.len();

    let mut phase = Phase::default();
    let (offset, http) = (dash.control.replication_offset(), HttpCounters::read(&dash.server));
    let evaluations = Mutex::new(vec![dash.world.evaluation]);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let (mut reader, runs) = std::thread::scope(|scope| {
        let dash = &dash;
        let token = &token;
        let reader = scope.spawn(move || {
            open_loop_reader(dash, token, ctx.seed, deadline, tracer, ops, ctx.traced)
        });
        let drive = Drive {
            url: &url,
            deployment: dash.world.deployment,
            agents: 1,
            seed: ctx.seed,
            deadline: Some(deadline),
            tracer,
            ops,
            probe: false,
        };
        let refill = || new_evaluation(&dash.control, &dash.world, &evaluations, tracer, ops);
        let runs = drive_protocol_agents(&drive, &refill, &|_| {});
        (reader.join().expect("reader thread"), runs)
    });
    phase.measured_s = start.elapsed().as_secs_f64();
    phase.wal_bytes = dash.control.replication_offset() - offset;
    phase.http.add_delta(http, HttpCounters::read(&dash.server));
    absorb(&mut phase, out, runs);
    out.attempted += reader.attempted;
    out.failed += reader.failed;
    out.errors.append(&mut reader.errors);
    phase.reads = reader.reads.clone();
    std::mem::take(&mut reader.probe).into_phase(&mut phase);
    phase.ops = ops.take_sorted();

    check_reads(out, &dash, &reader, seeded_finished);
    let live: usize = evaluations
        .lock()
        .expect(POISONED)
        .clone()
        .into_iter()
        .map(|e| check_evaluation(out, &dash.control, e))
        .sum();
    out.check(live == phase.jobs.len(), || {
        format!("live evaluations finished {live} jobs, the agent completed {}", phase.jobs.len())
    });
    let late: Vec<f64> = reader.reads.iter().map(|r| r.late_ms).collect();
    phase.extra.opt(
        "bench.generator_late_ms_p99",
        crate::stats::reported_percentile(&late, 0.99),
        "ms",
    );
    phase.extra.opt("bench.generator_late_ms_p50", crate::stats::median(&late), "ms");
    let service: Vec<f64> = reader.reads.iter().map(|r| r.service_ms).collect();
    phase.extra.opt("read_service_ms_p50", crate::stats::median(&service), "ms");
    for class in ReadClass::ALL {
        let latency: Vec<f64> =
            reader.reads.iter().filter(|r| r.class == class).map(|r| r.latency_ms).collect();
        phase.extra.opt(
            &format!("read_ms_p50.{}", class.name()),
            crate::stats::median(&latency),
            "ms",
        );
    }

    let evaluation = dash.history[0];
    let path = dash.path.clone();
    let (server, control) = (dash.server, dash.control);
    record_memory(&mut phase, move || drop((server, control)));
    recoveries(out, &path, evaluation);
    drop(dash.dir);
    phase
}

/// Refills a streamed workload with a fresh evaluation of its experiment.
fn new_evaluation(
    control: &ChronosControl,
    world: &World,
    evaluations: &Mutex<Vec<Id>>,
    tracer: &Tracer,
    ops: &OpLog,
) -> bool {
    let Ok(evaluation) = control.create_evaluation(world.experiment) else {
        return false;
    };
    let end = Instant::now();
    evaluations.lock().expect(POISONED).push(evaluation.id);
    // An in-process call, not a round trip: replayed, but not charged.
    ops.push(|| Op::new(OpKind::CreateEvaluation, tracer.stamp(end), None));
    true
}

// ----- demo-sweep -----------------------------------------------------------

/// The paper's engine comparison, run by one real `ChronosAgent` with the
/// default configuration and the bundled minidoc client.
pub fn demo_sweep(ctx: &Ctx, tracer: &Tracer, ops: &OpLog, out: &mut Outcome) -> Phase {
    let (server, control, world, path, dir) = set_up_repeatedly(out, || {
        let dir = WorkDir::new("demo-sweep");
        let path = dir.store_path("control");
        let control = Arc::new(world::durable_control(&path));
        let world = world::demo_sweep(&control, ctx.seed);
        (start_server(&control), control, world, path, dir)
    });
    let url = server.base_url();
    let client = ControlClient::login(&url, USER, PASSWORD).expect("agent login");
    let times: Shared = Arc::default();
    let mut config = AgentConfig::new(world.deployment);
    let heartbeat_interval = config.heartbeat_interval;
    config.sink = Box::new(TimingSink { inner: HttpSink, times: Arc::clone(&times) });
    let evaluation_client =
        TimingClient { inner: DocstoreClient::new(), times: Arc::clone(&times) };
    let mut agent = ChronosAgent::new(client, config, evaluation_client);

    let mut phase = Phase::default();
    let mut delivered: Vec<JobTimes> = Vec::new();
    let evaluations = Mutex::new(vec![world.evaluation]);
    let (offset, http) = (control.replication_offset(), HttpCounters::read(&server));
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let floor = std::thread::scope(|scope| {
        let prober = scope.spawn(|| {
            let mut probe = Probe::default();
            if ctx.traced {
                probe = Probe::new(&url);
                while !stop.load(Ordering::SeqCst) {
                    probe.sample(tracer);
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
            probe
        });
        while start.elapsed().as_secs_f64() < ctx.seconds {
            let claim_start = Instant::now();
            match agent.run_once() {
                Ok(true) => {
                    out.attempted += 1;
                    let t = times.lock().expect(POISONED).clone();
                    match sweep_sample(claim_start, &t) {
                        Some(sample) => {
                            record_sweep_ops(ops, tracer, claim_start, &t, heartbeat_interval);
                            phase.jobs.push(sample);
                            delivered.push(t);
                        }
                        None => {
                            out.failed += 1;
                            out.errors
                                .push("demo-sweep job ended without a delivered result".into());
                        }
                    }
                }
                Ok(false) => {
                    new_evaluation(&control, &world, &evaluations, tracer, ops);
                }
                Err(e) => {
                    out.attempted += 1;
                    out.failed += 1;
                    out.errors.push(format!("agent: {e}"));
                    break;
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
        prober.join().expect("prober")
    });
    phase.measured_s = start.elapsed().as_secs_f64();
    phase.wal_bytes = control.replication_offset() - offset;
    phase.http.add_delta(http, HttpCounters::read(&server));
    floor.into_phase(&mut phase);

    // Replayed logs carry what the agent actually shipped.
    let mut ops_sorted = ops.take_sorted();
    for op in ops_sorted.iter_mut().filter(|op| op.kind == OpKind::Log) {
        op.text = op.job.and_then(|j| control.get_job(j).ok()).map(|job| job.log);
    }
    phase.ops = ops_sorted;

    // The results carry the agent phase block, and the minidoc figures.
    let pick = |data: &Value, pointer: &[&str]| {
        pointer.iter().try_fold(data, |v, k| v.get(k)).and_then(Value::as_f64)
    };
    let (mut ops_per_s, mut update_p99, mut stored, mut setup_ms) =
        (vec![], vec![], vec![], vec![]);
    for t in &delivered {
        let job = t.job.expect("job id");
        let stored_result = control.result_for_job(job).ok().flatten();
        let has_agent = stored_result
            .as_ref()
            .and_then(|r| r.data.get("agent"))
            .is_some_and(|a| a.get("execute_millis").is_some());
        out.check(has_agent, || format!("result of job {job} lacks the agent phase block"));
        if let Some(data) = &t.data {
            ops_per_s.extend(pick(data, &["throughput_ops_per_sec"]));
            update_p99.extend(pick(data, &["operations", "update", "latency_micros", "p99"]));
            stored.extend(pick(data, &["engine_stats", "stored_bytes"]));
        }
        setup_ms.extend(t.set_up.map(|(a, b)| ms(a, b)));
    }
    phase.extra.opt("minidoc.ops_per_s_p50", crate::stats::median(&ops_per_s), "1/s");
    phase.extra.opt("minidoc.update_p99_us_p50", crate::stats::median(&update_p99), "us");
    phase.extra.opt("minidoc.stored_bytes_p50", crate::stats::median(&stored), "bytes");
    phase.extra.opt("workload.setup_ms_p50", crate::stats::median(&setup_ms), "ms");
    let finished: usize = evaluations
        .lock()
        .expect(POISONED)
        .clone()
        .into_iter()
        .map(|e| check_evaluation(out, &control, e))
        .sum();
    out.check(finished == delivered.len(), || {
        format!("{finished} finished jobs for {} delivered results", delivered.len())
    });

    record_memory(&mut phase, move || drop((server, control)));
    recoveries(out, &path, world.evaluation);
    drop(dir);
    phase
}

/// Per-job timings of the real agent, seen through its two seams. The
/// claim is not observable from outside the runtime, so `claim_ms` is the
/// time from `run_once` to the client's set-up: the claim round trip plus
/// the heartbeat thread's start.
fn sweep_sample(claim_start: Instant, t: &JobTimes) -> Option<JobSample> {
    let (set_up, _) = t.set_up?;
    let (_, torn_down) = t.tear_down?;
    let (deliver_start, acked) = t.deliver?;
    let phases: f64 =
        [t.set_up, t.warm_up, t.execute].iter().flatten().map(|(a, b)| ms(*a, *b)).sum();
    let claim_ms = ms(claim_start, set_up);
    Some(JobSample {
        claim_ms,
        upload_ms: ms(deliver_start, acked),
        phase_ms: phases,
        post_run_ms: ms(torn_down, deliver_start),
        claim_to_setup_ms: claim_ms,
        overhead_ms: ms(claim_start, acked) - t.client_ms(),
        acked: Some(acked),
    })
}

/// The replay's view of one agent job: its claim, one heartbeat per
/// started interval, its log, and the delivered result.
fn record_sweep_ops(
    ops: &OpLog,
    tracer: &Tracer,
    claim_start: Instant,
    t: &JobTimes,
    beat: Duration,
) {
    let (Some(job), Some((set_up, _)), Some((_, torn_down)), Some((deliver_start, acked))) =
        (t.job, t.set_up, t.tear_down, t.deliver)
    else {
        return;
    };
    let id = job.as_u128() as u64;
    let mut spans = vec![
        ("agent.claim_to_setup", claim_start, set_up),
        ("agent.post_run", torn_down, deliver_start),
        ("agent.deliver", deliver_start, acked),
    ];
    for (name, slot) in [
        ("agent.set_up", t.set_up),
        ("agent.warm_up", t.warm_up),
        ("agent.execute", t.execute),
        ("agent.tear_down", t.tear_down),
    ] {
        if let Some((a, b)) = slot {
            spans.push((name, a, b));
        }
    }
    tracer.record_tree(("agent.job", claim_start, acked), &spans, id);
    let base = tracer.stamp(set_up);
    ops.push(|| Op {
        job: Some(job),
        ..Op::new(OpKind::Claim, base, Some(ms(claim_start, set_up)))
    });
    let beats = 1 + (torn_down - set_up).as_nanos() / beat.as_nanos().max(1);
    for b in 0..beats as u64 {
        ops.push(|| Op { job: Some(job), ..Op::new(OpKind::Heartbeat, base + 1 + b, None) });
    }
    ops.push(|| Op { job: Some(job), ..Op::new(OpKind::Log, tracer.stamp(deliver_start), None) });
    ops.push(|| Op {
        job: Some(job),
        upload: Some((t.data.clone().unwrap_or_default(), t.archive.clone().unwrap_or_default())),
        ..Op::new(OpKind::Upload, tracer.stamp(acked), Some(ms(deliver_start, acked)))
    });
}

// ----- replicated -----------------------------------------------------------

/// Node ids and lease of the replicated workload (those of the cluster
/// experiment, whose election jitter is known to converge quickly).
const NODE_IDS: [&str; 3] = ["ctl-b", "ctl-i", "cp-d"];
const LEASE: Duration = Duration::from_millis(600);
/// How long the followers may take, once the load stops, to hold every
/// acknowledged upload.
const CATCH_UP: Duration = Duration::from_secs(60);

struct Cluster {
    dir: WorkDir,
    nodes: Vec<ChronosServer>,
    leader: usize,
    world: World,
}

fn cluster_setup(out: &mut Outcome) -> Option<Cluster> {
    let start = Instant::now();
    let dir = WorkDir::new("replicated");
    let nodes: Vec<ChronosServer> = NODE_IDS
        .iter()
        .map(|id| {
            let control = Arc::new(world::durable_control(&dir.store_path(id)));
            ChronosServer::start_cluster(
                control,
                "127.0.0.1:0",
                Server::new(),
                ClusterOptions::new(*id).with_lease(LEASE),
            )
            .expect("start cluster node")
        })
        .collect();
    let urls: Vec<String> = nodes.iter().map(ChronosServer::base_url).collect();
    for (i, node) in nodes.iter().enumerate() {
        node.set_cluster_peers(
            urls.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, u)| u.clone()).collect(),
        );
    }
    let deadline = start + Duration::from_secs(15);
    let leader = loop {
        if let Some(i) = nodes.iter().position(|n| n.cluster().is_some_and(|c| c.is_leader())) {
            break i;
        }
        if Instant::now() > deadline {
            out.errors.push("no leader elected within 15 s".into());
            return None;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    out.repetition("election_s", start.elapsed().as_secs_f64());
    let world = world::replicated(nodes[leader].control());
    let cluster = Cluster { dir, nodes, leader, world };
    if !wait_replicated(&cluster, Duration::from_secs(10)) {
        out.errors.push("followers never caught up after set-up".into());
        return None;
    }
    Some(cluster)
}

fn wait_replicated(cluster: &Cluster, within: Duration) -> bool {
    let target = cluster.nodes[cluster.leader].control().replication_offset();
    let deadline = Instant::now() + within;
    while cluster.nodes.iter().any(|n| n.control().replication_offset() < target) {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

/// A 3-node cluster; one protocol agent streams null evaluations against
/// the leader while an observer times each acknowledged upload until a
/// majority (leader plus one follower) holds it.
pub fn replicated(ctx: &Ctx, tracer: &Tracer, ops: &OpLog, out: &mut Outcome) -> Phase {
    let cluster = loop {
        let start = Instant::now();
        let Some(cluster) = cluster_setup(out) else {
            return Phase::default();
        };
        if repeated(out, "setup_s", start.elapsed().as_secs_f64()) {
            break cluster;
        }
    };
    let leader = cluster.nodes[cluster.leader].control().clone();
    let followers: Vec<Arc<ChronosControl>> = cluster
        .nodes
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != cluster.leader)
        .map(|(_, n)| n.control().clone())
        .collect();
    let url = cluster.nodes[cluster.leader].base_url();
    let segments_before = cluster.nodes[cluster.leader].metrics().segments_shipped.get();
    let (offset, http) =
        (leader.replication_offset(), HttpCounters::read(&cluster.nodes[cluster.leader]));

    let mut phase = Phase::default();
    let pending: Mutex<VecDeque<(Instant, u64, Option<f64>)>> = Mutex::new(VecDeque::new());
    let lags: Mutex<Vec<(f64, f64)>> = Mutex::new(Vec::new());
    let stop = AtomicBool::new(false);
    let evaluations = Mutex::new(vec![cluster.world.evaluation]);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let (runs, measured_s, catchup_s) = std::thread::scope(|scope| {
        // The observer reads follower offsets in-process; it sends no load.
        // After the load stops it waits up to `CATCH_UP` for every
        // acknowledged upload to reach every follower.
        let observer = scope.spawn(|| {
            let mut stopped_at = None;
            loop {
                let offsets: Vec<u64> = followers.iter().map(|f| f.replication_offset()).collect();
                let now = Instant::now();
                let (max, min) = (
                    offsets.iter().max().copied().unwrap_or(0),
                    offsets.iter().min().copied().unwrap_or(0),
                );
                let mut queue = pending.lock().expect(POISONED);
                for entry in queue.iter_mut() {
                    if entry.2.is_none() && max >= entry.1 {
                        entry.2 = Some(ms(entry.0, now));
                    }
                }
                while queue.front().is_some_and(|e| e.2.is_some() && min >= e.1) {
                    let (acked, _, majority) = queue.pop_front().expect("front");
                    lags.lock().expect(POISONED).push((majority.unwrap_or(0.0), ms(acked, now)));
                }
                let empty = queue.is_empty();
                drop(queue);
                if stop.load(Ordering::SeqCst) {
                    let since = *stopped_at.get_or_insert(now);
                    if empty || now - since > CATCH_UP {
                        return (now - since).as_secs_f64();
                    }
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        });
        let drive = Drive {
            url: &url,
            deployment: cluster.world.deployment,
            agents: 1,
            seed: ctx.seed,
            deadline: Some(deadline),
            tracer,
            ops,
            probe: ctx.traced,
        };
        let refill = || new_evaluation(&leader, &cluster.world, &evaluations, tracer, ops);
        let on_ack = |sample: &JobSample| {
            if let Some(acked) = sample.acked {
                pending.lock().expect(POISONED).push_back((
                    acked,
                    leader.replication_offset(),
                    None,
                ));
            }
        };
        let runs = drive_protocol_agents(&drive, &refill, &on_ack);
        let measured_s = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        (runs, measured_s, observer.join().expect("observer"))
    });
    phase.measured_s = measured_s;
    phase.wal_bytes = leader.replication_offset() - offset;
    phase.http.add_delta(http, HttpCounters::read(&cluster.nodes[cluster.leader]));
    phase.extra.set("cluster.catchup_s", catchup_s, "s");
    absorb(&mut phase, out, runs);
    phase.ops = ops.take_sorted();

    let lags = lags.into_inner().expect(POISONED);
    let unsettled = pending.into_inner().expect(POISONED).len();
    out.check(unsettled == 0, || {
        format!(
            "{unsettled} acknowledged uploads missing on a follower {CATCH_UP:?} after the load"
        )
    });
    let majority: Vec<f64> = lags.iter().map(|l| l.0).collect();
    let all: Vec<f64> = lags.iter().map(|l| l.1).collect();
    let jobs = phase.jobs.len().max(1) as f64;
    phase.extra.opt("replication_lag_ms_p50", crate::stats::median(&majority), "ms");
    phase.extra.opt(
        "replication_lag_ms_p99",
        crate::stats::reported_percentile(&majority, 0.99),
        "ms",
    );
    phase.extra.opt("cluster.majority_lag_ms_p50", crate::stats::median(&majority), "ms");
    phase.extra.opt("cluster.follower_lag_ms_p50", crate::stats::median(&all), "ms");
    let segments = cluster.nodes[cluster.leader].metrics().segments_shipped.get() - segments_before;
    phase.extra.set("cluster.segments_per_job", segments as f64 / jobs, "count");
    phase.extra.opt(
        "cluster.election_s",
        out.repetitions.get("election_s").and_then(|v| crate::stats::median(v)),
        "s",
    );

    let finished: usize = evaluations
        .lock()
        .expect(POISONED)
        .clone()
        .into_iter()
        .map(|e| check_evaluation(out, &leader, e))
        .sum();
    out.check(finished == phase.jobs.len(), || {
        format!("leader finished {finished} jobs, the agent completed {}", phase.jobs.len())
    });
    out.check(wait_replicated(&cluster, Duration::from_secs(10)), || {
        "followers diverged from the leader".into()
    });

    let path = cluster.dir.store_path(NODE_IDS[cluster.leader]);
    let evaluation = cluster.world.evaluation;
    drop(leader);
    drop(followers);
    let Cluster { dir, nodes, .. } = cluster;
    record_memory(&mut phase, move || drop(nodes));
    recoveries(out, &path, evaluation);
    drop(dir);
    phase
}
