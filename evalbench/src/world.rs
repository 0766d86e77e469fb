//! The state each workload starts from, built through `ChronosControl`'s
//! public API. The live run and the traced replay build it the same way.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chronos_core::auth::Role;
use chronos_core::params::{ParamAssignments, ParamDef, ParamType};
use chronos_core::scheduler::SchedulerConfig;
use chronos_core::store::MetadataStore;
use chronos_core::ChronosControl;
use chronos_json::Value;
use chronos_util::{Id, SystemClock};

use crate::gen::{self, DemoSweep, Rng};

pub const USER: &str = "bench";
pub const PASSWORD: &str = "bench-pw";

/// Planned points of one ledger evaluation. At 1,000 points a round's
/// throughput moved three times as much with the host's speed as at 250
/// (its growing documents outgrow the per-core cache), too much for the
/// run-to-run bound; the last tenth of claims still sees ten times the
/// history of the first.
pub const LEDGER_JOBS: i64 = 250;
/// Planned points of each null evaluation the replicated workload streams
/// (a fresh one is created when one runs out), so its WAL bytes per job
/// average over whole evaluations.
pub const STREAM_JOBS: i64 = 250;
/// Finished evaluations of the demo system seeded before a dashboard run.
pub const DASHBOARD_HISTORY_EVALUATIONS: usize = 8;

const DEMO_SYSTEM: &str = include_str!("../../examples/minidoc_system.json");

/// A directory under the benchmark's output root, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(label: &str) -> WorkDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::SeqCst);
        let dir = crate::out_dir().join(format!("tmp-{}-{label}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create work dir");
        WorkDir(dir)
    }

    pub fn store_path(&self, name: &str) -> PathBuf {
        self.0.join(format!("{name}.log"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A control plane over a durable store at `path` with the default
/// scheduler settings.
pub fn durable_control(path: &Path) -> ChronosControl {
    let store = MetadataStore::open(path).expect("open durable store");
    ChronosControl::new(store, Arc::new(SystemClock), SchedulerConfig::default())
}

/// Ids every workload's world shares.
#[derive(Debug, Clone, Copy)]
pub struct World {
    pub deployment: Id,
    /// The experiment whose evaluation the load drives.
    pub experiment: Id,
    /// The evaluation the load starts on.
    pub evaluation: Id,
    /// Dashboard only: the experiment holding the finished history.
    pub history_experiment: Option<Id>,
}

fn accounts(control: &ChronosControl) -> Id {
    control.create_user(USER, PASSWORD, Role::Admin).expect("create bench user").id
}

/// One null system with a single interval parameter of `points` values.
fn null_world(control: &ChronosControl, points: i64) -> World {
    let owner = accounts(control);
    let system = control
        .register_system(
            "null",
            "no system under evaluation",
            vec![ParamDef::new(
                "point",
                "",
                ParamType::Interval { min: 1, max: points, step: 1 },
                Value::from(1),
            )
            .expect("param def")],
            vec![],
        )
        .expect("register null system");
    let deployment = control.create_deployment(system.id, "bench", "1").expect("deployment");
    let project = control.create_project("evalbench", "", owner).expect("project");
    let experiment = control
        .create_experiment(
            project.id,
            system.id,
            "null",
            "",
            ParamAssignments::new().sweep_all("point"),
        )
        .expect("experiment");
    let evaluation = control.create_evaluation(experiment.id).expect("evaluation");
    World {
        deployment: deployment.id,
        experiment: experiment.id,
        evaluation: evaluation.id,
        history_experiment: None,
    }
}

/// `ledger`: one lazy evaluation of [`LEDGER_JOBS`] null jobs.
pub fn ledger(control: &ChronosControl) -> World {
    null_world(control, LEDGER_JOBS)
}

/// `replicated`: a null evaluation streamed by one agent.
pub fn replicated(control: &ChronosControl) -> World {
    null_world(control, STREAM_JOBS)
}

/// The demo system (`examples/minidoc_system.json`), plus a fixed `seed`
/// parameter feeding minidoc's generators.
fn demo_system(control: &ChronosControl, data_seed: i64) -> Id {
    let mut definition = chronos_json::parse(DEMO_SYSTEM).expect("demo system json");
    if let Some(params) = definition
        .as_object_mut()
        .and_then(|m| m.get_mut("parameters"))
        .and_then(Value::as_array_mut)
    {
        params.push(chronos_json::obj! {
            "name" => "seed", "description" => "workload generator seed",
            "type" => "value", "default" => data_seed,
        });
    }
    control.register_system_from_definition(&definition).expect("register demo system").id
}

fn demo_sweep_assignments(sweep: &DemoSweep) -> ParamAssignments {
    ParamAssignments::new()
        .sweep_all("engine")
        .sweep("threads", sweep.threads.iter().map(|&t| Value::from(t)).collect())
        .sweep("workload", sweep.mixes.iter().map(|&m| Value::from(m)).collect())
        .fix("record_count", sweep.record_count)
        .fix("operation_count", sweep.operation_count)
        .fix("seed", sweep.data_seed)
}

/// `demo-sweep`: the engine comparison, run by a real agent.
pub fn demo_sweep(control: &ChronosControl, seed: u64) -> World {
    let sweep = DemoSweep::generate(seed);
    let owner = accounts(control);
    let system = demo_system(control, sweep.data_seed);
    let deployment = control.create_deployment(system, "localhost", "0.1.0").expect("deployment");
    let project = control.create_project("evalbench demo", "", owner).expect("project");
    let experiment = control
        .create_experiment(project.id, system, "engines", "", demo_sweep_assignments(&sweep))
        .expect("experiment");
    let evaluation = control.create_evaluation(experiment.id).expect("evaluation");
    World {
        deployment: deployment.id,
        experiment: experiment.id,
        evaluation: evaluation.id,
        history_experiment: None,
    }
}

/// The dashboard history's engine sweep (48 points per evaluation).
fn history_assignments() -> ParamAssignments {
    ParamAssignments::new()
        .sweep_all("engine")
        .sweep("threads", [1, 2, 4, 8].into_iter().map(Value::from).collect())
        .sweep_all("workload")
}

/// The live evaluations' sweep: the history's 48 points, so a run streams
/// dozens of whole evaluations and its WAL bytes per job do not depend on
/// how far into one evaluation the run stops.
fn live_assignments() -> ParamAssignments {
    history_assignments()
}

/// `dashboard`: [`DASHBOARD_HISTORY_EVALUATIONS`] finished evaluations of
/// the demo system with seeded YCSB-shaped results, plus a second
/// experiment whose evaluation a live agent streams. Returns the world and
/// the finished evaluations.
pub fn dashboard(control: &ChronosControl, seed: u64) -> (World, Vec<Id>) {
    let owner = accounts(control);
    let system = demo_system(control, 0);
    let deployment = control.create_deployment(system, "localhost", "0.1.0").expect("deployment");
    let project = control.create_project("evalbench dashboard", "", owner).expect("project");
    let history = control
        .create_experiment(project.id, system, "history", "", history_assignments())
        .expect("history experiment");
    let mut rng = Rng::stream(seed, 4);
    let mut finished = Vec::new();
    for _ in 0..DASHBOARD_HISTORY_EVALUATIONS {
        let evaluation = control.create_evaluation(history.id).expect("evaluation");
        while let Some(job) = control.claim_next_job(deployment.id, None).expect("claim") {
            let data = gen::ycsb_result(&mut rng, &job.parameters);
            control
                .finish_job(job.id, data, Vec::new(), Some(job.attempts), None)
                .expect("finish seeded job");
        }
        finished.push(evaluation.id);
    }
    let live = control
        .create_experiment(project.id, system, "live", "", live_assignments())
        .expect("live experiment");
    let evaluation = control.create_evaluation(live.id).expect("live evaluation");
    let world = World {
        deployment: deployment.id,
        experiment: live.id,
        evaluation: evaluation.id,
        history_experiment: Some(history.id),
    };
    (world, finished)
}
