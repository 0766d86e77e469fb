//! Timing wrappers around the real agent runtime's two seams: the
//! `EvaluationClient` it drives and the `ResultSink` it delivers through.
//! They see the runtime from outside; nothing in the runtime changes.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::POISONED;
use chronos_agent::{AgentError, ControlClient, EvaluationClient, JobContext, ResultSink};
use chronos_json::Value;
use chronos_util::Id;

/// What the wrappers saw of one job.
#[derive(Debug, Clone, Default)]
pub struct JobTimes {
    pub job: Option<Id>,
    pub set_up: Option<(Instant, Instant)>,
    pub warm_up: Option<(Instant, Instant)>,
    pub execute: Option<(Instant, Instant)>,
    pub tear_down: Option<(Instant, Instant)>,
    pub deliver: Option<(Instant, Instant)>,
    pub data: Option<Value>,
    pub archive: Option<Vec<u8>>,
}

impl JobTimes {
    /// Time inside the evaluation client, milliseconds.
    pub fn client_ms(&self) -> f64 {
        [self.set_up, self.warm_up, self.execute, self.tear_down]
            .iter()
            .flatten()
            .map(|(a, b)| crate::proto::ms(*a, *b))
            .sum()
    }
}

pub type Shared = Arc<Mutex<JobTimes>>;

/// Times each lifecycle call of the wrapped client.
pub struct TimingClient<C> {
    pub inner: C,
    pub times: Shared,
}

impl<C> TimingClient<C> {
    fn timed<T>(
        &mut self,
        slot: fn(&mut JobTimes) -> &mut Option<(Instant, Instant)>,
        f: impl FnOnce(&mut C) -> T,
    ) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let end = Instant::now();
        *slot(&mut self.times.lock().expect(POISONED)) = Some((start, end));
        out
    }
}

impl<C: EvaluationClient> EvaluationClient for TimingClient<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn set_up(&mut self, ctx: &JobContext) -> Result<(), String> {
        *self.times.lock().expect(POISONED) =
            JobTimes { job: Some(ctx.job_id), ..JobTimes::default() };
        self.timed(|t| &mut t.set_up, |c| c.set_up(ctx))
    }

    fn warm_up(&mut self, ctx: &JobContext) -> Result<(), String> {
        self.timed(|t| &mut t.warm_up, |c| c.warm_up(ctx))
    }

    fn execute(&mut self, ctx: &JobContext) -> Result<Value, String> {
        self.timed(|t| &mut t.execute, |c| c.execute(ctx))
    }

    fn tear_down(&mut self, ctx: &JobContext) {
        self.timed(|t| &mut t.tear_down, |c| c.tear_down(ctx))
    }
}

/// Times delivery through the wrapped sink and keeps what was delivered.
pub struct TimingSink<S> {
    pub inner: S,
    pub times: Shared,
}

impl<S: ResultSink> ResultSink for TimingSink<S> {
    fn deliver(
        &self,
        client: &ControlClient,
        job: Id,
        attempt: u32,
        data: &Value,
        archive: &[u8],
    ) -> Result<Id, AgentError> {
        let start = Instant::now();
        let out = self.inner.deliver(client, job, attempt, data, archive);
        let end = Instant::now();
        let mut times = self.times.lock().expect(POISONED);
        times.deliver = Some((start, end));
        times.data = Some(data.clone());
        times.archive = Some(archive.to_vec());
        out
    }
}
