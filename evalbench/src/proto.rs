//! A protocol-level agent: `ControlClient` calls in `ChronosAgent`'s order
//! (claim, heartbeat, log, then the result upload with a zip built the way
//! the runtime builds it), with a null evaluation client in place of an
//! SuE. Also the op log the traced replay consumes.

use std::sync::Mutex;
use std::time::Instant;

use chronos_agent::{AgentError, ControlClient};
use chronos_json::Value;
use chronos_util::Id;
use chronos_zip::ZipWriter;

use crate::gen::{self, ReadClass, Rng};
use crate::trace::Tracer;
use crate::POISONED;

/// What one recorded operation did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpKind {
    Claim,
    Heartbeat,
    Log,
    Upload,
    Read(ReadClass),
    CreateEvaluation,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Claim => "claim",
            OpKind::Heartbeat => "heartbeat",
            OpKind::Log => "log",
            OpKind::Upload => "upload",
            OpKind::Read(_) => "read",
            OpKind::CreateEvaluation => "create_evaluation",
        }
    }
}

/// One operation of the live run, as the replay needs it.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: OpKind,
    /// The live run's job id (claims, heartbeats, logs, uploads).
    pub job: Option<Id>,
    /// Completion time, nanoseconds since the tracer's epoch: the replay
    /// applies operations in completion order.
    pub end_ns: u64,
    /// Agent-side round trip; `None` where the live run cannot observe it.
    pub rtt_ms: Option<f64>,
    pub text: Option<String>,
    pub upload: Option<(Value, Vec<u8>)>,
    /// Reads: the targeted history evaluation and chart.
    pub target: (usize, usize),
}

impl Op {
    pub fn new(kind: OpKind, end_ns: u64, rtt_ms: Option<f64>) -> Op {
        Op { kind, job: None, end_ns, rtt_ms, text: None, upload: None, target: (0, 0) }
    }
}

/// Operations recorded during a traced run (nothing when disabled).
pub struct OpLog {
    enabled: bool,
    ops: Mutex<Vec<Op>>,
}

impl OpLog {
    pub fn new(enabled: bool) -> OpLog {
        OpLog { enabled, ops: Mutex::new(Vec::new()) }
    }

    pub fn push(&self, op: impl FnOnce() -> Op) {
        if self.enabled {
            self.ops.lock().expect(POISONED).push(op());
        }
    }

    /// Every recorded operation in completion order.
    pub fn take_sorted(&self) -> Vec<Op> {
        let mut ops = std::mem::take(&mut *self.ops.lock().expect(POISONED));
        ops.sort_by_key(|op| op.end_ns);
        ops
    }
}

/// Per-job timings of one protocol agent, all in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct JobSample {
    pub claim_ms: f64,
    pub upload_ms: f64,
    /// Time inside the (null) evaluation client.
    pub phase_ms: f64,
    /// From the client's return to the start of the upload (archive build).
    pub post_run_ms: f64,
    pub claim_to_setup_ms: f64,
    /// Claim request to upload ack, minus time inside the client.
    pub overhead_ms: f64,
    /// When the upload was acknowledged.
    pub acked: Option<Instant>,
}

/// The result zip exactly as the agent runtime builds it without
/// attachments: a pretty-printed `result.json`.
pub fn build_archive(data: &Value) -> Vec<u8> {
    let mut zip = ZipWriter::new();
    let _ = zip.add_file("result.json", data.to_pretty_string().as_bytes());
    zip.finish()
}

pub struct ProtocolAgent<'a> {
    pub client: ControlClient,
    pub deployment: Id,
    pub rng: Rng,
    pub tracer: &'a Tracer,
    pub ops: &'a OpLog,
}

impl ProtocolAgent<'_> {
    /// Claims and completes one job; `Ok(None)` when nothing is claimable.
    pub fn run_job(&mut self) -> Result<Option<JobSample>, AgentError> {
        let tracer = self.tracer;
        let start = Instant::now();
        let claim = self.client.claim(self.deployment);
        let claimed = Instant::now();
        let Some(job) = claim? else {
            return Ok(None);
        };
        let id = job.id.as_u128() as u64;
        let mut spans = vec![("http.claim", start, claimed)];
        let claim_ms = ms(start, claimed);
        self.ops.push(|| Op {
            job: Some(job.id),
            ..Op::new(OpKind::Claim, tracer.stamp(claimed), Some(claim_ms))
        });

        let heartbeat = self.client.heartbeat(job.id, 0, job.attempts);
        let beat = Instant::now();
        heartbeat?;
        spans.push(("http.heartbeat", claimed, beat));
        self.ops.push(|| Op {
            job: Some(job.id),
            ..Op::new(OpKind::Heartbeat, tracer.stamp(beat), Some(ms(claimed, beat)))
        });

        let text = gen::agent_log(&mut self.rng, "null", &job.parameters);
        let logged = self.client.append_log(job.id, &text);
        let log_end = Instant::now();
        logged?;
        spans.push(("http.log", beat, log_end));
        self.ops.push(|| Op {
            job: Some(job.id),
            text: Some(text.clone()),
            ..Op::new(OpKind::Log, tracer.stamp(log_end), Some(ms(beat, log_end)))
        });

        // The null client: its whole run is producing the result document.
        let data = gen::ycsb_result(&mut self.rng, &job.parameters);
        let phase_end = Instant::now();
        spans.push(("agent.phase", log_end, phase_end));
        let archive = build_archive(&data);
        let upload_start = Instant::now();
        spans.push(("agent.post_run", phase_end, upload_start));
        let uploaded = self.client.upload_result(job.id, job.attempts, &data, &archive);
        let acked = Instant::now();
        uploaded?;
        spans.push(("http.upload", upload_start, acked));
        let upload_ms = ms(upload_start, acked);
        self.ops.push(|| Op {
            job: Some(job.id),
            upload: Some((data, archive)),
            ..Op::new(OpKind::Upload, tracer.stamp(acked), Some(upload_ms))
        });
        tracer.record_tree(("agent.job", start, acked), &spans, id);

        let phase_ms = ms(log_end, phase_end);
        Ok(Some(JobSample {
            claim_ms,
            upload_ms,
            phase_ms,
            post_run_ms: ms(phase_end, upload_start),
            claim_to_setup_ms: claim_ms,
            overhead_ms: ms(start, acked) - phase_ms,
            acked: Some(acked),
        }))
    }
}

pub fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}
