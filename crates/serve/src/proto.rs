//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request. Every response
//! carries `"protocol_version"` ([`PROTOCOL_VERSION`]) and `"ok"`:
//! `true` with the payload, or `false` with a human-readable `"error"`
//! message *and* a stable machine-readable `"code"` (see
//! [`ProtoError::code`] — messages may be reworded between releases,
//! codes may not).
//!
//! | `cmd` | fields | response payload |
//! |-------|--------|------------------|
//! | `submit` | `workload` (required), `input`, `budget`, `warmup`, `scope`, `max_slice_len`, `max_pthread_len`, `optimize`, `merge`, `width`, `mem_latency`, `model_miss_latency`, `model_width`, plus a nested `policy` object (`deadline_ms`) | `job` id |
//! | `submit_batch` | `jobs`: a non-empty array of submit objects | `jobs`: array of ids, in order |
//! | `status` | `job` | `state` (+ `error` when failed) |
//! | `result` | `job` | `state`, `cache_hit`, `result{...}` |
//! | `cancel` | `job` | `state` after the attempt (+ `cancelling: true` when the job is mid-run and will stop at its next stage boundary) |
//! | `stats` | — | queue/worker/cache/stage-latency report |
//! | `metrics` | — | full metrics registry: `counters`, `gauges`, `histograms`, `events`, plus a Prometheus-style `prometheus` text rendering |
//! | `shutdown` | — | `shutting_down: true` with the `queued`/`running` counts the drain will finish (journaled, so nothing is silently lost) |
//!
//! Pipelining: any request may carry an `id` field (any JSON value);
//! the response echoes it verbatim, so a client may keep N requests in
//! flight on one connection and match responses explicitly instead of
//! by arrival order (responses do also arrive in request order).
//!
//! Overload: `submit` is a `submit_batch` of one, and a batch is
//! admitted or shed *as a whole* against the job queue's `--queue-cap`
//! (DESIGN.md §14.3) — partial batch admission would force clients to
//! diff which jobs got in. A batch the queue's free slots cannot take
//! now fails fast with code `overloaded` and one `retry_after_ms` hint;
//! a batch with more jobs than the queue holds can never be admitted and
//! fails with code `queue_full` and no hint.
//!
//! Submit fields default to [`PipelineConfig::paper_default`] at the
//! given budget (default 120 000 instructions); `width` and
//! `mem_latency` override the corresponding [`MachineParams`] fields,
//! the `model_*` fields the selection model's cross-validation knobs.
//! A `scope` above [`MAX_SCOPE`] is shed at the door.
//!
//! Every job runs one analysis path: windowed slicing, then serial
//! selection behind the static screen. The nested `policy` object has
//! one key, `deadline_ms`. Keys it does not know are ignored, so every
//! older journal replays: v6's `streaming` and v10's `slice_mode`,
//! `checkpoint_every` and `screening` never changed a result. A
//! top-level `deadline_ms` (protocol v5's flat spelling) is a
//! `bad_field` error naming the `policy` object, since dropping it
//! would run the job without its deadline. The `adaptive` key protocol
//! v7 wrote is accepted and ignored only in its disabled shapes (see
//! [`PROTOCOL_VERSION`]).
//!
//! [`MachineParams`]: preexec_timing::MachineParams

use crate::admission::Overloaded;
use crate::cache::parse_input;
use crate::json::Json;
use crate::scheduler::JobId;
use crate::service::{JobOutput, JobSpec};
use preexec_experiments::pipeline::pct;
use preexec_experiments::{PipelineConfig, PipelineError, PolicySpec};
use preexec_workloads::InputSet;
use std::fmt;

/// Wire-protocol version stamped on every response. Bumped whenever a
/// response's shape changes incompatibly; version 2 introduced the
/// `code` field on errors and this stamp itself; version 3 added the
/// `cancel` verb, `deadline_ms`, the `cancelled` job state, the
/// `overloaded` rejection with `retry_after_ms`, and the drain counts in
/// the `shutdown` response; version 4 added request-`id` echo
/// (pipelining), the `submit_batch` verb, and the `cache_get`/
/// `cache_put` shard-peer verbs; version 5 added the `slice_mode` /
/// `checkpoint_every` submit fields and the `config.scope_too_large`
/// admission rejection for scopes past the per-mode caps; version 6
/// added the nested `policy` submit object (screening, streaming,
/// adaptive selection) beside the flat v5 spellings; version 7 accepts
/// policy fields only inside `policy` (a flat one is `bad_field`) and
/// drops the `streaming` flag; version 8 removes adaptive selection: a
/// `policy.adaptive` that is absent, null, `false`, or an object whose
/// `enabled` is `false` (the shape every v7 journal line carries) is
/// ignored, and any other `adaptive` is `bad_field`; version 9 removes
/// cache sharding: `cache_get` and `cache_put` are `unknown_cmd`, and
/// the `stats` report has no `shard` section; version 10 makes the queue
/// cap the only overload wall: `stats.admission` drops the high-water
/// mark, a batch the queue cannot take now is `overloaded`, and a batch
/// larger than the queue is `queue_full` without `retry_after_ms`;
/// version 11 runs every job on one analysis path: the `policy` object's
/// `slice_mode`, `checkpoint_every` and `screening` keys are ignored like
/// any key it does not know (so are a top-level `slice_mode` and
/// `checkpoint_every`), only a top-level `deadline_ms` is still
/// `bad_field`, one scope cap ([`MAX_SCOPE`]) applies to every job, and
/// the `stats` report drops its screening counters, its selection
/// fan-out speedup and its per-job thread count. Journals carry only
/// submit specs and results, so v8 journals replay unchanged.
pub const PROTOCOL_VERSION: u64 = 11;

/// Largest slicing scope admitted: the sliding window keeps the whole
/// scope resident, so past this the daemon would commit to gigabytes of
/// window for one job.
pub const MAX_SCOPE: u64 = 1 << 24;

/// A protocol-level failure: why a request line could not be parsed or
/// served. [`code`](ProtoError::code) is the stable contract; the
/// [`Display`](fmt::Display) message is advisory.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The line was not valid JSON (carries the parser's message).
    BadJson(String),
    /// `cmd` named no known verb.
    UnknownCmd(String),
    /// A field was missing, null when required, or mistyped.
    BadField {
        /// The offending field name.
        field: &'static str,
        /// What the field must be, e.g. `"a string"`.
        expected: &'static str,
    },
    /// The submitted workload is not in the suite (carries the resolver's
    /// message, which lists the valid names).
    UnknownWorkload(String),
    /// The submitted input-set name is unknown.
    UnknownInput(String),
    /// The submitted configuration failed validation at the door.
    Config(PipelineError),
    /// The daemon is draining and accepts no new work.
    ShuttingDown,
    /// The job queue cannot take the submission now; carries the retry
    /// hint.
    Overloaded(Overloaded),
    /// The batch has more jobs than the job queue holds, so no wait
    /// would ever admit it.
    BatchTooLarge {
        /// Jobs in the batch.
        jobs: usize,
        /// The job queue's capacity.
        cap: usize,
    },
    /// No job with that id was ever submitted.
    UnknownJob(JobId),
    /// The job exists but has not reached a terminal state.
    NotFinished {
        /// The job being polled.
        job: JobId,
        /// Its current state name.
        state: &'static str,
    },
    /// One job inside a `submit_batch` failed validation; the whole
    /// batch is rejected (all-or-nothing, like admission).
    BatchJob {
        /// Zero-based index of the offending job in the `jobs` array.
        index: usize,
        /// Why that job was rejected.
        inner: Box<ProtoError>,
    },
    /// The submitted slicing scope exceeds the admission cap
    /// [`MAX_SCOPE`]. Rejected at the door: a job with an absurd scope
    /// would eagerly commit the daemon to an unserviceable resident
    /// window.
    ScopeTooLarge {
        /// The requested scope.
        scope: u64,
        /// The cap it exceeded.
        cap: u64,
    },
}

impl ProtoError {
    /// The stable machine-readable code for this error. Pipeline codes
    /// pass through [`PipelineError::code`], so a rejected configuration
    /// reports the same code at submit time as it would have at run time.
    pub fn code(&self) -> &'static str {
        match self {
            ProtoError::BadJson(_) => "bad_json",
            ProtoError::UnknownCmd(_) => "unknown_cmd",
            ProtoError::BadField { .. } => "bad_field",
            ProtoError::UnknownWorkload(_) => "unknown_workload",
            ProtoError::UnknownInput(_) => "unknown_input",
            ProtoError::Config(e) => e.code(),
            ProtoError::ShuttingDown => "shutting_down",
            ProtoError::Overloaded(_) => "overloaded",
            ProtoError::BatchTooLarge { .. } => "queue_full",
            ProtoError::UnknownJob(_) => "unknown_job",
            ProtoError::NotFinished { .. } => "job_not_finished",
            // A batch inherits the offending job's code: a client
            // handling `overloaded` or `config.*` for single submits
            // needs no new branches for batches.
            ProtoError::BatchJob { inner, .. } => inner.code(),
            ProtoError::ScopeTooLarge { .. } => "config.scope_too_large",
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::BadJson(m) | ProtoError::UnknownWorkload(m) => write!(f, "{m}"),
            ProtoError::UnknownCmd(c) => write!(
                f,
                "unknown cmd `{c}` (expected submit, submit_batch, status, result, cancel, \
                 stats, metrics, or shutdown)"
            ),
            ProtoError::BadField { field, expected } => {
                write!(f, "field `{field}` must be {expected}")
            }
            ProtoError::UnknownInput(name) => {
                write!(f, "unknown input `{name}` (train, test, or alt)")
            }
            ProtoError::Config(e) => write!(f, "{e}"),
            ProtoError::ShuttingDown => write!(f, "scheduler is shutting down"),
            ProtoError::Overloaded(e) => write!(f, "{e}"),
            ProtoError::BatchTooLarge { jobs, cap } => write!(
                f,
                "batch of {jobs} jobs exceeds the job queue's capacity of {cap}"
            ),
            ProtoError::UnknownJob(id) => write!(f, "unknown job {id}"),
            ProtoError::NotFinished { job, state } => {
                write!(f, "job {job} is {state} — poll `status` until it finishes")
            }
            ProtoError::BatchJob { index, inner } => {
                write!(f, "batch job #{index}: {inner}")
            }
            ProtoError::ScopeTooLarge { scope, cap } => {
                write!(f, "scope {scope} exceeds the admission cap {cap}")
            }
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Config(e) => Some(e),
            ProtoError::Overloaded(e) => Some(e),
            ProtoError::BatchJob { inner, .. } => Some(inner.as_ref()),
            _ => None,
        }
    }
}

impl From<PipelineError> for ProtoError {
    fn from(e: PipelineError) -> ProtoError {
        ProtoError::Config(e)
    }
}

/// A parsed request.
#[derive(Clone)]
pub enum Request {
    /// Enqueue jobs atomically: all admitted (ids in order) or none (one
    /// typed error for the lot). `submit` is a batch of one.
    Submit {
        /// The jobs, in submission order.
        jobs: Vec<JobSpec>,
        /// Whether the verb was `submit_batch` (answered with `jobs`)
        /// rather than `submit` (answered with `job`).
        batch: bool,
    },
    /// Report a job's state.
    Status(JobId),
    /// Report a finished job's result.
    Result(JobId),
    /// Cancel a queued or running job.
    Cancel(JobId),
    /// Report service-wide statistics.
    Stats,
    /// Report the full metrics registry (JSON + Prometheus text).
    Metrics,
    /// Drain and exit.
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a typed [`ProtoError`] for malformed JSON, unknown commands,
/// missing/mistyped fields, unknown workloads, or an invalid pipeline
/// configuration (validated *before* the job is queued).
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let json = Json::parse(line).map_err(|e| ProtoError::BadJson(e.to_string()))?;
    parse_request_json(&json)
}

/// Parses an already-decoded request object. The server's dispatch path
/// uses this so the line is decoded exactly once (the `id` echo needs
/// the raw object too).
pub fn parse_request_json(json: &Json) -> Result<Request, ProtoError> {
    let cmd = json
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or(ProtoError::BadField {
            field: "cmd",
            expected: "a string",
        })?;
    match cmd {
        "submit" => Ok(Request::Submit {
            jobs: vec![parse_submit(json)?],
            batch: false,
        }),
        "submit_batch" => Ok(Request::Submit {
            jobs: parse_submit_batch(json)?,
            batch: true,
        }),
        "status" => job_id(json).map(Request::Status),
        "result" => job_id(json).map(Request::Result),
        "cancel" => job_id(json).map(Request::Cancel),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtoError::UnknownCmd(other.to_string())),
    }
}

/// The request's `id` field, echoed verbatim in the response (the
/// pipelining correlation handle). Absent or null means no echo.
pub fn request_id(json: &Json) -> Option<Json> {
    match json.get("id") {
        None | Some(Json::Null) => None,
        Some(v) => Some(v.clone()),
    }
}

/// Appends the echoed request `id` to a response object (no-op without
/// an id; non-object responses never occur).
pub fn with_request_id(mut resp: Json, id: Option<Json>) -> Json {
    if let (Json::Obj(fields), Some(id)) = (&mut resp, id) {
        fields.push(("id".to_string(), id));
    }
    resp
}

fn parse_submit_batch(json: &Json) -> Result<Vec<JobSpec>, ProtoError> {
    let jobs = json
        .get("jobs")
        .and_then(Json::as_arr)
        .ok_or(ProtoError::BadField {
            field: "jobs",
            expected: "an array of submit objects",
        })?;
    if jobs.is_empty() {
        return Err(ProtoError::BadField {
            field: "jobs",
            expected: "a non-empty array of submit objects",
        });
    }
    jobs.iter()
        .enumerate()
        .map(|(index, job)| {
            parse_submit(job).map_err(|e| ProtoError::BatchJob {
                index,
                inner: Box::new(e),
            })
        })
        .collect()
}

fn job_id(json: &Json) -> Result<JobId, ProtoError> {
    json.get("job")
        .and_then(Json::as_u64)
        .ok_or(ProtoError::BadField {
            field: "job",
            expected: "a non-negative integer",
        })
}

fn opt_u64(json: &Json, key: &'static str) -> Result<Option<u64>, ProtoError> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or(ProtoError::BadField {
            field: key,
            expected: "a non-negative integer",
        }),
    }
}

fn opt_f64(json: &Json, key: &'static str) -> Result<Option<f64>, ProtoError> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_f64().map(Some).ok_or(ProtoError::BadField {
            field: key,
            expected: "a number",
        }),
    }
}

fn opt_bool(json: &Json, key: &'static str) -> Result<Option<bool>, ProtoError> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_bool().map(Some).ok_or(ProtoError::BadField {
            field: key,
            expected: "a boolean",
        }),
    }
}

/// Parses the fields of a `submit` object into a [`JobSpec`]. Also the
/// journal-replay entry point: [`spec_json`] emits exactly this shape,
/// so a recovered daemon re-parses journaled submissions through the
/// same validation the original client went through.
pub(crate) fn parse_submit(json: &Json) -> Result<JobSpec, ProtoError> {
    let workload = json
        .get("workload")
        .and_then(Json::as_str)
        .ok_or(ProtoError::BadField {
            field: "workload",
            expected: "a string",
        })?;
    let input = match json.get("input") {
        None | Some(Json::Null) => InputSet::Train,
        Some(v) => {
            let name = v.as_str().ok_or(ProtoError::BadField {
                field: "input",
                expected: "a string",
            })?;
            parse_input(name).ok_or_else(|| ProtoError::UnknownInput(name.to_string()))?
        }
    };
    let budget = opt_u64(json, "budget")?.unwrap_or(120_000);
    let mut cfg = PipelineConfig::paper_default(budget);
    if let Some(x) = opt_u64(json, "warmup")? {
        cfg.warmup = x;
    }
    if let Some(x) = opt_u64(json, "scope")? {
        cfg.scope = x as usize;
    }
    if let Some(x) = opt_u64(json, "max_slice_len")? {
        cfg.max_slice_len = x as usize;
    }
    if let Some(x) = opt_u64(json, "max_pthread_len")? {
        cfg.max_pthread_len = x as usize;
    }
    if let Some(x) = opt_bool(json, "optimize")? {
        cfg.optimize = x;
    }
    if let Some(x) = opt_bool(json, "merge")? {
        cfg.merge = x;
    }
    if let Some(x) = opt_u64(json, "width")? {
        cfg.machine.width = u32::try_from(x).map_err(|_| ProtoError::BadField {
            field: "width",
            expected: "a 32-bit integer",
        })?;
    }
    if let Some(x) = opt_u64(json, "mem_latency")? {
        cfg.machine.mem_latency = x;
    }
    if let Some(x) = opt_f64(json, "model_miss_latency")? {
        cfg.model_miss_latency = Some(x);
    }
    if let Some(x) = opt_f64(json, "model_width")? {
        cfg.model_width = Some(x);
    }
    // Reject bad configurations at the door: a queued job that can only
    // fail wastes a worker slot and hides the mistake from the client.
    cfg.try_validate().map_err(ProtoError::Config)?;

    let policy = parse_policy(json, cfg)?;
    let scope = cfg.scope as u64;
    if scope > MAX_SCOPE {
        return Err(ProtoError::ScopeTooLarge {
            scope,
            cap: MAX_SCOPE,
        });
    }
    let mut spec = JobSpec::new(workload, input, cfg).map_err(ProtoError::UnknownWorkload)?;
    spec.policy = policy;
    Ok(spec)
}

/// Parses the nested `policy` submit object over the defaults for `cfg`
/// (absent or null means all defaults). It reads `deadline_ms`, checks
/// the legacy `adaptive` key, and ignores every other key.
fn parse_policy(json: &Json, cfg: PipelineConfig) -> Result<PolicySpec, ProtoError> {
    if json.get("deadline_ms").is_some() {
        return Err(ProtoError::BadField {
            field: "deadline_ms",
            expected: "inside the `policy` object",
        });
    }
    let mut policy = PolicySpec {
        cfg,
        ..PolicySpec::default()
    };
    match json.get("policy") {
        None | Some(Json::Null) => {}
        Some(obj @ Json::Obj(_)) => {
            check_legacy_adaptive(obj)?;
            policy.deadline_ms = opt_u64(obj, "deadline_ms")?;
        }
        Some(_) => {
            return Err(ProtoError::BadField {
                field: "policy",
                expected: "an object",
            })
        }
    }
    Ok(policy)
}

/// Checks the `adaptive` key of a `policy` object, which protocol v7
/// wrote into every journal line and `toolflow --daemon` submit. The
/// disabled shapes (absent, null, `false`, or an object whose `enabled`
/// is `false`, whatever its other keys) are ignored. Anything else asked
/// for adaptive selection, which protocol v8 removed; since that changed
/// results, it is a `bad_field` error, never a silent static run.
fn check_legacy_adaptive(obj: &Json) -> Result<(), ProtoError> {
    let disabled = match obj.get("adaptive") {
        None | Some(Json::Null | Json::Bool(false)) => true,
        Some(v @ Json::Obj(_)) => matches!(v.get("enabled"), Some(Json::Bool(false))),
        Some(_) => false,
    };
    if disabled {
        Ok(())
    } else {
        Err(ProtoError::BadField {
            field: "adaptive",
            expected: "absent, false, or {\"enabled\":false}: adaptive selection was \
                       removed in protocol v8",
        })
    }
}

/// Serializes a [`JobSpec`] back into the submit-object shape
/// `parse_submit` accepts, every field explicit — the durable
/// journal's `spec` payload. Round-trip exactness is what lets a
/// restarted daemon re-run the job byte-identically. The policy's
/// slicing mode is not written: the wire never sets it, and every mode
/// yields the same result.
pub fn spec_json(spec: &JobSpec) -> Json {
    let cfg = &spec.policy.cfg;
    let mut fields = vec![
        ("workload", Json::str(spec.workload_name.clone())),
        ("input", Json::str(crate::cache::input_name(spec.input))),
        ("budget", Json::num_u64(cfg.budget)),
        ("warmup", Json::num_u64(cfg.warmup)),
        ("scope", Json::num_u64(cfg.scope as u64)),
        ("max_slice_len", Json::num_u64(cfg.max_slice_len as u64)),
        ("max_pthread_len", Json::num_u64(cfg.max_pthread_len as u64)),
        ("optimize", Json::Bool(cfg.optimize)),
        ("merge", Json::Bool(cfg.merge)),
        ("width", Json::num_u64(u64::from(cfg.machine.width))),
        ("mem_latency", Json::num_u64(cfg.machine.mem_latency)),
    ];
    if let Some(x) = cfg.model_miss_latency {
        fields.push(("model_miss_latency", Json::Num(x)));
    }
    if let Some(x) = cfg.model_width {
        fields.push(("model_width", Json::Num(x)));
    }
    let policy = match spec.policy.deadline_ms {
        Some(ms) => vec![("deadline_ms", Json::num_u64(ms))],
        None => Vec::new(),
    };
    fields.push(("policy", Json::obj(policy)));
    Json::obj(fields)
}

/// `{"ok": false, "protocol_version": V, "error": message, "code": code}`.
/// An `overloaded` rejection additionally carries the machine-readable
/// `retry_after_ms` hint so clients need not parse the message.
pub fn error_response(err: &ProtoError) -> Json {
    let mut fields = vec![
        ("ok", Json::Bool(false)),
        ("protocol_version", Json::num_u64(PROTOCOL_VERSION)),
        ("error", Json::str(err.to_string())),
        ("code", Json::str(err.code())),
    ];
    if let ProtoError::Overloaded(o) = err {
        fields.push(("retry_after_ms", Json::num_u64(o.retry_after_ms)));
    }
    Json::obj(fields)
}

/// `{"ok": true, "protocol_version": V, ...fields}`.
pub fn ok_response(fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("protocol_version", Json::num_u64(PROTOCOL_VERSION)),
    ];
    pairs.extend(fields);
    Json::obj(pairs)
}

/// Serializes one [`SimResult`](preexec_timing::SimResult)'s
/// service-relevant counters.
fn sim_json(r: &preexec_timing::SimResult) -> Json {
    Json::obj(vec![
        ("cycles", Json::num_u64(r.cycles)),
        ("insts", Json::num_u64(r.insts)),
        ("ipc", Json::Num(r.ipc())),
        ("l2_misses", Json::num_u64(r.mem.l2_misses)),
        ("covered_full", Json::num_u64(r.mem.covered_full)),
        ("covered_partial", Json::num_u64(r.mem.covered_partial)),
        ("launches", Json::num_u64(r.launches)),
        ("squashes", Json::num_u64(r.squashes)),
        ("timed_out", Json::Bool(r.timed_out)),
    ])
}

/// The `result` payload for a finished job.
pub fn result_json(out: &JobOutput) -> Json {
    let r = &out.result;
    Json::obj(vec![
        ("workload", Json::str(out.workload.clone())),
        ("input", Json::str(crate::cache::input_name(out.input))),
        ("cache_hit", Json::Bool(out.cache_hit)),
        ("speedup", Json::Num(r.speedup())),
        ("coverage_pct", Json::Num(r.coverage_pct())),
        ("full_coverage_pct", Json::Num(r.full_coverage_pct())),
        (
            "num_pthreads",
            Json::num_u64(r.selection.pthreads.len() as u64),
        ),
        (
            "predicted_coverage_pct",
            Json::Num(pct(
                r.selection.prediction.misses_covered,
                r.stats.l2_misses,
            )),
        ),
        ("base", sim_json(&r.base)),
        ("assisted", sim_json(&r.assisted)),
        (
            "trace",
            Json::obj(vec![
                ("insts", Json::num_u64(r.stats.insts)),
                ("l2_misses", Json::num_u64(r.stats.l2_misses)),
                ("loads", Json::num_u64(r.stats.loads)),
            ]),
        ),
        (
            "stage_us",
            Json::obj(vec![
                ("trace", Json::num_u64(out.stage_us.trace)),
                ("base_sim", Json::num_u64(out.stage_us.base_sim)),
                ("select", Json::num_u64(out.stage_us.select)),
                ("assisted_sim", Json::num_u64(out.stage_us.assisted_sim)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one spec of a `submit` line.
    fn single(line: &str) -> JobSpec {
        match parse_request(line) {
            Ok(Request::Submit {
                mut jobs,
                batch: false,
            }) if jobs.len() == 1 => jobs.remove(0),
            _ => panic!("`{line}` must parse as one submit"),
        }
    }

    #[test]
    fn parses_each_command() {
        assert!(matches!(
            parse_request(r#"{"cmd":"submit","workload":"vpr.r"}"#),
            Ok(Request::Submit { batch: false, .. })
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"status","job":3}"#),
            Ok(Request::Status(3))
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"result","job":9}"#),
            Ok(Request::Result(9))
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"cancel","job":5}"#),
            Ok(Request::Cancel(5))
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"stats"}"#),
            Ok(Request::Stats)
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"metrics"}"#),
            Ok(Request::Metrics)
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"shutdown"}"#),
            Ok(Request::Shutdown)
        ));
    }

    #[test]
    fn submit_applies_defaults_and_overrides() {
        let spec = single(
            r#"{"cmd":"submit","workload":"mcf","input":"test","budget":50000,
                "width":4,"mem_latency":140,"optimize":false,"model_width":6.5}"#,
        );
        assert_eq!(spec.workload_name, "mcf");
        assert_eq!(spec.input, InputSet::Test);
        assert_eq!(spec.policy.cfg.budget, 50_000);
        assert_eq!(
            spec.policy.cfg.warmup, 12_500,
            "warmup defaults to budget/4"
        );
        assert_eq!(spec.policy.cfg.machine.width, 4);
        assert_eq!(spec.policy.cfg.machine.mem_latency, 140);
        assert!(!spec.policy.cfg.optimize);
        assert_eq!(spec.policy.cfg.model_width, Some(6.5));
        // Defaults match the paper configuration; the policy defaults
        // have no deadline.
        assert_eq!(spec.policy.cfg.scope, 1024);
        assert_eq!(spec.policy.cfg.max_pthread_len, 32);
        assert_eq!(spec.policy.deadline_ms, None);
    }

    #[test]
    fn submit_rejects_bad_requests_with_messages_and_codes() {
        for (line, needle, code) in [
            ("not json", "JSON", "bad_json"),
            (r#"{"cmd":"submit"}"#, "workload", "bad_field"),
            (
                r#"{"cmd":"submit","workload":"nope"}"#,
                "unknown workload",
                "unknown_workload",
            ),
            (
                r#"{"cmd":"submit","workload":"mcf","input":"huge"}"#,
                "unknown input",
                "unknown_input",
            ),
            (
                r#"{"cmd":"submit","workload":"mcf","budget":0}"#,
                "budget",
                "config.zero_budget",
            ),
            (
                r#"{"cmd":"submit","workload":"mcf","width":0}"#,
                "width",
                "config.machine",
            ),
            (
                r#"{"cmd":"submit","workload":"mcf","mem_latency":1000000000000}"#,
                "latencies",
                "config.machine",
            ),
            (
                r#"{"cmd":"submit","workload":"mcf","budget":-3}"#,
                "budget",
                "bad_field",
            ),
            (r#"{"cmd":"status"}"#, "job", "bad_field"),
            (r#"{"cmd":"wat"}"#, "unknown cmd", "unknown_cmd"),
            (r#"{}"#, "cmd", "bad_field"),
        ] {
            let Err(e) = parse_request(line) else {
                panic!("`{line}` must be rejected");
            };
            let msg = e.to_string();
            assert!(
                msg.contains(needle),
                "`{line}` → `{msg}` (wanted `{needle}`)"
            );
            assert_eq!(e.code(), code, "`{line}` code");
        }
    }

    #[test]
    fn config_rejection_reuses_the_pipeline_error_code() {
        let Err(e) = parse_request(r#"{"cmd":"submit","workload":"mcf","scope":0}"#) else {
            panic!("zero scope must be rejected");
        };
        assert_eq!(
            e,
            ProtoError::Config(preexec_experiments::PipelineError::ZeroScope)
        );
        assert_eq!(
            e.code(),
            preexec_experiments::PipelineError::ZeroScope.code()
        );
    }

    #[test]
    fn responses_have_the_versioned_ok_envelope() {
        let ok = ok_response(vec![("job", Json::num_u64(4))]);
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(ok.get("job").and_then(Json::as_u64), Some(4));
        assert_eq!(
            ok.get("protocol_version").and_then(Json::as_u64),
            Some(PROTOCOL_VERSION)
        );
        let err = error_response(&ProtoError::UnknownJob(7));
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            err.get("error").and_then(Json::as_str),
            Some("unknown job 7")
        );
        assert_eq!(err.get("code").and_then(Json::as_str), Some("unknown_job"));
        assert_eq!(
            err.get("protocol_version").and_then(Json::as_u64),
            Some(PROTOCOL_VERSION)
        );
    }

    #[test]
    fn submit_errors_map_to_distinct_codes() {
        assert_eq!(
            ProtoError::BatchTooLarge { jobs: 5, cap: 4 }.code(),
            "queue_full"
        );
        assert_eq!(ProtoError::ShuttingDown.code(), "shutting_down");
        assert_eq!(
            ProtoError::NotFinished {
                job: 3,
                state: "running"
            }
            .code(),
            "job_not_finished"
        );
    }

    #[test]
    fn overloaded_rejections_carry_the_retry_hint() {
        let e = ProtoError::Overloaded(Overloaded {
            retry_after_ms: 750,
        });
        assert_eq!(e.code(), "overloaded");
        assert!(e.to_string().contains("750"));
        let resp = error_response(&e);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(resp.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(resp.get("retry_after_ms").and_then(Json::as_u64), Some(750));
        // Other errors stay hint-free, an oversize batch included: no wait
        // would ever admit it, so its message names the sizes and never
        // says "retry".
        assert!(error_response(&ProtoError::UnknownJob(1))
            .get("retry_after_ms")
            .is_none());
        let e = ProtoError::BatchTooLarge { jobs: 3, cap: 2 };
        let resp = error_response(&e);
        assert_eq!(resp.get("code").and_then(Json::as_str), Some("queue_full"));
        assert!(resp.get("retry_after_ms").is_none());
        let msg = e.to_string();
        assert!(msg.contains('3') && msg.contains('2'), "{msg}");
        assert!(!msg.contains("retry"), "{msg}");
    }

    #[test]
    fn submit_batch_parses_all_or_rejects_with_the_offending_index() {
        let Ok(Request::Submit {
            jobs: specs,
            batch: true,
        }) = parse_request(
            r#"{"cmd":"submit_batch","jobs":[
                {"workload":"vpr.r","budget":30000},
                {"workload":"mcf","budget":40000,"input":"test"}]}"#,
        )
        else {
            panic!("healthy batch must parse");
        };
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].workload_name, "vpr.r");
        assert_eq!(specs[1].input, InputSet::Test);

        // One bad job rejects the whole batch, naming the index and
        // keeping the inner error's stable code.
        let Err(e) = parse_request(
            r#"{"cmd":"submit_batch","jobs":[
                {"workload":"vpr.r"},{"workload":"nope"}]}"#,
        ) else {
            panic!("bad batch must be rejected");
        };
        assert_eq!(e.code(), "unknown_workload");
        assert!(e.to_string().contains("batch job #1"), "{e}");

        // Empty and mistyped `jobs` are field errors.
        for line in [
            r#"{"cmd":"submit_batch","jobs":[]}"#,
            r#"{"cmd":"submit_batch"}"#,
            r#"{"cmd":"submit_batch","jobs":3}"#,
        ] {
            let Err(e) = parse_request(line) else {
                panic!("`{line}` must be rejected")
            };
            assert_eq!(e.code(), "bad_field", "`{line}`");
        }
    }

    #[test]
    fn request_ids_echo_verbatim_and_only_when_present() {
        let json = Json::parse(r#"{"cmd":"stats","id":42}"#).expect("parses");
        let resp = with_request_id(ok_response(vec![]), request_id(&json));
        assert_eq!(resp.get("id").and_then(Json::as_u64), Some(42));

        // String ids survive untouched.
        let json = Json::parse(r#"{"cmd":"stats","id":"req-7"}"#).expect("parses");
        let resp = with_request_id(
            error_response(&ProtoError::UnknownJob(1)),
            request_id(&json),
        );
        assert_eq!(resp.get("id").and_then(Json::as_str), Some("req-7"));

        // No id (or a null one) → no echo.
        for line in [r#"{"cmd":"stats"}"#, r#"{"cmd":"stats","id":null}"#] {
            let json = Json::parse(line).expect("parses");
            let resp = with_request_id(ok_response(vec![]), request_id(&json));
            assert!(resp.get("id").is_none(), "{line}");
        }
    }

    /// The canonical spec of a plain submit at `budget`.
    fn fresh(budget: u64) -> JobSpec {
        let json = format!(r#"{{"workload":"mcf","budget":{budget}}}"#);
        parse_submit(&Json::parse(&json).expect("parses")).expect("fresh spec parses")
    }

    #[test]
    fn removed_policy_keys_are_ignored_junk_included() {
        // Protocol v10's `slice_mode`, `checkpoint_every` and `screening`
        // keys never changed a result, so v11 ignores them inside the
        // `policy` object and at the top level, whatever their values.
        let want = fresh(50_000);
        for (extra, policy) in [
            ("", r#"{"slice_mode":"windowed","screening":true}"#),
            (
                "",
                r#"{"slice_mode":"ondemand","checkpoint_every":7,"screening":false}"#,
            ),
            ("", r#"{"slice_mode":"turbo","checkpoint_every":-1}"#),
            ("", r#"{"slice_mode":7,"screening":"junk"}"#),
            ("", r#"{"checkpoint_every":"x","screening":null}"#),
            (r#""slice_mode":"ondemand","#, "null"),
            (r#""checkpoint_every":256,"#, "{}"),
            (r#""slice_mode":[1],"checkpoint_every":false,"#, "{}"),
        ] {
            let body = format!(r#""workload":"mcf","budget":50000,{extra}"policy":{policy}"#);
            for line in [
                format!(r#"{{"cmd":"submit",{body}}}"#),
                format!(r#"{{"cmd":"submit_batch","jobs":[{{{body}}}]}}"#),
            ] {
                let Ok(Request::Submit { jobs, .. }) = parse_request(&line) else {
                    panic!("`{line}` must parse")
                };
                assert_eq!(jobs[0].policy, want.policy, "`{line}`");
                assert_eq!(
                    spec_json(&jobs[0]).encode(),
                    spec_json(&want).encode(),
                    "`{line}`"
                );
            }
        }
        // The one policy key still parses beside them, and is what the
        // canonical form writes back.
        let spec = single(
            r#"{"cmd":"submit","workload":"mcf","budget":50000,
                "policy":{"slice_mode":"ondemand","screening":false,"deadline_ms":9000}}"#,
        );
        assert_eq!(spec.policy.deadline_ms, Some(9000));
        assert_eq!(spec.policy.slicing, want.policy.slicing);
        let encoded = spec_json(&spec).encode();
        assert!(
            encoded.contains(r#""policy":{"deadline_ms":9000}"#),
            "{encoded}"
        );
    }

    #[test]
    fn flat_deadline_ms_is_rejected_naming_policy() {
        // Protocol v5's flat spelling, alone or beside a nested object,
        // in a single submit and inside a batch: dropping a deadline
        // silently would change behaviour, so it stays an error.
        for flat in [
            r#""deadline_ms":9000"#,
            r#""deadline_ms":null"#,
            r#""deadline_ms":9000,"policy":{"deadline_ms":9000}"#,
        ] {
            for line in [
                format!(r#"{{"cmd":"submit","workload":"mcf",{flat}}}"#),
                format!(r#"{{"cmd":"submit_batch","jobs":[{{"workload":"mcf",{flat}}}]}}"#),
            ] {
                let Err(e) = parse_request(&line) else {
                    panic!("`{line}` must be rejected")
                };
                assert_eq!(e.code(), "bad_field", "`{line}`");
                let msg = e.to_string();
                assert!(
                    msg.contains("deadline_ms") && msg.contains("`policy`"),
                    "`{line}` → {msg}"
                );
            }
        }
    }

    #[test]
    fn absurd_scopes_are_rejected_at_admission() {
        // One cap for every job: asking for on-demand slicing no longer
        // lifts it.
        let over = (MAX_SCOPE + 1).to_string();
        for policy in ["", r#","policy":{"slice_mode":"ondemand"}"#] {
            let line = format!(r#"{{"cmd":"submit","workload":"mcf","scope":{over}{policy}}}"#);
            let Err(e) = parse_request(&line) else {
                panic!("`{line}` must be shed")
            };
            assert_eq!(e.code(), "config.scope_too_large", "`{line}`");
            assert_eq!(
                e,
                ProtoError::ScopeTooLarge {
                    scope: MAX_SCOPE + 1,
                    cap: MAX_SCOPE
                }
            );
            assert!(e.to_string().contains(&MAX_SCOPE.to_string()), "{e}");
        }
        // Scopes at the cap pass.
        let line = format!(r#"{{"cmd":"submit","workload":"mcf","scope":{MAX_SCOPE}}}"#);
        assert!(matches!(parse_request(&line), Ok(Request::Submit { .. })));
        // A batch inherits the code, naming the offending index.
        let line = format!(
            r#"{{"cmd":"submit_batch","jobs":[{{"workload":"vpr.r"}},{{"workload":"mcf","scope":{over}}}]}}"#
        );
        let Err(e) = parse_request(&line) else {
            panic!("batch with absurd scope must be shed")
        };
        assert_eq!(e.code(), "config.scope_too_large");
        assert!(e.to_string().contains("batch job #1"), "{e}");
    }

    #[test]
    fn spec_json_round_trips_through_parse_submit() {
        let line = r#"{"cmd":"submit","workload":"mcf","input":"test","budget":50000,
            "width":4,"mem_latency":140,"optimize":false,"model_width":6.5,
            "policy":{"deadline_ms":8000}}"#;
        let spec = single(line);
        assert_eq!(spec.policy.deadline_ms, Some(8000));
        let encoded = spec_json(&spec);
        let back = parse_submit(&encoded).expect("round-trip parses");
        assert_eq!(back.workload_name, spec.workload_name);
        assert_eq!(back.input, spec.input);
        assert_eq!(back.policy.cfg.budget, spec.policy.cfg.budget);
        assert_eq!(back.policy.cfg.machine.width, spec.policy.cfg.machine.width);
        assert_eq!(back.policy.cfg.model_width, spec.policy.cfg.model_width);
        assert_eq!(back.policy.cfg.optimize, spec.policy.cfg.optimize);
        assert_eq!(
            back.policy, spec.policy,
            "the whole policy survives the journal"
        );
        // A second encode is byte-identical: the canonical spec form.
        assert_eq!(spec_json(&back).encode(), encoded.encode());
    }

    #[test]
    fn v6_journal_spec_with_the_retired_streaming_key_replays_unchanged() {
        // Protocol v6 journaled a `streaming` flag in every policy; the
        // key never changed results, so replay ignores it.
        let v6 = Json::parse(
            r#"{"workload":"mcf","input":"train","budget":50000,"warmup":12500,
                "policy":{"slice_mode":"windowed","screening":true,"streaming":true,
                          "adaptive":{"enabled":false,"threshold_permille":500,
                                      "confirm":2,"min_phase_chunks":4}}}"#,
        )
        .expect("parses");
        let replayed = parse_submit(&v6).expect("v6 journal spec replays");
        let fresh = fresh(50_000);
        assert_eq!(replayed.policy, fresh.policy);
        // The re-journaled spec is the canonical form: no retired key is
        // written back.
        assert_eq!(spec_json(&replayed).encode(), spec_json(&fresh).encode());
    }

    #[test]
    fn legacy_adaptive_key_is_ignored_when_disabled_and_rejected_otherwise() {
        let fresh = fresh(50_000);
        // The disabled shapes: absent, null, false, and an object whose
        // `enabled` is false, whatever else it carries (the v7 canonical
        // object included). Each replays to the fresh spec, and the
        // canonical form no longer writes the key.
        for adaptive in [
            "null",
            "false",
            r#"{"enabled":false}"#,
            r#"{"enabled":false,"threshold_permille":500,"confirm":2,"min_phase_chunks":4}"#,
            r#"{"enabled":false,"threshold_permille":"junk","confirm":0}"#,
        ] {
            let line = format!(
                r#"{{"workload":"mcf","budget":50000,"policy":{{"adaptive":{adaptive}}}}}"#
            );
            let spec = parse_submit(&Json::parse(&line).expect("parses"))
                .unwrap_or_else(|e| panic!("`{adaptive}` must be accepted: {e}"));
            assert_eq!(spec.policy, fresh.policy, "{adaptive}");
            let encoded = spec_json(&spec).encode();
            assert_eq!(encoded, spec_json(&fresh).encode(), "{adaptive}");
            assert!(!encoded.contains("adaptive"), "{encoded}");
        }
        // Every shape that asked for adaptive selection is a field error
        // naming the key and the protocol version that removed it.
        for adaptive in [
            "true",
            "{}",
            r#"{"enabled":true}"#,
            r#"{"enabled":null}"#,
            r#"{"enabled":"false"}"#,
            r#"{"threshold_permille":25,"min_phase_chunks":2}"#,
            r#""yes""#,
            "0",
        ] {
            for line in [
                format!(
                    r#"{{"cmd":"submit","workload":"mcf","policy":{{"adaptive":{adaptive}}}}}"#
                ),
                format!(
                    r#"{{"cmd":"submit_batch","jobs":[{{"workload":"mcf","policy":{{"adaptive":{adaptive}}}}}]}}"#
                ),
            ] {
                let Err(e) = parse_request(&line) else {
                    panic!("`{line}` must be rejected")
                };
                assert_eq!(e.code(), "bad_field", "`{line}`");
                let msg = e.to_string();
                assert!(
                    msg.contains("`adaptive`") && msg.contains("removed in protocol v8"),
                    "`{line}` → {msg}"
                );
            }
        }
        // A policy that is not an object is still a field error.
        let Err(e) = parse_request(r#"{"cmd":"submit","workload":"mcf","policy":7}"#) else {
            panic!("a non-object policy must be rejected")
        };
        assert_eq!(e.code(), "bad_field");
    }

    /// A valid [`PolicySpec`] generator: any budget and deadline.
    fn policy_strategy() -> impl proptest::strategy::Strategy<Value = PolicySpec> {
        use proptest::prelude::*;
        (
            1_000u64..200_000,
            prop_oneof![Just(None), (1u64..1_000_000).prop_map(Some),],
        )
            .prop_map(|(budget, deadline_ms)| PolicySpec {
                deadline_ms,
                ..PolicySpec::paper_default(budget)
            })
    }

    /// Any JSON value a client or an old journal might put under a
    /// removed key: valid v10 values and junk alike.
    fn junk_strategy() -> impl proptest::strategy::Strategy<Value = Json> {
        use proptest::prelude::*;
        prop_oneof![
            prop::sample::select(vec![
                Json::Null,
                Json::str("windowed"),
                Json::str("ondemand"),
                Json::str("turbo"),
                Json::Arr(vec![Json::Bool(true)]),
                Json::obj(vec![("enabled", Json::Bool(true))]),
            ]),
            any::<bool>().prop_map(Json::Bool),
            (-1_000_000i64..1_000_000).prop_map(|n| Json::Num(n as f64)),
        ]
    }

    proptest::proptest! {
        /// Any valid policy survives the client → daemon → WAL → replay
        /// chain unchanged: `spec_json` is the WAL shape, `parse_submit`
        /// the replay entry point, and one round reaches the canonical
        /// byte-stable form.
        #[test]
        fn any_policy_survives_the_wal_round_trip(policy in policy_strategy()) {
            let mut spec =
                JobSpec::new("mcf", InputSet::Train, policy.cfg).expect("known workload");
            spec.policy = policy;
            let encoded = spec_json(&spec);
            let back = parse_submit(&encoded).expect("journaled spec replays");
            proptest::prop_assert_eq!(back.policy, spec.policy);
            proptest::prop_assert_eq!(spec_json(&back).encode(), encoded.encode());
        }

        /// The removed keys, with any values, inside `policy` or at the
        /// top level, leave the parsed spec and its journal form exactly
        /// as they were.
        #[test]
        fn removed_keys_never_change_the_spec(
            policy in policy_strategy(),
            slice_mode in junk_strategy(),
            checkpoint_every in junk_strategy(),
            screening in junk_strategy(),
            top_level in proptest::prelude::any::<bool>(),
        ) {
            let mut spec =
                JobSpec::new("mcf", InputSet::Train, policy.cfg).expect("known workload");
            spec.policy = policy;
            let canonical = spec_json(&spec);
            let Json::Obj(mut fields) = canonical.clone() else {
                panic!("spec_json is an object")
            };
            let removed = vec![
                ("slice_mode".to_string(), slice_mode),
                ("checkpoint_every".to_string(), checkpoint_every),
                ("screening".to_string(), screening),
            ];
            if top_level {
                fields.extend(removed.into_iter().take(2));
            } else if let Some((_, Json::Obj(p))) = fields.iter_mut().find(|(k, _)| k == "policy") {
                p.extend(removed);
            }
            let back = parse_submit(&Json::Obj(fields)).expect("removed keys are ignored");
            proptest::prop_assert_eq!(back.policy, spec.policy);
            proptest::prop_assert_eq!(spec_json(&back).encode(), canonical.encode());
        }
    }
}
