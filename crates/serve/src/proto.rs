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
//! | `submit` | `workload` (required), `input`, `budget`, `warmup`, `scope`, `max_slice_len`, `max_pthread_len`, `optimize`, `merge`, `width`, `mem_latency`, `model_miss_latency`, `model_width`, plus a nested `policy` object (`slice_mode`, `checkpoint_every`, `screening`, `adaptive`, `deadline_ms`) | `job` id |
//! | `submit_batch` | `jobs`: a non-empty array of submit objects | `jobs`: array of ids, in order |
//! | `status` | `job` | `state` (+ `error` when failed) |
//! | `result` | `job` | `state`, `cache_hit`, `result{...}` |
//! | `cancel` | `job` | `state` after the attempt (+ `cancelling: true` when the job is mid-run and will stop at its next stage boundary) |
//! | `stats` | — | queue/worker/cache/stage-latency report |
//! | `metrics` | — | full metrics registry: `counters`, `gauges`, `histograms`, `events`, plus a Prometheus-style `prometheus` text rendering |
//! | `cache_get` | `key` (16 hex digits) | `hit`, plus `slices`/`stats` artifact text on a hit — the shard peer protocol (DESIGN.md §15.3) |
//! | `cache_put` | `key`, `slices`, `stats` | `stored: true` |
//! | `shutdown` | — | `shutting_down: true` with the `queued`/`running` counts the drain will finish (journaled, so nothing is silently lost) |
//!
//! Pipelining: any request may carry an `id` field (any JSON value);
//! the response echoes it verbatim, so a client may keep N requests in
//! flight on one connection and match responses explicitly instead of
//! by arrival order (responses do also arrive in request order).
//!
//! Overload: past the admission high-water mark, `submit` fails fast
//! with code `overloaded` and a `retry_after_ms` hint (DESIGN.md §14.3).
//! `submit_batch` is admitted or shed *as a whole*: one `overloaded`
//! decision (and one `retry_after_ms`) for the entire batch — partial
//! batch admission would force clients to diff which jobs got in.
//!
//! Submit fields default to [`PipelineConfig::paper_default`] at the
//! given budget (default 120 000 instructions); `width` and
//! `mem_latency` override the corresponding [`MachineParams`] fields,
//! the `model_*` fields the selection model's cross-validation knobs.
//!
//! Policy fields (slicing mode, screening, adaptive selection, deadline)
//! live only in the nested `policy` object. A top-level `slice_mode`,
//! `checkpoint_every`, or `deadline_ms` (the flat spellings of protocol
//! v5) is a `bad_field` error naming the `policy` object; keys the
//! object does not know (such as the `streaming` flag protocol v6 wrote)
//! are ignored, so v6 journals replay unchanged.
//!
//! [`MachineParams`]: preexec_timing::MachineParams

use crate::cache::parse_input;
use crate::json::Json;
use crate::scheduler::{JobId, SubmitError};
use crate::service::{JobOutput, JobSpec};
use preexec_experiments::pipeline::pct;
use preexec_experiments::{
    AdaptiveConfig, PipelineConfig, PipelineError, PolicySpec, SlicingMode,
    DEFAULT_CHECKPOINT_EVERY,
};
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
/// drops the `streaming` flag.
pub const PROTOCOL_VERSION: u64 = 7;

/// Largest slicing scope admitted in `"windowed"` mode: the sliding
/// window keeps the whole scope resident, so past this the daemon would
/// commit to gigabytes of window for one job. Larger scopes must opt
/// into `"ondemand"` slicing, whose residency is checkpoint-bounded.
pub const MAX_WINDOWED_SCOPE: u64 = 1 << 24;

/// Largest slicing scope admitted at all (`"ondemand"` mode). Beyond
/// this even sequence-number bookkeeping is outside anything the trace
/// budget could produce — such a request is a typo, not a plan.
pub const MAX_SCOPE: u64 = 1 << 32;

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
    /// The scheduler rejected the submission (queue full / draining).
    Submit(SubmitError),
    /// The admission gate shed the submission (past the high-water
    /// mark); carries the retry hint.
    Overloaded(crate::admission::Overloaded),
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
    /// A `cache_put` payload failed validation (corrupt slice text or
    /// unparseable stats) — the shard peer refused to persist it.
    ShardPayload(&'static str),
    /// The submitted slicing scope exceeds the admission cap for the
    /// requested slice mode ([`MAX_WINDOWED_SCOPE`] windowed,
    /// [`MAX_SCOPE`] on-demand). Rejected at the door: a windowed job
    /// with an absurd scope would eagerly commit the daemon to an
    /// unserviceable resident window.
    ScopeTooLarge {
        /// The requested scope.
        scope: u64,
        /// The cap it exceeded.
        cap: u64,
        /// The slice mode the cap belongs to (`"windowed"` or
        /// `"ondemand"`).
        mode: &'static str,
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
            ProtoError::Submit(SubmitError::QueueFull { .. }) => "queue_full",
            ProtoError::Submit(SubmitError::ShuttingDown) => "shutting_down",
            ProtoError::Overloaded(_) => "overloaded",
            ProtoError::UnknownJob(_) => "unknown_job",
            ProtoError::NotFinished { .. } => "job_not_finished",
            // A batch inherits the offending job's code: a client
            // handling `overloaded` or `config.*` for single submits
            // needs no new branches for batches.
            ProtoError::BatchJob { inner, .. } => inner.code(),
            ProtoError::ShardPayload(_) => "shard.bad_payload",
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
                 stats, metrics, cache_get, cache_put, or shutdown)"
            ),
            ProtoError::BadField { field, expected } => {
                write!(f, "field `{field}` must be {expected}")
            }
            ProtoError::UnknownInput(name) => {
                write!(f, "unknown input `{name}` (train, test, or alt)")
            }
            ProtoError::Config(e) => write!(f, "{e}"),
            ProtoError::Submit(e) => write!(f, "{e}"),
            ProtoError::Overloaded(e) => write!(f, "{e}"),
            ProtoError::UnknownJob(id) => write!(f, "unknown job {id}"),
            ProtoError::NotFinished { job, state } => {
                write!(f, "job {job} is {state} — poll `status` until it finishes")
            }
            ProtoError::BatchJob { index, inner } => {
                write!(f, "batch job #{index}: {inner}")
            }
            ProtoError::ShardPayload(why) => {
                write!(f, "shard peer rejected the cache payload: {why}")
            }
            ProtoError::ScopeTooLarge { scope, cap, mode } => {
                write!(f, "scope {scope} exceeds the {mode} admission cap {cap}")?;
                if *mode == "windowed" {
                    write!(f, "; use slice_mode \"ondemand\" for scopes past window residency")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Config(e) => Some(e),
            ProtoError::Submit(e) => Some(e),
            ProtoError::Overloaded(e) => Some(e),
            ProtoError::BatchJob { inner, .. } => Some(inner.as_ref()),
            _ => None,
        }
    }
}

impl From<SubmitError> for ProtoError {
    fn from(e: SubmitError) -> ProtoError {
        ProtoError::Submit(e)
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
    /// Enqueue a job.
    Submit(Box<JobSpec>),
    /// Enqueue several jobs atomically: all admitted (ids in order) or
    /// none (one typed error for the batch).
    SubmitBatch(Vec<JobSpec>),
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
    /// Shard peer protocol: fetch the raw cached artifact for a cache
    /// key digest from the shard that owns it.
    CacheGet(u64),
    /// Shard peer protocol: persist a raw artifact on the owning shard.
    CachePut {
        /// The cache key digest (owner-addressed).
        key: u64,
        /// The `.slices` file text (checksummed v2 format).
        slices: String,
        /// The `.stats` sidecar JSON text.
        stats: String,
    },
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
        .ok_or(ProtoError::BadField { field: "cmd", expected: "a string" })?;
    match cmd {
        "submit" => parse_submit(json).map(|s| Request::Submit(Box::new(s))),
        "submit_batch" => parse_submit_batch(json).map(Request::SubmitBatch),
        "status" => job_id(json).map(Request::Status),
        "result" => job_id(json).map(Request::Result),
        "cancel" => job_id(json).map(Request::Cancel),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "cache_get" => cache_key(json).map(Request::CacheGet),
        "cache_put" => {
            let key = cache_key(json)?;
            let slices = required_str(json, "slices")?;
            let stats = required_str(json, "stats")?;
            Ok(Request::CachePut { key, slices, stats })
        }
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
        .ok_or(ProtoError::BadField { field: "jobs", expected: "an array of submit objects" })?;
    if jobs.is_empty() {
        return Err(ProtoError::BadField {
            field: "jobs",
            expected: "a non-empty array of submit objects",
        });
    }
    jobs.iter()
        .enumerate()
        .map(|(index, job)| {
            parse_submit(job)
                .map_err(|e| ProtoError::BatchJob { index, inner: Box::new(e) })
        })
        .collect()
}

fn cache_key(json: &Json) -> Result<u64, ProtoError> {
    let text = json
        .get("key")
        .and_then(Json::as_str)
        .ok_or(ProtoError::BadField { field: "key", expected: "a 16-hex-digit string" })?;
    if text.len() != 16 {
        return Err(ProtoError::BadField { field: "key", expected: "a 16-hex-digit string" });
    }
    u64::from_str_radix(text, 16)
        .map_err(|_| ProtoError::BadField { field: "key", expected: "a 16-hex-digit string" })
}

fn required_str(json: &Json, field: &'static str) -> Result<String, ProtoError> {
    json.get(field)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or(ProtoError::BadField { field, expected: "a string" })
}

fn job_id(json: &Json) -> Result<JobId, ProtoError> {
    json.get("job")
        .and_then(Json::as_u64)
        .ok_or(ProtoError::BadField { field: "job", expected: "a non-negative integer" })
}

fn opt_u64(json: &Json, key: &'static str) -> Result<Option<u64>, ProtoError> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or(ProtoError::BadField { field: key, expected: "a non-negative integer" }),
    }
}

fn opt_f64(json: &Json, key: &'static str) -> Result<Option<f64>, ProtoError> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or(ProtoError::BadField { field: key, expected: "a number" }),
    }
}

fn opt_bool(json: &Json, key: &'static str) -> Result<Option<bool>, ProtoError> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or(ProtoError::BadField { field: key, expected: "a boolean" }),
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
        .ok_or(ProtoError::BadField { field: "workload", expected: "a string" })?;
    let input = match json.get("input") {
        None | Some(Json::Null) => InputSet::Train,
        Some(v) => {
            let name = v
                .as_str()
                .ok_or(ProtoError::BadField { field: "input", expected: "a string" })?;
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
        cfg.machine.width = u32::try_from(x)
            .map_err(|_| ProtoError::BadField { field: "width", expected: "a 32-bit integer" })?;
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
    let mut spec =
        JobSpec::new(workload, input, cfg).map_err(ProtoError::UnknownWorkload)?;
    spec.policy = policy;
    Ok(spec)
}

/// Parses the nested `policy` submit object over the defaults for `cfg`
/// (absent or null means all defaults), then validates the whole spec
/// and the per-mode scope cap.
fn parse_policy(json: &Json, cfg: PipelineConfig) -> Result<PolicySpec, ProtoError> {
    for field in ["slice_mode", "checkpoint_every", "deadline_ms"] {
        if json.get(field).is_some() {
            return Err(ProtoError::BadField { field, expected: "inside the `policy` object" });
        }
    }
    let mut policy = PolicySpec { cfg, ..PolicySpec::default() };
    match json.get("policy") {
        None | Some(Json::Null) => {}
        Some(obj @ Json::Obj(_)) => {
            if let Some(x) = parse_slice_mode(obj)? {
                policy.slicing = x;
            }
            if let Some(x) = opt_bool(obj, "screening")? {
                policy.screening = x;
            }
            if let Some(x) = parse_adaptive(obj)? {
                policy.adaptive = x;
            }
            policy.deadline_ms = opt_u64(obj, "deadline_ms")?;
        }
        Some(_) => {
            return Err(ProtoError::BadField { field: "policy", expected: "an object" })
        }
    }
    policy.try_validate().map_err(ProtoError::Config)?;
    check_scope_cap(cfg.scope as u64, policy.slicing)?;
    Ok(policy)
}

/// Parses the `adaptive` field of a `policy` object: `true`/`false`
/// toggles the default detector knobs, an object overrides them.
fn parse_adaptive(obj: &Json) -> Result<Option<AdaptiveConfig>, ProtoError> {
    match obj.get("adaptive") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => {
            Ok(Some(AdaptiveConfig { enabled: *b, ..AdaptiveConfig::default() }))
        }
        Some(v @ Json::Obj(_)) => {
            let mut a = AdaptiveConfig {
                enabled: opt_bool(v, "enabled")?.unwrap_or(true),
                ..AdaptiveConfig::default()
            };
            if let Some(x) = opt_u64(v, "threshold_permille")? {
                a.threshold_permille = x;
            }
            if let Some(x) = opt_u64(v, "confirm")? {
                a.confirm = x;
            }
            if let Some(x) = opt_u64(v, "min_phase_chunks")? {
                a.min_phase_chunks = x;
            }
            Ok(Some(a))
        }
        Some(_) => Err(ProtoError::BadField {
            field: "adaptive",
            expected: "a boolean or an object",
        }),
    }
}

/// Parses an optional `slice_mode` (`"windowed"` or `"ondemand"`) plus
/// `checkpoint_every` pair from a `policy` object. `None` means the mode
/// was not given (a bare `checkpoint_every` is ignored).
fn parse_slice_mode(obj: &Json) -> Result<Option<SlicingMode>, ProtoError> {
    let expected = r#""windowed" or "ondemand""#;
    let name = match obj.get("slice_mode") {
        None | Some(Json::Null) => return Ok(None),
        Some(v) => v
            .as_str()
            .ok_or(ProtoError::BadField { field: "slice_mode", expected })?,
    };
    match name {
        "windowed" => Ok(Some(SlicingMode::Windowed)),
        "ondemand" => Ok(Some(SlicingMode::OnDemand {
            checkpoint_every: opt_u64(obj, "checkpoint_every")?
                .unwrap_or(DEFAULT_CHECKPOINT_EVERY)
                .max(1),
        })),
        _ => Err(ProtoError::BadField { field: "slice_mode", expected }),
    }
}

/// The per-mode scope admission gate (see [`MAX_WINDOWED_SCOPE`] /
/// [`MAX_SCOPE`]).
fn check_scope_cap(scope: u64, mode: SlicingMode) -> Result<(), ProtoError> {
    let (cap, name) = match mode {
        SlicingMode::Windowed => (MAX_WINDOWED_SCOPE, "windowed"),
        SlicingMode::OnDemand { .. } => (MAX_SCOPE, "ondemand"),
    };
    if scope > cap {
        return Err(ProtoError::ScopeTooLarge { scope, cap, mode: name });
    }
    Ok(())
}

/// Serializes a [`JobSpec`] back into the submit-object shape
/// [`parse_submit`] accepts, every field explicit — the durable
/// journal's `spec` payload. Round-trip exactness is what lets a
/// restarted daemon re-run the job byte-identically.
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
    fields.push(("policy", policy_json(&spec.policy)));
    Json::obj(fields)
}

/// The canonical nested `policy` object: every field explicit, fixed
/// order — what the journal persists and `toolflow --daemon` submits.
pub fn policy_json(p: &PolicySpec) -> Json {
    let mut fields = Vec::new();
    match p.slicing {
        SlicingMode::Windowed => fields.push(("slice_mode", Json::str("windowed"))),
        SlicingMode::OnDemand { checkpoint_every } => {
            fields.push(("slice_mode", Json::str("ondemand")));
            fields.push(("checkpoint_every", Json::num_u64(checkpoint_every)));
        }
    }
    fields.push(("screening", Json::Bool(p.screening)));
    let a = p.adaptive;
    fields.push((
        "adaptive",
        Json::obj(vec![
            ("enabled", Json::Bool(a.enabled)),
            ("threshold_permille", Json::num_u64(a.threshold_permille)),
            ("confirm", Json::num_u64(a.confirm)),
            ("min_phase_chunks", Json::num_u64(a.min_phase_chunks)),
        ]),
    ));
    if let Some(ms) = p.deadline_ms {
        fields.push(("deadline_ms", Json::num_u64(ms)));
    }
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
        ("num_pthreads", Json::num_u64(r.selection.pthreads.len() as u64)),
        (
            "predicted_coverage_pct",
            Json::Num(pct(r.selection.prediction.misses_covered, r.stats.l2_misses)),
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

    #[test]
    fn parses_each_command() {
        assert!(matches!(
            parse_request(r#"{"cmd":"submit","workload":"vpr.r"}"#),
            Ok(Request::Submit(_))
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
        assert!(matches!(parse_request(r#"{"cmd":"stats"}"#), Ok(Request::Stats)));
        assert!(matches!(parse_request(r#"{"cmd":"metrics"}"#), Ok(Request::Metrics)));
        assert!(matches!(parse_request(r#"{"cmd":"shutdown"}"#), Ok(Request::Shutdown)));
    }

    #[test]
    fn submit_applies_defaults_and_overrides() {
        let req = parse_request(
            r#"{"cmd":"submit","workload":"mcf","input":"test","budget":50000,
                "width":4,"mem_latency":140,"optimize":false,"model_width":6.5}"#,
        )
        .expect("parses");
        let Request::Submit(spec) = req else {
            panic!("expected submit");
        };
        assert_eq!(spec.workload_name, "mcf");
        assert_eq!(spec.input, InputSet::Test);
        assert_eq!(spec.policy.cfg.budget, 50_000);
        assert_eq!(spec.policy.cfg.warmup, 12_500, "warmup defaults to budget/4");
        assert_eq!(spec.policy.cfg.machine.width, 4);
        assert_eq!(spec.policy.cfg.machine.mem_latency, 140);
        assert!(!spec.policy.cfg.optimize);
        assert_eq!(spec.policy.cfg.model_width, Some(6.5));
        // Defaults match the paper configuration; the policy defaults
        // are static (no adaptive selection, no deadline).
        assert_eq!(spec.policy.cfg.scope, 1024);
        assert_eq!(spec.policy.cfg.max_pthread_len, 32);
        assert!(!spec.policy.adaptive.enabled);
        assert_eq!(spec.policy.deadline_ms, None);
    }

    #[test]
    fn submit_rejects_bad_requests_with_messages_and_codes() {
        for (line, needle, code) in [
            ("not json", "JSON", "bad_json"),
            (r#"{"cmd":"submit"}"#, "workload", "bad_field"),
            (r#"{"cmd":"submit","workload":"nope"}"#, "unknown workload", "unknown_workload"),
            (
                r#"{"cmd":"submit","workload":"mcf","input":"huge"}"#,
                "unknown input",
                "unknown_input",
            ),
            (r#"{"cmd":"submit","workload":"mcf","budget":0}"#, "budget", "config.zero_budget"),
            (r#"{"cmd":"submit","workload":"mcf","width":0}"#, "width", "config.machine"),
            (r#"{"cmd":"submit","workload":"mcf","budget":-3}"#, "budget", "bad_field"),
            (r#"{"cmd":"status"}"#, "job", "bad_field"),
            (r#"{"cmd":"wat"}"#, "unknown cmd", "unknown_cmd"),
            (r#"{}"#, "cmd", "bad_field"),
        ] {
            let Err(e) = parse_request(line) else {
                panic!("`{line}` must be rejected");
            };
            let msg = e.to_string();
            assert!(msg.contains(needle), "`{line}` → `{msg}` (wanted `{needle}`)");
            assert_eq!(e.code(), code, "`{line}` code");
        }
    }

    #[test]
    fn config_rejection_reuses_the_pipeline_error_code() {
        let Err(e) = parse_request(r#"{"cmd":"submit","workload":"mcf","scope":0}"#) else {
            panic!("zero scope must be rejected");
        };
        assert_eq!(e, ProtoError::Config(preexec_experiments::PipelineError::ZeroScope));
        assert_eq!(e.code(), preexec_experiments::PipelineError::ZeroScope.code());
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
        assert_eq!(err.get("error").and_then(Json::as_str), Some("unknown job 7"));
        assert_eq!(err.get("code").and_then(Json::as_str), Some("unknown_job"));
        assert_eq!(
            err.get("protocol_version").and_then(Json::as_u64),
            Some(PROTOCOL_VERSION)
        );
    }

    #[test]
    fn submit_errors_map_to_distinct_codes() {
        assert_eq!(
            ProtoError::from(SubmitError::QueueFull { cap: 4 }).code(),
            "queue_full"
        );
        assert_eq!(ProtoError::from(SubmitError::ShuttingDown).code(), "shutting_down");
        assert_eq!(
            ProtoError::NotFinished { job: 3, state: "running" }.code(),
            "job_not_finished"
        );
    }

    #[test]
    fn overloaded_rejections_carry_the_retry_hint() {
        let e = ProtoError::Overloaded(crate::admission::Overloaded {
            retry_after_ms: 750,
            outstanding: 9,
            high_water: 8,
        });
        assert_eq!(e.code(), "overloaded");
        assert!(e.to_string().contains("750"));
        let resp = error_response(&e);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(resp.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(resp.get("retry_after_ms").and_then(Json::as_u64), Some(750));
        // Other errors stay hint-free.
        assert!(error_response(&ProtoError::UnknownJob(1)).get("retry_after_ms").is_none());
    }

    #[test]
    fn submit_batch_parses_all_or_rejects_with_the_offending_index() {
        let Ok(Request::SubmitBatch(specs)) = parse_request(
            r#"{"cmd":"submit_batch","jobs":[
                {"workload":"vpr.r","budget":30000},
                {"workload":"mcf","budget":40000,"input":"test"}]}"#,
        ) else {
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
            let Err(e) = parse_request(line) else { panic!("`{line}` must be rejected") };
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
        let resp = with_request_id(error_response(&ProtoError::UnknownJob(1)), request_id(&json));
        assert_eq!(resp.get("id").and_then(Json::as_str), Some("req-7"));

        // No id (or a null one) → no echo.
        for line in [r#"{"cmd":"stats"}"#, r#"{"cmd":"stats","id":null}"#] {
            let json = Json::parse(line).expect("parses");
            let resp = with_request_id(ok_response(vec![]), request_id(&json));
            assert!(resp.get("id").is_none(), "{line}");
        }
    }

    #[test]
    fn cache_peer_verbs_parse_and_validate_their_keys() {
        let Ok(Request::CacheGet(key)) =
            parse_request(r#"{"cmd":"cache_get","key":"00ab34cd56ef7890"}"#)
        else {
            panic!("cache_get must parse");
        };
        assert_eq!(key, 0x00ab_34cd_56ef_7890);

        let Ok(Request::CachePut { key, slices, stats }) = parse_request(
            r#"{"cmd":"cache_put","key":"ffffffffffffffff","slices":"S\nL","stats":"{}"}"#,
        ) else {
            panic!("cache_put must parse");
        };
        assert_eq!(key, u64::MAX);
        assert_eq!(slices, "S\nL");
        assert_eq!(stats, "{}");

        for line in [
            r#"{"cmd":"cache_get"}"#,
            r#"{"cmd":"cache_get","key":"xyz"}"#,
            r#"{"cmd":"cache_get","key":"123"}"#,
            r#"{"cmd":"cache_put","key":"00ab34cd56ef7890"}"#,
        ] {
            let Err(e) = parse_request(line) else { panic!("`{line}` must be rejected") };
            assert_eq!(e.code(), "bad_field", "`{line}`");
        }
        assert_eq!(ProtoError::ShardPayload("corrupt").code(), "shard.bad_payload");
    }

    #[test]
    fn slice_mode_parses_defaults_and_rejects_junk() {
        // Absent (or null) → windowed.
        for line in [
            r#"{"cmd":"submit","workload":"mcf"}"#,
            r#"{"cmd":"submit","workload":"mcf","policy":null}"#,
            r#"{"cmd":"submit","workload":"mcf","policy":{"slice_mode":null}}"#,
            r#"{"cmd":"submit","workload":"mcf","policy":{"slice_mode":"windowed"}}"#,
        ] {
            let Ok(Request::Submit(spec)) = parse_request(line) else {
                panic!("`{line}` must parse");
            };
            assert_eq!(spec.policy.slicing, SlicingMode::Windowed, "{line}");
        }
        // On-demand defaults its cadence; an explicit one sticks, and a
        // zero cadence is clamped to 1 at the door.
        let Ok(Request::Submit(spec)) = parse_request(
            r#"{"cmd":"submit","workload":"mcf","policy":{"slice_mode":"ondemand"}}"#,
        ) else {
            panic!("ondemand must parse");
        };
        assert_eq!(
            spec.policy.slicing,
            SlicingMode::OnDemand { checkpoint_every: DEFAULT_CHECKPOINT_EVERY }
        );
        let Ok(Request::Submit(spec)) = parse_request(
            r#"{"cmd":"submit","workload":"mcf",
                "policy":{"slice_mode":"ondemand","checkpoint_every":512}}"#,
        ) else {
            panic!("explicit cadence must parse");
        };
        assert_eq!(spec.policy.slicing, SlicingMode::OnDemand { checkpoint_every: 512 });
        let Ok(Request::Submit(spec)) = parse_request(
            r#"{"cmd":"submit","workload":"mcf",
                "policy":{"slice_mode":"ondemand","checkpoint_every":0}}"#,
        ) else {
            panic!("zero cadence must parse");
        };
        assert_eq!(spec.policy.slicing, SlicingMode::OnDemand { checkpoint_every: 1 });
        // Junk modes are typed field errors.
        for line in [
            r#"{"cmd":"submit","workload":"mcf","policy":{"slice_mode":"turbo"}}"#,
            r#"{"cmd":"submit","workload":"mcf","policy":{"slice_mode":7}}"#,
        ] {
            let Err(e) = parse_request(line) else { panic!("`{line}` must be rejected") };
            assert_eq!(e.code(), "bad_field", "`{line}`");
            assert!(e.to_string().contains("slice_mode"), "`{line}` → {e}");
        }
    }

    #[test]
    fn absurd_scopes_are_rejected_at_admission_per_mode() {
        // Past the windowed cap: rejected with the stable code and a
        // hint pointing at on-demand slicing.
        let over_windowed = (MAX_WINDOWED_SCOPE + 1).to_string();
        let line = format!(
            r#"{{"cmd":"submit","workload":"mcf","scope":{over_windowed}}}"#
        );
        let Err(e) = parse_request(&line) else { panic!("absurd windowed scope must be shed") };
        assert_eq!(e.code(), "config.scope_too_large");
        assert!(e.to_string().contains("ondemand"), "{e}");
        // The same scope under on-demand slicing is admitted…
        let ondemand = r#""policy":{"slice_mode":"ondemand"}"#;
        let line = format!(
            r#"{{"cmd":"submit","workload":"mcf","scope":{over_windowed},{ondemand}}}"#
        );
        assert!(matches!(parse_request(&line), Ok(Request::Submit(_))));
        // …but even on-demand has a ceiling.
        let over_all = (MAX_SCOPE + 1).to_string();
        let line =
            format!(r#"{{"cmd":"submit","workload":"mcf","scope":{over_all},{ondemand}}}"#);
        let Err(e) = parse_request(&line) else { panic!("absurd ondemand scope must be shed") };
        assert_eq!(e.code(), "config.scope_too_large");
        // Scopes at the cap pass.
        let at_cap = MAX_WINDOWED_SCOPE.to_string();
        let line = format!(r#"{{"cmd":"submit","workload":"mcf","scope":{at_cap}}}"#);
        assert!(matches!(parse_request(&line), Ok(Request::Submit(_))));
        // A batch inherits the code, naming the offending index.
        let line = format!(
            r#"{{"cmd":"submit_batch","jobs":[{{"workload":"vpr.r"}},{{"workload":"mcf","scope":{over_windowed}}}]}}"#
        );
        let Err(e) = parse_request(&line) else { panic!("batch with absurd scope must be shed") };
        assert_eq!(e.code(), "config.scope_too_large");
        assert!(e.to_string().contains("batch job #1"), "{e}");
    }

    #[test]
    fn ondemand_spec_json_round_trips() {
        let line = r#"{"cmd":"submit","workload":"mcf","scope":100000000,
            "policy":{"slice_mode":"ondemand","checkpoint_every":2048}}"#;
        let Ok(Request::Submit(spec)) = parse_request(line) else {
            panic!("parses");
        };
        let encoded = spec_json(&spec);
        let back = parse_submit(&encoded).expect("round-trip parses");
        assert_eq!(back.policy.slicing, SlicingMode::OnDemand { checkpoint_every: 2048 });
        assert_eq!(back.policy.cfg.scope, 100_000_000);
        assert_eq!(spec_json(&back).encode(), encoded.encode());
    }

    #[test]
    fn spec_json_round_trips_through_parse_submit() {
        let line = r#"{"cmd":"submit","workload":"mcf","input":"test","budget":50000,
            "width":4,"mem_latency":140,"optimize":false,"model_width":6.5,
            "policy":{"deadline_ms":8000}}"#;
        let Ok(Request::Submit(spec)) = parse_request(line) else {
            panic!("parses");
        };
        assert_eq!(spec.policy.deadline_ms, Some(8000));
        let encoded = spec_json(&spec);
        let back = parse_submit(&encoded).expect("round-trip parses");
        assert_eq!(back.workload_name, spec.workload_name);
        assert_eq!(back.input, spec.input);
        assert_eq!(back.policy.cfg.budget, spec.policy.cfg.budget);
        assert_eq!(back.policy.cfg.machine.width, spec.policy.cfg.machine.width);
        assert_eq!(back.policy.cfg.model_width, spec.policy.cfg.model_width);
        assert_eq!(back.policy.cfg.optimize, spec.policy.cfg.optimize);
        assert_eq!(back.policy, spec.policy, "the whole policy survives the journal");
        // A second encode is byte-identical: the canonical spec form.
        assert_eq!(spec_json(&back).encode(), encoded.encode());
    }

    #[test]
    fn nested_policy_object_parses_every_field() {
        let line = r#"{"cmd":"submit","workload":"mcf","policy":{
            "slice_mode":"windowed",
            "screening":false,"deadline_ms":9000,
            "adaptive":{"enabled":true,"threshold_permille":400,
                        "confirm":3,"min_phase_chunks":5}}}"#;
        let Ok(Request::Submit(spec)) = parse_request(line) else {
            panic!("policy submit must parse");
        };
        assert_eq!(spec.policy.slicing, SlicingMode::Windowed);
        assert!(!spec.policy.screening);
        assert_eq!(spec.policy.deadline_ms, Some(9000));
        assert_eq!(
            spec.policy.adaptive,
            AdaptiveConfig {
                enabled: true,
                threshold_permille: 400,
                confirm: 3,
                min_phase_chunks: 5,
            }
        );
    }

    #[test]
    fn flat_policy_fields_are_rejected_with_bad_field() {
        // The v5 flat spellings, alone or beside a nested object, in a
        // single submit and inside a batch.
        for (flat, field) in [
            (r#""slice_mode":"ondemand""#, "slice_mode"),
            (r#""checkpoint_every":256"#, "checkpoint_every"),
            (r#""deadline_ms":9000"#, "deadline_ms"),
            (r#""slice_mode":"windowed","policy":{"slice_mode":"windowed"}"#, "slice_mode"),
        ] {
            for line in [
                format!(r#"{{"cmd":"submit","workload":"mcf",{flat}}}"#),
                format!(r#"{{"cmd":"submit_batch","jobs":[{{"workload":"mcf",{flat}}}]}}"#),
            ] {
                let Err(e) = parse_request(&line) else { panic!("`{line}` must be rejected") };
                assert_eq!(e.code(), "bad_field", "`{line}`");
                let msg = e.to_string();
                assert!(msg.contains(field) && msg.contains("`policy`"), "`{line}` → {msg}");
            }
        }
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
        let fresh = Json::parse(r#"{"workload":"mcf","budget":50000}"#).expect("parses");
        let fresh = parse_submit(&fresh).expect("fresh spec parses");
        assert_eq!(replayed.policy, fresh.policy);
        // The re-journaled spec is the canonical v7 form: the retired key
        // is not written back.
        assert_eq!(spec_json(&replayed).encode(), spec_json(&fresh).encode());
    }

    #[test]
    fn adaptive_policy_round_trips_and_rejects_bad_shapes() {
        // Boolean shorthand takes the detector defaults.
        let line = r#"{"cmd":"submit","workload":"mcf","policy":{"adaptive":true}}"#;
        let Ok(Request::Submit(spec)) = parse_request(line) else {
            panic!("adaptive shorthand must parse");
        };
        assert!(spec.policy.adaptive.enabled);
        assert_eq!(spec.policy.adaptive, AdaptiveConfig {
            enabled: true,
            ..AdaptiveConfig::default()
        });
        // The journal round-trip preserves the adaptive knobs exactly.
        let encoded = spec_json(&spec);
        let back = parse_submit(&encoded).expect("replay parses");
        assert_eq!(back.policy, spec.policy);
        assert_eq!(spec_json(&back).encode(), encoded.encode());

        // Adaptive + on-demand slicing is a policy contradiction.
        let line = r#"{"cmd":"submit","workload":"mcf",
            "policy":{"slice_mode":"ondemand","adaptive":true}}"#;
        let Err(e) = parse_request(line) else { panic!("adaptive+ondemand must fail") };
        assert_eq!(e.code(), "config.conflicting_policy");

        // Zero detector knobs are rejected by the policy validator.
        let line = r#"{"cmd":"submit","workload":"mcf",
            "policy":{"adaptive":{"confirm":0}}}"#;
        let Err(e) = parse_request(line) else { panic!("zero confirm must fail") };
        assert_eq!(e.code(), "config.bad_adaptive");

        // Mistyped policy / adaptive shapes are field errors.
        for line in [
            r#"{"cmd":"submit","workload":"mcf","policy":7}"#,
            r#"{"cmd":"submit","workload":"mcf","policy":{"adaptive":"yes"}}"#,
        ] {
            let Err(e) = parse_request(line) else { panic!("`{line}` must be rejected") };
            assert_eq!(e.code(), "bad_field", "`{line}`");
        }
    }

    /// A valid [`PolicySpec`] generator: any slicing mode, screening
    /// toggle, deadline, and adaptive knobs — constrained only by the
    /// spec's own validity rules (knobs ≥ 1; adaptive implies windowed
    /// slicing).
    fn policy_strategy() -> impl proptest::strategy::Strategy<Value = PolicySpec> {
        use proptest::prelude::*;
        (
            1_000u64..200_000,
            prop_oneof![
                Just(SlicingMode::Windowed),
                (1u64..10_000)
                    .prop_map(|checkpoint_every| SlicingMode::OnDemand { checkpoint_every }),
            ],
            any::<bool>(),
            prop_oneof![
                Just(None),
                (1u64..1_000_000).prop_map(Some),
            ],
            (any::<bool>(), 1u64..2_000, 1u64..8, 1u64..16),
        )
            .prop_map(|(budget, slicing, screening, deadline_ms, a)| {
                let (enabled, threshold_permille, confirm, min_phase_chunks) = a;
                let adaptive =
                    AdaptiveConfig { enabled, threshold_permille, confirm, min_phase_chunks };
                let mut spec = PolicySpec::paper_default(budget);
                // Adaptive selection requires the windowed path; respect
                // the validity rule the daemon enforces.
                spec.slicing = if enabled { SlicingMode::Windowed } else { slicing };
                spec.screening = screening;
                spec.adaptive = adaptive;
                spec.deadline_ms = deadline_ms;
                spec
            })
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
    }
}
