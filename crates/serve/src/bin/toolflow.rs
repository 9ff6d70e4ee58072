//! The paper's decoupled toolflow (§4.1): the functional cache simulator
//! writes slice trees to a file once; the p-thread selection tool then
//! reads the file and generates p-thread sets for several machine
//! configurations quickly, without re-tracing.
//!
//! Usage: `toolflow [--jobs N] [--threads N] [--slice-mode windowed|ondemand[:N]] [--no-screen] [--policy k=v,...] [--profile] [workload[,workload...]|all] [budget] [out.slices]`
//!        `toolflow [--threads N] [--no-screen] [--profile] --read <file.slices>` (selection only, no re-tracing)
//!        `toolflow --daemon HOST:PORT [--slice-mode ...] [--policy k=v,...] [workload[,workload...]|all] [budget]` (run via preexecd)
//!
//! With several workloads the runs are scheduled over `--jobs N` worker
//! threads (default 1). Output is buffered per workload and printed in
//! submission order, so it is byte-identical for every `N`; `--jobs 1`
//! additionally *executes* serially, matching the historical behaviour.
//!
//! `--threads N` (default 1) additionally parallelizes the selection
//! stage (candidate scoring and per-tree solving) *inside* each workload
//! run via `preexec_core::par`; the trace and slicing are one serial pass.
//! Results are bit-identical for every `N` — the fan-outs merge in input
//! order and cross-item accumulation stays serial (DESIGN.md §11) — so
//! the two knobs compose freely:
//! `--jobs` trades throughput across workloads, `--threads` latency
//! within one.
//!
//! `--slice-mode ondemand[:N]` traces through the checkpoint-based
//! re-execution path: the trace pass records a checkpoint every N
//! emitted instructions (default 4096) and keeps no slicing window;
//! each slice is reconstructed later by replaying bounded intervals
//! from the nearest checkpoint, so peak slicing memory is
//! O(checkpoints + N) regardless of scope. stdout is byte-identical
//! with `--slice-mode windowed` (the default) — the CI determinism
//! matrix diffs the two. With `--daemon` the mode travels in the
//! submit batch as the `policy` object's `slice_mode`/`checkpoint_every`
//! fields.
//!
//! `--no-screen` disables the static ADVagg screening pre-pass of the
//! selection stage and scores every candidate exactly. The screen is
//! admissible — it only skips candidates that provably cannot score
//! positive — so stdout is byte-identical with and without the flag; the
//! CI screening leg diffs the two. The flag exists for benchmarking the
//! exact path and bisecting suspected screen regressions.
//!
//! `--policy key=val,...` sets any field of the unified
//! [`PolicySpec`] directly: `slice_mode=windowed|ondemand[:N]`,
//! `screening=BOOL`, `deadline_ms=N`; any other key exits 2. The
//! spelling composes with the dedicated flags (`--no-screen`,
//! `--slice-mode`): restating the same value both ways is fine, but a
//! flag and a `--policy` entry naming *different* values for one key
//! exit 2 with the typed `config.conflicting_policy` error. In
//! `--daemon` mode the whole spec travels as the protocol's nested
//! `policy` object.
//!
//! `--profile` prints a per-stage wall-clock profile table (count, total,
//! mean, p50/p99 bounds, max — from the [`preexec_obs`] registry) to
//! *stderr* after the run. stdout is byte-identical with and without the
//! flag; the observability layer records but never feeds back into the
//! analysis.
//!
//! Exit codes:
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | success |
//! | 2 | usage error: unknown workload, unparsable budget, or bad flags |
//! | 3 | filesystem I/O error |
//! | 4 | corrupt slice file (recovered results, if any, are still printed) |
//! | 5 | pipeline fault (trace/slice/selection error) or a job panic |
//!
//! With several workloads every job's buffered output is printed (in
//! submission order) and the process exits with the first failing
//! workload's code; a job lost to a panic contributes code 5. One
//! failing job can never be masked by a later success.
//!
//! Every workload is known up front, so a local run submits them all as
//! one batch into a scheduler queue sized to hold it. Each job builds
//! its own program, so a queued job holds none.
//!
//! `--daemon HOST:PORT` runs the workloads through a preexecd instead
//! of in-process: one pipelined `submit_batch` over a single connection,
//! then per-job status polls and `result` fetches. When the daemon sheds
//! the batch as `overloaded`, it is retried with the shared jittered
//! backoff of [`preexec_serve::retry`], honoring `retry_after_ms`; a
//! batch larger than the daemon's queue is `queue_full` and exits 5 at
//! once. The daemon owns execution and the artifact cache, so
//! `--jobs`/`--threads` do not apply. The exit-code contract is
//! unchanged: results print in submission order and the first failing
//! job's code (5 for pipeline faults and panics) wins.

use preexec_core::{try_select_pthreads_stats, Parallelism, SelectionParams};
use preexec_experiments::{
    Pipeline, PipelineError, PolicySpec, SlicingMode, DEFAULT_CHECKPOINT_EVERY,
};
use preexec_serve::json::Json;
use preexec_serve::proto::policy_json;
use preexec_serve::retry::Backoff;
use preexec_serve::scheduler::{JobCompletion, JobFn, Scheduler};
use preexec_slice::{read_forest, read_forest_lenient, write_forest, SliceForest};
use preexec_workloads::{suite, InputSet, Workload};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

/// A CLI failure: the message for stderr plus the process exit code.
struct Failure {
    code: u8,
    message: String,
}

impl Failure {
    fn new(code: u8, message: impl Into<String>) -> Failure {
        Failure {
            code,
            message: message.into(),
        }
    }
}

/// One workload's buffered run: everything it would have printed, plus
/// its exit code. Buffering is what makes `--jobs N` output
/// deterministic — lines never interleave across workloads.
#[derive(Clone, Default)]
struct JobReport {
    stdout: String,
    stderr: String,
    code: u8,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(f) => {
            eprintln!("toolflow: {}", f.message);
            ExitCode::from(f.code)
        }
    }
}

fn run(args: &[String]) -> Result<u8, Failure> {
    let mut jobs: usize = 1;
    let mut threads: usize = 1;
    let mut profile = false;
    // Dedicated flags and `--policy` entries are tracked separately as
    // "given or not": a key named by both with different values is a
    // contradiction, not an override order.
    let mut screen_flag: Option<bool> = None;
    let mut slicing_flag: Option<SlicingMode> = None;
    let mut pol = PolicyOverrides::default();
    let mut daemon: Option<String> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--profile" => profile = true,
            "--no-screen" => screen_flag = Some(false),
            "--slice-mode" => {
                let v = it.next().ok_or_else(|| {
                    Failure::new(2, "--slice-mode needs windowed or ondemand[:N]")
                })?;
                slicing_flag = Some(parse_slice_mode(v)?);
            }
            "--policy" => {
                let v = it
                    .next()
                    .ok_or_else(|| Failure::new(2, "--policy needs key=val[,key=val...]"))?;
                parse_policy_overrides(v, &mut pol)?;
            }
            "--daemon" => {
                let v = it
                    .next()
                    .ok_or_else(|| Failure::new(2, "--daemon needs HOST:PORT"))?;
                daemon = Some(v.clone());
            }
            "--jobs" => {
                let v = it
                    .next()
                    .ok_or_else(|| Failure::new(2, "--jobs needs a value"))?;
                jobs = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| Failure::new(2, format!("bad job count `{v}`")))?;
            }
            "--threads" => {
                let v = it
                    .next()
                    .ok_or_else(|| Failure::new(2, "--threads needs a value"))?;
                threads = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| Failure::new(2, format!("bad thread count `{v}`")))?;
            }
            // Selection-only mode: the whole point of the decoupled
            // toolflow is that pass 2 can rerun without re-tracing.
            "--read" => {
                let path = it
                    .next()
                    .ok_or_else(|| Failure::new(2, "usage: toolflow --read <file.slices>"))?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| Failure::new(3, format!("reading {path}: {e}")))?;
                let screening =
                    merge_policy("screening", screen_flag, pol.screening)?.unwrap_or(true);
                let mut report = JobReport::default();
                read_and_select(
                    path,
                    &text,
                    Parallelism::new(threads),
                    screening,
                    &mut report,
                );
                print!("{}", report.stdout);
                eprint!("{}", report.stderr);
                if profile {
                    print_profile();
                }
                return Ok(report.code);
            }
            other if other.starts_with("--") => {
                return Err(Failure::new(2, format!("unknown option `{other}`")));
            }
            _ => positional.push(arg),
        }
    }

    let names = positional.first().map_or("vpr.r", |s| s.as_str());
    let budget: u64 = match positional.get(1) {
        None => 150_000,
        Some(s) => s
            .parse()
            .map_err(|_| Failure::new(2, format!("budget `{s}` is not a number")))?,
    };

    let workloads = suite();
    let selected: Vec<&Workload> = if names == "all" {
        workloads.iter().collect()
    } else {
        names
            .split(',')
            .map(|name| {
                workloads.iter().find(|w| w.name == name).ok_or_else(|| {
                    let avail: Vec<&str> = workloads.iter().map(|w| w.name).collect();
                    Failure::new(
                        2,
                        format!("unknown workload `{name}`; available: {}", avail.join(", ")),
                    )
                })
            })
            .collect::<Result<_, _>>()?
    };
    if selected.len() > 1 && positional.get(2).is_some() {
        return Err(Failure::new(
            2,
            "an explicit output path only works with a single workload",
        ));
    }

    // Resolve flags + `--policy` entries into the one PolicySpec every
    // execution path (local, daemon) consumes.
    let mut spec = PolicySpec::paper_default(budget);
    if let Some(m) = merge_policy("slice_mode", slicing_flag, pol.slicing)? {
        spec.slicing = m;
    }
    spec.screening = merge_policy("screening", screen_flag, pol.screening)?.unwrap_or(true);
    spec.deadline_ms = pol.deadline_ms;
    if let Err(e) = spec.try_validate() {
        return Err(Failure::new(2, format!("{e} ({})", e.code())));
    }

    if let Some(addr) = daemon {
        if positional.get(2).is_some() {
            return Err(Failure::new(
                2,
                "an output path does not apply with --daemon",
            ));
        }
        let code = run_daemon(&addr, &selected, budget, &spec)?;
        return Ok(code);
    }

    // Submit every workload as one batch into a queue sized to hold it;
    // buffer each job's output and print in submission order. Each job
    // builds its own program, so a queued job holds none.
    let sched: Scheduler<JobReport> = Scheduler::new(jobs, selected.len());
    let batch: Vec<JobFn<JobReport>> = selected
        .iter()
        .map(|&&w| {
            let path = positional
                .get(2)
                .map_or_else(|| format!("{}.slices", w.name), |p| p.to_string());
            let par = Parallelism::new(threads);
            Box::new(move |_id| {
                let program = w.build(InputSet::Train);
                JobCompletion::Done(run_workload(w.name, &program, spec, &path, par))
            }) as JobFn<JobReport>
        })
        .collect();
    let ids = sched
        .submit_batch(batch)
        .map_err(|e| Failure::new(5, format!("submitting the workloads: {e}")))?;
    sched.drain();

    let mut first_bad: u8 = 0;
    for id in ids {
        // Workers convert panics into Panicked; print what the job
        // buffered (or a synthesized report for a lost one) and keep
        // going — one bad job must not swallow its siblings' output.
        let report = match sched.completion(id) {
            Some(JobCompletion::Done(report)) => report,
            Some(JobCompletion::Panicked(msg)) => {
                let mut r = JobReport::default();
                let _ = writeln!(r.stderr, "toolflow: job {id} panicked: {msg}");
                r.code = 5;
                r
            }
            _ => {
                let mut r = JobReport::default();
                let _ = writeln!(r.stderr, "toolflow: job {id} died unexpectedly");
                r.code = 5;
                r
            }
        };
        print!("{}", report.stdout);
        eprint!("{}", report.stderr);
        if first_bad == 0 && report.code != 0 {
            first_bad = report.code;
        }
    }
    sched.shutdown();
    if profile {
        print_profile();
    }
    Ok(first_bad)
}

/// The policy fields `--policy key=val,...` may set. `None` means "not
/// given", so a dedicated flag can still supply the value — and so a
/// flag/`--policy` contradiction is detectable.
#[derive(Default)]
struct PolicyOverrides {
    slicing: Option<SlicingMode>,
    screening: Option<bool>,
    deadline_ms: Option<u64>,
}

/// Parses one `--policy key=val[,key=val...]` argument into `pol`.
/// Repeated keys (across entries or flags) keep the last value.
fn parse_policy_overrides(v: &str, pol: &mut PolicyOverrides) -> Result<(), Failure> {
    for kv in v.split(',') {
        let (key, val) = kv.split_once('=').ok_or_else(|| {
            Failure::new(2, format!("bad --policy entry `{kv}` (want key=value)"))
        })?;
        match key {
            "slice_mode" => pol.slicing = Some(parse_slice_mode(val)?),
            "screening" => pol.screening = Some(parse_policy_bool(key, val)?),
            "deadline_ms" => pol.deadline_ms = Some(parse_policy_u64(key, val)?),
            _ => return Err(Failure::new(2, format!("unknown --policy key `{key}`"))),
        }
    }
    Ok(())
}

fn parse_policy_bool(key: &str, val: &str) -> Result<bool, Failure> {
    match val {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(Failure::new(
            2,
            format!("--policy {key} wants true or false, got `{val}`"),
        )),
    }
}

fn parse_policy_u64(key: &str, val: &str) -> Result<u64, Failure> {
    val.parse()
        .map_err(|_| Failure::new(2, format!("--policy {key} wants a number, got `{val}`")))
}

/// Merges a dedicated flag's value with a `--policy` entry for the same
/// key. Both given with different values is the typed policy
/// contradiction (`config.conflicting_policy`, exit 2); otherwise
/// whichever was given wins.
fn merge_policy<T: PartialEq>(
    key: &'static str,
    flag: Option<T>,
    policy: Option<T>,
) -> Result<Option<T>, Failure> {
    match (flag, policy) {
        (Some(f), Some(p)) if f != p => {
            let e = PipelineError::ConflictingPolicy { key };
            Err(Failure::new(2, format!("{e} ({})", e.code())))
        }
        (f, p) => Ok(p.or(f)),
    }
}

/// Parses a `--slice-mode` value: `windowed`, `ondemand`, or
/// `ondemand:N` (checkpoint cadence; 0 means the default).
fn parse_slice_mode(v: &str) -> Result<SlicingMode, Failure> {
    if v == "windowed" {
        return Ok(SlicingMode::Windowed);
    }
    if v == "ondemand" {
        return Ok(SlicingMode::OnDemand {
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
        });
    }
    if let Some(n) = v.strip_prefix("ondemand:") {
        let every: u64 = n
            .parse()
            .map_err(|_| Failure::new(2, format!("bad checkpoint cadence `{n}`")))?;
        return Ok(SlicingMode::OnDemand {
            checkpoint_every: if every == 0 {
                DEFAULT_CHECKPOINT_EVERY
            } else {
                every
            },
        });
    }
    Err(Failure::new(
        2,
        format!("bad slice mode `{v}` (windowed or ondemand[:N])"),
    ))
}

/// One connection to a preexecd, with the line-oriented request/response
/// helper daemon mode needs. Requests carry no `id`: this client reads
/// each response before writing the next request, so ordering alone
/// matches them up.
struct DaemonConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl DaemonConn {
    fn connect(addr: &str) -> Result<DaemonConn, Failure> {
        let writer = TcpStream::connect(addr)
            .map_err(|e| Failure::new(3, format!("connecting to daemon at {addr}: {e}")))?;
        let reader = writer
            .try_clone()
            .map_err(|e| Failure::new(3, format!("daemon socket at {addr}: {e}")))?;
        Ok(DaemonConn {
            reader: BufReader::new(reader),
            writer,
        })
    }

    fn exchange(&mut self, req: &Json) -> Result<Json, Failure> {
        let mut line = req.encode();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| Failure::new(3, format!("writing to daemon: {e}")))?;
        let mut resp = String::new();
        let n = self
            .reader
            .read_line(&mut resp)
            .map_err(|e| Failure::new(3, format!("reading from daemon: {e}")))?;
        if n == 0 {
            return Err(Failure::new(3, "daemon closed the connection"));
        }
        Json::parse(resp.trim_end())
            .map_err(|e| Failure::new(3, format!("daemon sent unparsable JSON: {e}")))
    }
}

/// Daemon mode: one `submit_batch` for every selected workload (retried
/// with jittered backoff while the daemon sheds it as `overloaded`),
/// then status polls and `result` fetches, reported in submission order
/// under the local exit-code contract.
fn run_daemon(
    addr: &str,
    selected: &[&Workload],
    budget: u64,
    spec: &PolicySpec,
) -> Result<u8, Failure> {
    let mut conn = DaemonConn::connect(addr)?;
    let submit = Json::obj(vec![
        ("cmd", Json::str("submit_batch")),
        (
            "jobs",
            Json::Arr(
                selected
                    .iter()
                    .map(|w| {
                        Json::obj(vec![
                            ("workload", Json::str(w.name)),
                            ("budget", Json::num_u64(budget)),
                            ("policy", policy_json(spec)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut backoff = Backoff::new(50, 5_000, 0x700f);
    let ids: Vec<u64> = loop {
        let resp = conn.exchange(&submit)?;
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            let ids: Vec<u64> = resp
                .get("jobs")
                .and_then(Json::as_arr)
                .map(|arr| arr.iter().filter_map(Json::as_u64).collect())
                .unwrap_or_default();
            if ids.len() != selected.len() {
                return Err(Failure::new(
                    5,
                    format!(
                        "daemon acked {} of {} batch jobs",
                        ids.len(),
                        selected.len()
                    ),
                ));
            }
            break ids;
        }
        let code = resp.get("code").and_then(Json::as_str).unwrap_or("");
        // The whole batch sheds as one typed `overloaded`; honor its
        // retry_after_ms floor, give up after a bounded number of tries.
        if code == "overloaded" && backoff.attempts() < 8 {
            let hint = resp.get("retry_after_ms").and_then(Json::as_u64);
            let delay = backoff.next_delay_ms(hint);
            std::thread::sleep(Duration::from_millis(delay));
            continue;
        }
        let err = resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown error");
        return Err(Failure::new(5, format!("daemon rejected the batch: {err}")));
    };

    let mut first_bad: u8 = 0;
    for (w, &id) in selected.iter().zip(&ids) {
        let report = fetch_daemon_report(&mut conn, w.name, id)?;
        print!("{}", report.stdout);
        eprint!("{}", report.stderr);
        if first_bad == 0 && report.code != 0 {
            first_bad = report.code;
        }
    }
    Ok(first_bad)
}

/// Waits for one daemon job to reach a terminal state and renders its
/// `result` as a buffered report: code 0 for `done`/`timed_out` (a
/// timing watchdog cut keeps a valid prefix; it is not a failure), 5 for
/// a failed, cancelled, or panicked job — mirroring what a local run of
/// the same fault would exit with.
fn fetch_daemon_report(conn: &mut DaemonConn, name: &str, job: u64) -> Result<JobReport, Failure> {
    let status = Json::obj(vec![
        ("cmd", Json::str("status")),
        ("job", Json::num_u64(job)),
    ]);
    loop {
        let resp = conn.exchange(&status)?;
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            let err = resp
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown error");
            return Err(Failure::new(
                5,
                format!("status of job {job} ({name}): {err}"),
            ));
        }
        match resp.get("state").and_then(Json::as_str) {
            Some("queued" | "running") => std::thread::sleep(Duration::from_millis(20)),
            _ => break,
        }
    }
    let resp = conn.exchange(&Json::obj(vec![
        ("cmd", Json::str("result")),
        ("job", Json::num_u64(job)),
    ]))?;
    let mut report = JobReport::default();
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        let err = resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown error");
        let _ = writeln!(
            report.stderr,
            "toolflow: result of job {job} ({name}): {err}"
        );
        report.code = 5;
        return Ok(report);
    }
    match resp.get("state").and_then(Json::as_str) {
        Some("done" | "timed_out") => {
            let result = resp.get("result").cloned().unwrap_or(Json::Null);
            let trace = result.get("trace").cloned().unwrap_or(Json::Null);
            let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
            let fnum = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let _ = writeln!(
                report.stdout,
                "{name}: daemon job {job}: {} insts, {} L2 misses, {} p-threads, \
                 speedup {:.3}, coverage {:.1}%{}",
                num(&trace, "insts"),
                num(&trace, "l2_misses"),
                num(&result, "num_pthreads"),
                fnum("speedup"),
                fnum("coverage_pct"),
                if result.get("cache_hit").and_then(Json::as_bool) == Some(true) {
                    " (cache hit)"
                } else {
                    ""
                },
            );
        }
        state => {
            let err = resp
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown error");
            let code = resp.get("code").and_then(Json::as_str).unwrap_or("unknown");
            let _ = writeln!(
                report.stderr,
                "toolflow: {name}: daemon job {job} {}: {err} ({code})",
                state.unwrap_or("lost"),
            );
            report.code = 5;
        }
    }
    Ok(report)
}

/// Prints the per-stage wall-clock profile from the global metrics
/// registry to stderr. Reading the registry here — after all analysis
/// work has finished — keeps the no-perturbation contract: stdout (the
/// results) is identical with or without `--profile`.
fn print_profile() {
    let snap = preexec_obs::global().snapshot();
    eprintln!("toolflow profile (wall clock per stage):");
    eprintln!(
        "  {:<20} {:>7} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "total_ms", "mean_ms", "p50_ms", "p99_ms", "max_ms"
    );
    let ms = |us: u64| us as f64 / 1000.0;
    for (name, h) in snap
        .histograms
        .iter()
        .filter(|(n, _)| n.starts_with("stage."))
    {
        eprintln!(
            "  {:<20} {:>7} {:>12.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            name,
            h.count(),
            ms(h.sum_us()),
            h.mean_us() / 1000.0,
            ms(h.quantile_us(0.5)),
            ms(h.quantile_us(0.99)),
            ms(h.max_us()),
        );
    }
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    eprintln!(
        "  par: calls={} items={} busy_us={} wall_us={}",
        counter("par.calls"),
        counter("par.items"),
        counter("par.busy_us"),
        counter("par.wall_us"),
    );
    eprintln!(
        "  select: candidates={} pthreads={}",
        counter("select.candidates"),
        counter("select.pthreads"),
    );
}

/// Runs one workload end to end (pass 1 trace+write, pass 2
/// read+select), entirely into the report's buffers.
fn run_workload(
    name: &str,
    program: &preexec_isa::Program,
    spec: PolicySpec,
    path: &str,
    par: Parallelism,
) -> JobReport {
    let mut report = JobReport::default();
    // Pass 1 (expensive, once): trace and slice, write the file. The
    // spec defaults match the paper toolflow (scope 1024, slice len
    // 32); `ondemand` slicing swaps in the checkpointed re-execution
    // path, with a byte-identical forest.
    let (forest, stats) = match Pipeline::new(program).policy(spec).parallelism(par).trace() {
        Ok(arts) => (arts.forest, arts.stats),
        Err(e) => {
            let _ = writeln!(report.stderr, "toolflow: tracing {name}: {e}");
            report.code = 5;
            return report;
        }
    };
    if let Err(e) = std::fs::write(path, write_forest(&forest)) {
        let _ = writeln!(report.stderr, "toolflow: writing {path}: {e}");
        report.code = 3;
        return report;
    }
    let _ = writeln!(
        report.stdout,
        "{name}: traced {} insts, {} L2 misses -> {} slice trees written to {path}",
        stats.insts,
        stats.l2_misses,
        forest.num_trees()
    );

    // Pass 2 (cheap, many times): read the file back and select p-thread
    // sets for several configurations.
    match std::fs::read_to_string(path) {
        Ok(text) => read_and_select(path, &text, par, spec.screening, &mut report),
        Err(e) => {
            let _ = writeln!(report.stderr, "toolflow: reading {path}: {e}");
            report.code = 3;
        }
    }
    report
}

/// Pass 2: parse a slice file (strictly, with best-effort recovery on
/// corruption) and report p-thread selections.
fn read_and_select(
    path: &str,
    text: &str,
    par: Parallelism,
    screening: bool,
    report: &mut JobReport,
) {
    match read_forest(text) {
        Ok(forest) => select_and_report(&forest, par, screening, report),
        Err(strict_err) => {
            // Corruption always exits nonzero, but salvage what we can
            // first: a partially recovered forest still yields a usable
            // (if under-covered) p-thread set.
            let _ = writeln!(report.stderr, "toolflow: {path}: {strict_err}");
            let recovered = read_forest_lenient(text);
            for d in &recovered.diagnostics {
                let _ = writeln!(report.stderr, "toolflow: {path}: {d}");
            }
            if recovered.forest.num_trees() > 0 {
                let _ = writeln!(
                    report.stderr,
                    "toolflow: {path}: recovered {} trees ({} skipped); results below are partial",
                    recovered.forest.num_trees(),
                    recovered.skipped_trees
                );
                select_and_report(&recovered.forest, par, screening, report);
            }
            let _ = writeln!(
                report.stderr,
                "toolflow: {path}: corrupt slice file ({} trees recovered, {} skipped)",
                recovered.forest.num_trees(),
                recovered.skipped_trees
            );
            report.code = 4;
        }
    }
}

/// Selects and prints p-thread sets for several machine configurations.
/// The selected sets — and therefore stdout — are byte-identical with
/// screening on or off; the flag only changes how much exact scoring
/// work the selection stage performs.
fn select_and_report(
    forest: &SliceForest,
    par: Parallelism,
    screening: bool,
    report: &mut JobReport,
) {
    for (label, params) in [
        (
            "8-wide, 78-cycle misses",
            SelectionParams {
                bw_seq: 8.0,
                ipc: 0.5,
                miss_latency: 78.0,
                ..SelectionParams::default()
            },
        ),
        (
            "8-wide, 148-cycle misses",
            SelectionParams {
                bw_seq: 8.0,
                ipc: 0.5,
                miss_latency: 148.0,
                ..SelectionParams::default()
            },
        ),
        (
            "4-wide, 78-cycle misses",
            SelectionParams {
                bw_seq: 4.0,
                ipc: 0.5,
                miss_latency: 78.0,
                ..SelectionParams::default()
            },
        ),
        (
            "no optimization",
            SelectionParams {
                ipc: 0.5,
                optimize: false,
                ..SelectionParams::default()
            },
        ),
    ] {
        if let Err(e) = params.try_validate() {
            let _ = writeln!(
                report.stderr,
                "toolflow: selection parameters [{label}]: {e}"
            );
            report.code = 5;
            return;
        }
        let sel = match try_select_pthreads_stats(forest, &params, par, screening) {
            Ok((sel, _, _)) => sel,
            Err(e) => {
                let _ = writeln!(report.stderr, "toolflow: selecting [{label}]: {e}");
                report.code = 5;
                return;
            }
        };
        let _ = writeln!(
            report.stdout,
            "  [{label}] {} p-threads, predicted coverage {}/{} misses, avg len {:.1}",
            sel.pthreads.len(),
            sel.prediction.misses_covered,
            forest.total_misses(),
            sel.prediction.avg_pthread_len
        );
    }
}
