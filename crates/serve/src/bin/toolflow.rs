//! The paper's decoupled toolflow (§4.1): the functional cache simulator
//! writes slice trees to a file once; the p-thread selection tool then
//! reads the file and generates p-thread sets for several machine
//! configurations quickly, without re-tracing.
//!
//! Usage: `toolflow [--jobs N] [--profile] [workload[,workload...]|all] [budget] [out.slices]`
//!        `toolflow [--profile] --read <file.slices>` (selection only, no re-tracing)
//!        `toolflow --daemon HOST:PORT [workload[,workload...]|all] [budget]` (run via preexecd)
//!
//! Every argument is parsed before anything runs, so an option's place
//! on the command line never matters. An unknown option anywhere exits
//! 2, and so do the combinations that would otherwise be ignored: a
//! workload, budget or output path given with `--read`, `--read` with
//! `--daemon`, and `--jobs` with `--daemon`.
//!
//! Each workload runs the one analysis path the suite benchmark
//! measures: windowed slicing, then serial selection behind the static
//! ADVagg screen.
//!
//! With several workloads the runs are scheduled over `--jobs N` worker
//! threads (default 1). Output is buffered per workload and printed in
//! submission order, so it is byte-identical for every `N`; `--jobs 1`
//! additionally *executes* serially, matching the historical behaviour.
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
//! once. The daemon owns execution and the artifact cache. The
//! exit-code contract is unchanged: results print in submission order
//! and the first failing job's code (5 for pipeline faults and panics)
//! wins.

use preexec_core::{try_select_pthreads_stats, Parallelism, SelectionParams};
use preexec_experiments::{Pipeline, PolicySpec};
use preexec_serve::json::Json;
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

/// The whole command line, parsed before anything runs.
#[derive(Default)]
struct Args {
    jobs: Option<usize>,
    profile: bool,
    read: Option<String>,
    daemon: Option<String>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, Failure> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |usage: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| Failure::new(2, usage.to_string()))
        };
        match arg.as_str() {
            "--profile" => parsed.profile = true,
            // Selection-only mode: the whole point of the decoupled
            // toolflow is that pass 2 can rerun without re-tracing.
            "--read" => parsed.read = Some(value("usage: toolflow --read <file.slices>")?),
            "--daemon" => parsed.daemon = Some(value("--daemon needs HOST:PORT")?),
            "--jobs" => {
                let v = value("--jobs needs a value")?;
                let n = v.parse().ok().filter(|&n| n >= 1);
                parsed.jobs =
                    Some(n.ok_or_else(|| Failure::new(2, format!("bad job count `{v}`")))?);
            }
            other if other.starts_with("--") => {
                return Err(Failure::new(2, format!("unknown option `{other}`")));
            }
            _ => parsed.positional.push(arg.clone()),
        }
    }
    // Combinations one mode would silently ignore are usage errors.
    if parsed.read.is_some() && !parsed.positional.is_empty() {
        return Err(Failure::new(
            2,
            "--read takes no workload, budget or output path",
        ));
    }
    if parsed.read.is_some() && parsed.daemon.is_some() {
        return Err(Failure::new(2, "--read does not apply with --daemon"));
    }
    if parsed.jobs.is_some() && parsed.daemon.is_some() {
        return Err(Failure::new(
            2,
            "--jobs does not apply with --daemon: the daemon owns execution",
        ));
    }
    Ok(parsed)
}

fn run(args: &[String]) -> Result<u8, Failure> {
    let args = parse_args(args)?;
    if let Some(path) = &args.read {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Failure::new(3, format!("reading {path}: {e}")))?;
        let mut report = JobReport::default();
        read_and_select(path, &text, &mut report);
        print!("{}", report.stdout);
        eprint!("{}", report.stderr);
        if args.profile {
            print_profile();
        }
        return Ok(report.code);
    }

    let positional = &args.positional;
    let names = positional.first().map_or("vpr.r", String::as_str);
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

    let spec = PolicySpec::paper_default(budget);
    if let Err(e) = spec.try_validate() {
        return Err(Failure::new(2, format!("{e} ({})", e.code())));
    }

    if let Some(addr) = &args.daemon {
        if positional.get(2).is_some() {
            return Err(Failure::new(
                2,
                "an output path does not apply with --daemon",
            ));
        }
        return run_daemon(addr, &selected, budget);
    }

    // Submit every workload as one batch into a queue sized to hold it;
    // buffer each job's output and print in submission order. Each job
    // builds its own program, so a queued job holds none.
    let sched: Scheduler<JobReport> = Scheduler::new(args.jobs.unwrap_or(1), selected.len());
    let batch: Vec<JobFn<JobReport>> = selected
        .iter()
        .map(|&&w| {
            let path = positional
                .get(2)
                .map_or_else(|| format!("{}.slices", w.name), String::clone);
            Box::new(move |_id| {
                let program = w.build(InputSet::Train);
                JobCompletion::Done(run_workload(w.name, &program, spec, &path))
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
    if args.profile {
        print_profile();
    }
    Ok(first_bad)
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
fn run_daemon(addr: &str, selected: &[&Workload], budget: u64) -> Result<u8, Failure> {
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
) -> JobReport {
    let mut report = JobReport::default();
    // Pass 1 (expensive, once): trace and slice, write the file. The
    // spec defaults match the paper toolflow (scope 1024, slice len
    // 32).
    let (forest, stats) = match Pipeline::new(program).policy(spec).trace() {
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
        Ok(text) => read_and_select(path, &text, &mut report),
        Err(e) => {
            let _ = writeln!(report.stderr, "toolflow: reading {path}: {e}");
            report.code = 3;
        }
    }
    report
}

/// Pass 2: parse a slice file (strictly, with best-effort recovery on
/// corruption) and report p-thread selections.
fn read_and_select(path: &str, text: &str, report: &mut JobReport) {
    match read_forest(text) {
        Ok(forest) => select_and_report(&forest, report),
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
                select_and_report(&recovered.forest, report);
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

/// Selects and prints p-thread sets for several machine configurations,
/// on the pipeline's own selection path: serial, behind the static
/// screen.
fn select_and_report(forest: &SliceForest, report: &mut JobReport) {
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
        let sel = match try_select_pthreads_stats(forest, &params, Parallelism::serial(), true) {
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
