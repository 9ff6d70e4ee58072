//! End-to-end daemon test: spawn `preexecd` on an ephemeral port, drive
//! it over TCP with the newline-delimited JSON protocol, and check that
//! served results are bit-identical to a direct in-process pipeline run
//! and that every response carries protocol version 10.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec_experiments::{Pipeline, PipelineConfig, PipelineResult};
use preexec_serve::{JobJournal, JournalReplay, Json, Server};
use preexec_workloads::{by_name, InputSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const BUDGET: u64 = 60_000;

/// The oracle: the same job run in process through the pipeline.
fn direct_run(workload: &str, cfg: PipelineConfig) -> PipelineResult {
    let program = by_name(workload)
        .expect("suite workload")
        .build(InputSet::Train);
    Pipeline::new(&program)
        .config(cfg)
        .run()
        .expect("direct run")
        .result
}

struct Daemon {
    child: Child,
    addr: String,
    cache_dir: std::path::PathBuf,
    /// The parent's end of the daemon's stdout, past the announce line.
    _stdout: Option<BufReader<ChildStdout>>,
}

impl Daemon {
    fn spawn() -> Daemon {
        Daemon::spawn_with(&["--workers", "2"])
    }

    /// Spawns a daemon on an ephemeral port and its own cache directory,
    /// with `args` appended.
    fn spawn_with(args: &[&str]) -> Daemon {
        // Per-spawn unique dir: tests in this binary run in parallel, and
        // a shared cache would leak artifacts (and cache hits) across
        // daemons.
        static SPAWNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = SPAWNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let cache_dir =
            std::env::temp_dir().join(format!("preexec-daemon-test-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        Daemon::spawn_in(cache_dir, args)
    }

    /// Spawns a daemon on an ephemeral port over `cache_dir` as it is,
    /// with `args` appended.
    fn spawn_in(cache_dir: std::path::PathBuf, args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_preexecd"))
            .args([
                "--port",
                "0",
                "--cache-dir",
                cache_dir.to_str().expect("utf-8 temp dir"),
            ])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawning preexecd");
        // The daemon announces its (ephemeral) address on stdout.
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut first_line = String::new();
        stdout
            .read_line(&mut first_line)
            .expect("reading the announce line");
        let addr = first_line
            .trim()
            .strip_prefix("preexecd listening on ")
            .unwrap_or_else(|| panic!("unexpected announce line: {first_line:?}"))
            .to_string();
        Daemon {
            child,
            addr,
            cache_dir,
            _stdout: Some(stdout),
        }
    }

    fn connect(&self) -> Conn {
        let stream = TcpStream::connect(&self.addr).expect("connecting to preexecd");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Conn { stream, reader }
    }

    /// Waits (bounded) for the daemon process to exit after `shutdown`,
    /// then removes its cache directory.
    fn wait_for_exit(self) {
        let _ = std::fs::remove_dir_all(self.wait_for_exit_keeping_dir());
    }

    /// Waits (bounded) for the daemon process to exit after `shutdown`;
    /// returns its cache directory, left in place.
    fn wait_for_exit_keeping_dir(mut self) -> std::path::PathBuf {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "preexecd exited with {status}");
                    break;
                }
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("preexecd did not exit within 60s of shutdown");
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        self.cache_dir
    }
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// One request/response exchange; panics on protocol-level errors
    /// and on a response without the current protocol version.
    fn roundtrip(&mut self, request: &str) -> Json {
        self.stream
            .write_all(format!("{request}\n").as_bytes())
            .expect("send");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        let resp = Json::parse(line.trim()).expect("response parses");
        assert_eq!(
            resp.get("protocol_version").and_then(Json::as_u64),
            Some(11),
            "{line}"
        );
        resp
    }

    fn ok(&mut self, request: &str) -> Json {
        let resp = self.roundtrip(request);
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "request `{request}` failed: {}",
            resp.encode()
        );
        resp
    }

    fn submit(&mut self, workload: &str) -> u64 {
        let resp = self.ok(&format!(
            r#"{{"cmd":"submit","workload":"{workload}","budget":{BUDGET}}}"#
        ));
        resp.get("job").and_then(Json::as_u64).expect("job id")
    }

    /// Polls `status` until the job reaches a terminal state.
    fn wait_done(&mut self, job: u64) {
        let deadline = Instant::now() + Duration::from_secs(300);
        loop {
            let resp = self.ok(&format!(r#"{{"cmd":"status","job":{job}}}"#));
            let state = resp.get("state").and_then(Json::as_str).expect("state");
            match state {
                "done" => return,
                "queued" | "running" => {
                    assert!(Instant::now() < deadline, "job {job} stuck in {state}");
                    std::thread::sleep(Duration::from_millis(100));
                }
                other => panic!("job {job} ended {other}: {}", resp.encode()),
            }
        }
    }

    fn result(&mut self, job: u64) -> Json {
        let resp = self.ok(&format!(r#"{{"cmd":"result","job":{job}}}"#));
        resp.get("result").cloned().expect("result payload")
    }
}

fn u64_field(json: &Json, path: &[&str]) -> u64 {
    let mut cur = json.clone();
    for key in path {
        cur = cur
            .get(key)
            .cloned()
            .unwrap_or_else(|| panic!("missing `{}` in {}", path.join("."), json.encode()));
    }
    cur.as_u64()
        .unwrap_or_else(|| panic!("`{}` not a u64 in {}", path.join("."), json.encode()))
}

#[test]
fn daemon_serves_jobs_caches_repeats_and_shuts_down() {
    let daemon = Daemon::spawn();
    let mut conn = daemon.connect();

    // Malformed input gets an error envelope, not a dropped connection.
    let bad = conn.roundtrip(r#"{"cmd":"submit"}"#);
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    assert!(bad.get("error").and_then(Json::as_str).is_some());

    // The cache-sharding peer verbs were removed in protocol v9.
    for line in [
        r#"{"cmd":"cache_get","key":"00ab34cd56ef7890"}"#,
        r#"{"cmd":"cache_put","key":"00ab34cd56ef7890","slices":"","stats":"{}"}"#,
    ] {
        let resp = conn.roundtrip(line);
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(false),
            "{line}"
        );
        assert_eq!(
            resp.get("code").and_then(Json::as_str),
            Some("unknown_cmd"),
            "{line}"
        );
    }

    // Two different jobs run concurrently on the 2-worker pool.
    let job_vpr = conn.submit("vpr.r");
    let job_mcf = conn.submit("mcf");
    assert_ne!(job_vpr, job_mcf);
    conn.wait_done(job_vpr);
    conn.wait_done(job_mcf);

    // Served results match a direct in-process pipeline run exactly.
    let cfg = PipelineConfig::paper_default(BUDGET);
    for (job, name) in [(job_vpr, "vpr.r"), (job_mcf, "mcf")] {
        let served = conn.result(job);
        let direct = direct_run(name, cfg);
        assert_eq!(
            served.get("workload").and_then(Json::as_str),
            Some(name),
            "{}",
            served.encode()
        );
        assert_eq!(served.get("cache_hit").and_then(Json::as_bool), Some(false));
        assert_eq!(u64_field(&served, &["base", "cycles"]), direct.base.cycles);
        assert_eq!(u64_field(&served, &["base", "insts"]), direct.base.insts);
        assert_eq!(
            u64_field(&served, &["assisted", "cycles"]),
            direct.assisted.cycles
        );
        assert_eq!(
            u64_field(&served, &["num_pthreads"]),
            direct.selection.pthreads.len() as u64
        );
        assert_eq!(u64_field(&served, &["trace", "insts"]), direct.stats.insts);
        assert_eq!(
            u64_field(&served, &["trace", "l2_misses"]),
            direct.stats.l2_misses
        );
    }

    // An identical resubmit is served from the artifact cache — same
    // numbers, no re-trace.
    let again = conn.submit("vpr.r");
    conn.wait_done(again);
    let served = conn.result(again);
    assert_eq!(served.get("cache_hit").and_then(Json::as_bool), Some(true));
    let direct = direct_run("vpr.r", cfg);
    assert_eq!(
        u64_field(&served, &["assisted", "cycles"]),
        direct.assisted.cycles
    );
    assert_eq!(u64_field(&served, &["stage_us", "trace"]), 0);

    // Service stats reflect the work: three done jobs, one cache hit.
    let stats = conn.ok(r#"{"cmd":"stats"}"#);
    assert_eq!(u64_field(&stats, &["jobs", "done"]), 3);
    assert_eq!(u64_field(&stats, &["jobs", "failed"]), 0);
    assert_eq!(u64_field(&stats, &["cache", "hits"]), 1);
    assert_eq!(u64_field(&stats, &["cache", "misses"]), 2);
    // The report's sections are exactly these: no `shard` (protocol
    // v9), and no screening, selection fan-out or per-job thread count
    // (protocol v11).
    let Json::Obj(fields) = &stats else {
        panic!("stats is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "ok",
            "protocol_version",
            "queue_depth",
            "queue_cap",
            "workers",
            "busy_workers",
            "utilization",
            "jobs",
            "admission",
            "journal",
            "cache",
            "stage_latency_us",
            "connections",
        ],
        "{}",
        stats.encode()
    );
    assert!(
        stats
            .get("stage_latency_us")
            .and_then(|h| h.get("base_sim"))
            .is_some(),
        "{}",
        stats.encode()
    );

    // A status poll from a second connection sees the same scheduler.
    let mut conn2 = daemon.connect();
    let resp = conn2.ok(&format!(r#"{{"cmd":"status","job":{job_vpr}}}"#));
    assert_eq!(resp.get("state").and_then(Json::as_str), Some("done"));

    // Shutdown drains and the process exits cleanly.
    let resp = conn.ok(r#"{"cmd":"shutdown"}"#);
    assert_eq!(
        resp.get("shutting_down").and_then(Json::as_bool),
        Some(true)
    );
    drop(conn);
    drop(conn2);
    daemon.wait_for_exit();
}

#[test]
fn metrics_verb_reports_the_registry_and_prometheus_text() {
    let daemon = Daemon::spawn();
    let mut conn = daemon.connect();

    // Run one real job so the stage histograms and counters have data.
    let job = conn.submit("vpr.r");
    conn.wait_done(job);

    let metrics = conn.ok(r#"{"cmd":"metrics"}"#);
    // JSON face: counters, gauges, histograms, events, plus the text.
    assert_eq!(
        u64_field(&metrics, &["counters", "sched.done"]),
        1,
        "{}",
        metrics.encode()
    );
    assert_eq!(u64_field(&metrics, &["counters", "cache.misses"]), 1);
    // (`pipeline.runs` counts the one-shot entry point, not the daemon's
    // staged path — it stays absent here.)
    assert!(u64_field(&metrics, &["counters", "select.pthreads"]) >= 1);
    assert!(u64_field(&metrics, &["counters", "server.connections"]) >= 1);
    assert!(u64_field(&metrics, &["histograms", "stage.base_sim", "count"]) >= 1);
    assert!(
        metrics
            .get("gauges")
            .and_then(|g| g.get("sched.queue_depth"))
            .is_some(),
        "{}",
        metrics.encode()
    );
    assert!(metrics.get("events").and_then(Json::as_arr).is_some());

    // Prometheus face: one text blob with the required series.
    let text = metrics
        .get("prometheus")
        .and_then(Json::as_str)
        .expect("prometheus text field");
    for series in [
        "preexec_stage_trace_us_count",
        "preexec_stage_base_sim_us_count",
        "preexec_stage_score_us_count",
        "preexec_stage_solve_us_count",
        "preexec_stage_assisted_sim_us_count",
        "preexec_cache_misses_total",
        "preexec_sched_done_total",
        "preexec_sched_queue_depth",
    ] {
        assert!(
            text.contains(series),
            "missing series `{series}` in:\n{text}"
        );
    }

    let _ = conn.ok(r#"{"cmd":"shutdown"}"#);
    drop(conn);
    daemon.wait_for_exit();
}

#[test]
fn model_width_below_the_ipc_floor_runs_to_done() {
    // A model width under the selection model's 0.05 IPC floor passes
    // config validation, so the job must run, not fail or panic.
    let daemon = Daemon::spawn();
    let mut conn = daemon.connect();
    let resp = conn.ok(r#"{"cmd":"submit","workload":"vpr.r","model_width":0.01}"#);
    let job = resp.get("job").and_then(Json::as_u64).expect("job id");
    conn.wait_done(job);
    let _ = conn.ok(r#"{"cmd":"shutdown"}"#);
    drop(conn);
    daemon.wait_for_exit();
}

#[test]
fn startup_compacts_the_journal_before_replay() {
    // First life: one job, then a clean shutdown, which compacts the
    // journal to the job's submit + done pair.
    let daemon = Daemon::spawn_with(&["--workers", "1"]);
    let mut conn = daemon.connect();
    let job = conn.submit("vpr.r");
    conn.wait_done(job);
    let result = conn.result(job).encode();
    let _ = conn.ok(r#"{"cmd":"shutdown"}"#);
    drop(conn);
    let dir = daemon.wait_for_exit_keeping_dir();
    let wal = dir.join(Server::JOURNAL_FILE);
    let pair = std::fs::read_to_string(&wal).expect("read WAL");
    assert_eq!(JournalReplay::from_text(&pair).records, 2, "{pair}");

    // The records a re-run and an unclean end leave behind the pair.
    let journal = JobJournal::open(&wal, JournalReplay::read(&wal).next_seq).expect("open WAL");
    journal.start(job);
    journal.shutdown(&[], &[job]);
    drop(journal);
    let grown = std::fs::read_to_string(&wal).expect("read WAL");
    assert_eq!(JournalReplay::from_text(&grown).records, 4, "{grown}");

    // Second life: bind compacts before it replays, so the file is the
    // pair again by the time the daemon listens, and the job answers as
    // it did.
    let daemon = Daemon::spawn_in(dir, &["--workers", "1"]);
    assert_eq!(std::fs::read_to_string(&wal).expect("read WAL"), pair);
    let mut conn = daemon.connect();
    let status = conn.ok(&format!(r#"{{"cmd":"status","job":{job}}}"#));
    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(conn.result(job).encode(), result);
    let _ = conn.ok(r#"{"cmd":"shutdown"}"#);
    drop(conn);
    daemon.wait_for_exit();
}

#[test]
fn a_recovering_daemon_outlives_a_closed_stdout() {
    // A journal holding one pending job: submitted, never finished.
    let dir = std::env::temp_dir().join(format!(
        "preexec-daemon-test-closed-stdout-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cache dir");
    let wal = dir.join(Server::JOURNAL_FILE);
    let journal = JobJournal::open(&wal, 1).expect("open WAL");
    let spec = Json::parse(r#"{"workload":"vpr.r","budget":600}"#).expect("spec parses");
    journal.submit(1, &spec);
    drop(journal);

    // A parent may close the pipe once it has read the announce line,
    // before the daemon writes the recovery line. Closing it before the
    // daemon starts makes both lines meet the closed pipe, every time;
    // the address then comes from a port picked here.
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("a free port")
        .port();
    let (read_end, write_end) = std::io::pipe().expect("pipe");
    drop(read_end);
    let mut child = Command::new(env!("CARGO_BIN_EXE_preexecd"))
        .args(["--port", &port.to_string(), "--workers", "1", "--cache-dir"])
        .arg(&dir)
        .stdout(write_end)
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawning preexecd");
    let addr = format!("127.0.0.1:{port}");
    let deadline = Instant::now() + Duration::from_secs(60);
    while TcpStream::connect(&addr).is_err() {
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("preexecd exited with {status} before it listened");
        }
        assert!(Instant::now() < deadline, "preexecd never listened");
        std::thread::sleep(Duration::from_millis(20));
    }
    let daemon = Daemon {
        child,
        addr,
        cache_dir: dir,
        _stdout: None,
    };
    let mut conn = daemon.connect();
    let status = conn.ok(r#"{"cmd":"status","job":1}"#);
    assert!(status.get("state").and_then(Json::as_str).is_some());
    conn.wait_done(1);
    let _ = conn.ok(r#"{"cmd":"shutdown"}"#);
    drop(conn);
    daemon.wait_for_exit();
}

#[test]
fn handler_threads_are_reaped_across_many_connections() {
    // Regression test for the accept loop collecting every JoinHandle
    // until shutdown: a long-lived daemon serving N short connections
    // must not hold N dead handler threads. The `connections` stats
    // gauge reports the accept loop's live-handler count after its
    // last reap.
    let daemon = Daemon::spawn();
    const SHORT_LIVED: u64 = 40;
    for _ in 0..SHORT_LIVED {
        let mut conn = daemon.connect();
        conn.ok(r#"{"cmd":"stats"}"#);
        // Dropping closes the socket; the handler sees EOF and exits.
    }

    // Poll stats until the accept loop has observed the closures. Each
    // poll is itself a fresh connection (whose accept re-runs the reap),
    // so a small non-zero floor of live handlers is expected.
    let deadline = Instant::now() + Duration::from_secs(30);
    let live = loop {
        let mut conn = daemon.connect();
        let stats = conn.ok(r#"{"cmd":"stats"}"#);
        let total = u64_field(&stats, &["connections", "total"]);
        assert!(
            total > SHORT_LIVED,
            "accept loop missed connections: {total}"
        );
        let live = u64_field(&stats, &["connections", "live_handlers"]);
        if live <= 4 {
            break live;
        }
        assert!(
            Instant::now() < deadline,
            "handlers never reaped: {live} still live after {total} connections"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    assert!(
        live <= 4,
        "{live} handlers live after {SHORT_LIVED} short connections"
    );

    let mut conn = daemon.connect();
    conn.ok(r#"{"cmd":"shutdown"}"#);
    drop(conn);
    daemon.wait_for_exit();
}

#[test]
fn a_batch_larger_than_the_queue_is_queue_full_without_a_retry_hint() {
    // An idle daemon whose queue holds two jobs: no wait would ever
    // admit a batch of three, so the answer is final and carries no hint.
    let daemon = Daemon::spawn_with(&["--workers", "1", "--queue-cap", "2", "--no-journal"]);
    let mut conn = daemon.connect();
    let jobs = ["vpr.r", "mcf", "gap"]
        .map(|w| format!(r#"{{"workload":"{w}","budget":30000}}"#))
        .join(",");
    let resp = conn.roundtrip(&format!(r#"{{"cmd":"submit_batch","jobs":[{jobs}]}}"#));
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get("code").and_then(Json::as_str),
        Some("queue_full"),
        "{}",
        resp.encode()
    );
    assert!(resp.get("retry_after_ms").is_none(), "{}", resp.encode());
    let msg = resp.get("error").and_then(Json::as_str).expect("message");
    assert!(
        msg.contains('3') && msg.contains('2') && !msg.contains("retry"),
        "{msg}"
    );
    // Nothing was queued or shed, and the admission report is the
    // EWMA and the shed count only.
    let stats = conn.ok(r#"{"cmd":"stats"}"#);
    assert_eq!(u64_field(&stats, &["jobs", "submitted"]), 0);
    let Some(Json::Obj(admission)) = stats.get("admission") else {
        panic!("no admission report: {}", stats.encode());
    };
    let keys: Vec<&str> = admission.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["mean_job_ms", "shed"]);
    assert_eq!(u64_field(&stats, &["admission", "shed"]), 0);

    // The batch client gives up at once instead of backing off.
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_toolflow"))
        .args(["--daemon", &daemon.addr, "vpr.r,mcf,gap", "20000"])
        .output()
        .expect("running toolflow");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(5), "stderr:\n{stderr}");
    assert!(stderr.contains("capacity of 2"), "stderr:\n{stderr}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "toolflow took {:?} to give up",
        start.elapsed()
    );

    conn.ok(r#"{"cmd":"shutdown"}"#);
    drop(conn);
    daemon.wait_for_exit();
}

#[test]
fn removed_shard_flags_are_usage_errors() {
    // `--threaded`, `--high-water` and `--job-threads` are gone too: the
    // daemon has one front end, one overload wall, and no per-job thread
    // count.
    for (args, option) in [
        (
            &["--shard-id", "0", "--shard-peers", "a,b"][..],
            "--shard-id",
        ),
        (&["--threaded"][..], "--threaded"),
        (&["--high-water", "3"][..], "--high-water"),
        (&["--job-threads", "2"][..], "--job-threads"),
    ] {
        // The trailing `--help` makes a binary that still accepts the
        // flag print usage and exit 0 instead of serving forever.
        let out = Command::new(env!("CARGO_BIN_EXE_preexecd"))
            .args(args)
            .arg("--help")
            .output()
            .expect("running preexecd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
        assert!(
            stderr.contains(&format!("unknown option `{option}`")),
            "stderr:\n{stderr}"
        );
    }
}
