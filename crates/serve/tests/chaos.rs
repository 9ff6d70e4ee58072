//! The daemon chaos harness (DESIGN.md §14.4): drive `preexecd` through
//! the failure windows that matter — SIGKILL mid-batch, an injected
//! worker panic between the journal `start` and any terminal record, a
//! corrupted/torn WAL, failing cache stores, a submit flood past the
//! admission high-water mark — and check the durability invariants:
//!
//! - every *acknowledged* job eventually completes, byte-identically to
//!   an uninterrupted run (the pipeline is deterministic);
//! - no acked job is silently dropped, by crash, panic, or drain;
//! - overload sheds with a typed `overloaded` error and `retry_after_ms`
//!   while queue depth stays bounded;
//! - the WAL itself always passes [`preexec_serve::check_invariants`].
//!
//! Fault injection in the daemon process is configured with the
//! `PREEXEC_CHAOS` environment variable (see `preexec_serve::chaos`);
//! WAL surgery uses the deterministic corruption primitives of
//! `preexec_experiments::fault`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec_experiments::fault;
use preexec_serve::{canonical_result, check_invariants, Backoff, JobJournal, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Small budgets keep each job fast; distinct (workload, budget) pairs
/// keep cache keys distinct so every job does real work.
const BATCH: &[(&str, u64)] = &[
    ("vpr.r", 30_000),
    ("mcf", 30_000),
    ("vpr.r", 31_000),
    ("mcf", 31_000),
];

struct Daemon {
    child: Child,
    addr: String,
    /// Kept alive for the daemon's lifetime: dropping the pipe's read
    /// end would EPIPE the daemon's recovery-summary println.
    _stdout: BufReader<std::process::ChildStdout>,
}

fn unique_dir(name: &str) -> std::path::PathBuf {
    static SPAWNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = SPAWNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("preexec-chaos-{name}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

impl Daemon {
    /// Spawns `preexecd` on an ephemeral port against `cache_dir`
    /// (reused across restarts — that is the point), with extra CLI
    /// args and a `PREEXEC_CHAOS` value (`""` = no injection).
    fn spawn(cache_dir: &std::path::Path, args: &[&str], chaos: &str) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_preexecd"));
        cmd.args(["--port", "0", "--cache-dir", cache_dir.to_str().expect("utf-8 dir")])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if chaos.is_empty() {
            cmd.env_remove("PREEXEC_CHAOS");
        } else {
            cmd.env("PREEXEC_CHAOS", chaos);
        }
        let mut child = cmd.spawn().expect("spawning preexecd");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let mut first_line = String::new();
        reader.read_line(&mut first_line).expect("reading the announce line");
        let addr = first_line
            .trim()
            .strip_prefix("preexecd listening on ")
            .unwrap_or_else(|| panic!("unexpected announce line: {first_line:?}"))
            .to_string();
        Daemon { child, addr, _stdout: reader }
    }

    fn connect(&self) -> Conn {
        let stream = TcpStream::connect(&self.addr).expect("connecting to preexecd");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Conn { stream, reader }
    }

    /// SIGKILL — no drain, no flush, the crash being tested.
    fn sigkill(mut self) {
        self.child.kill().expect("kill");
        let _ = self.child.wait();
    }

    /// Graceful: `shutdown` verb, then bounded wait for a clean exit.
    fn shutdown(mut self) -> Json {
        let mut conn = self.connect();
        let resp = conn.ok(r#"{"cmd":"shutdown"}"#);
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "preexecd exited with {status}");
                    break;
                }
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("preexecd did not exit within 120s of shutdown");
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        resp
    }
}

impl Drop for Daemon {
    /// A panicking test must not leak the daemon: a live child keeps the
    /// harness's inherited stderr pipe open, which wedges `cargo test`
    /// long after the test itself has died.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn roundtrip(&mut self, request: &str) -> Json {
        self.stream.write_all(format!("{request}\n").as_bytes()).expect("send");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        Json::parse(line.trim()).expect("response parses")
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

    fn submit(&mut self, workload: &str, budget: u64) -> u64 {
        let resp =
            self.ok(&format!(r#"{{"cmd":"submit","workload":"{workload}","budget":{budget}}}"#));
        resp.get("job").and_then(Json::as_u64).expect("job id")
    }

    /// Polls `status` until terminal; returns the final state name.
    fn wait_terminal(&mut self, job: u64) -> String {
        let deadline = Instant::now() + Duration::from_secs(300);
        loop {
            let resp = self.ok(&format!(r#"{{"cmd":"status","job":{job}}}"#));
            let state = resp.get("state").and_then(Json::as_str).expect("state").to_string();
            match state.as_str() {
                "queued" | "running" => {
                    assert!(Instant::now() < deadline, "job {job} stuck in {state}");
                    std::thread::sleep(Duration::from_millis(100));
                }
                _ => return state,
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

/// Runs `batch` serially on a fresh, uninterrupted daemon and returns
/// each job's canonical result bytes, in submission order — the
/// reference every recovery test diffs against.
fn reference_results(batch: &[(&str, u64)]) -> Vec<String> {
    let dir = unique_dir("reference");
    let daemon = Daemon::spawn(&dir, &["--workers", "1"], "");
    let mut conn = daemon.connect();
    let ids: Vec<u64> = batch.iter().map(|(w, b)| conn.submit(w, *b)).collect();
    let canon: Vec<String> = ids
        .iter()
        .map(|&id| {
            assert_eq!(conn.wait_terminal(id), "done");
            canonical_result(&conn.result(id))
        })
        .collect();
    drop(conn);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    canon
}

fn assert_wal_invariants(path: &std::path::Path) {
    let text = std::fs::read_to_string(path).expect("reading the WAL");
    let violations = check_invariants(&text);
    assert!(violations.is_empty(), "WAL invariant violations: {violations:?}");
}

/// The tentpole proof: SIGKILL the daemon mid-batch, restart it on the
/// same cache dir, and every acknowledged job still completes — with
/// results byte-identical to an uninterrupted run.
#[test]
fn sigkill_mid_batch_recovers_every_acked_job_byte_identically() {
    let dir = unique_dir("kill-recover");
    // Slow stage boundaries widen the window so the kill reliably lands
    // while jobs are still queued or running.
    let daemon = Daemon::spawn(&dir, &["--workers", "1"], "slow_job_ms=200");
    let mut conn = daemon.connect();
    let ids: Vec<u64> = BATCH.iter().map(|(w, b)| conn.submit(w, *b)).collect();
    // Every ack above means "this job is journaled"; the WAL must
    // already know all of them.
    std::thread::sleep(Duration::from_millis(100));
    drop(conn);
    daemon.sigkill();

    let wal = dir.join("preexecd.wal");
    assert!(wal.exists(), "no WAL after acked submissions");
    assert_wal_invariants(&wal);

    // Restart on the same cache dir, no chaos: replay re-enqueues
    // whatever had no terminal record and re-runs it.
    let daemon = Daemon::spawn(&dir, &["--workers", "1"], "");
    let mut conn = daemon.connect();
    let recovered: Vec<String> = ids
        .iter()
        .map(|&id| {
            assert_eq!(conn.wait_terminal(id), "done", "acked job {id} was lost");
            canonical_result(&conn.result(id))
        })
        .collect();
    drop(conn);
    daemon.shutdown();
    assert_wal_invariants(&wal);

    assert_eq!(
        recovered,
        reference_results(BATCH),
        "recovered results differ from an uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Overload: beyond the high-water mark submits are shed fast with the
/// typed `overloaded` error and a `retry_after_ms` hint, queue depth
/// stays bounded, and a backoff-honoring client eventually gets in.
#[test]
fn overload_sheds_typed_errors_and_keeps_the_queue_bounded() {
    let dir = unique_dir("overload");
    let daemon = Daemon::spawn(
        &dir,
        &["--workers", "1", "--queue-cap", "4", "--high-water", "3"],
        "slow_job_ms=400",
    );
    let mut conn = daemon.connect();

    // Flood: the first jobs are admitted, the rest shed. All responses
    // come back fast — shedding is the daemon *answering*, not stalling.
    let mut admitted = 0u64;
    let mut shed = 0u64;
    for i in 0..10 {
        let resp = conn
            .roundtrip(&format!(r#"{{"cmd":"submit","workload":"vpr.r","budget":{}}}"#, 40_000 + i));
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            admitted += 1;
        } else {
            assert_eq!(resp.get("code").and_then(Json::as_str), Some("overloaded"));
            let hint = resp
                .get("retry_after_ms")
                .and_then(Json::as_u64)
                .expect("overloaded rejection must carry retry_after_ms");
            assert!((25..=30_000).contains(&hint), "hint {hint} outside the clamp band");
            assert!(
                resp.get("error").and_then(Json::as_str).is_some_and(|e| e.contains("overloaded")),
                "{}",
                resp.encode()
            );
            shed += 1;
        }
        let stats = conn.ok(r#"{"cmd":"stats"}"#);
        assert!(
            u64_field(&stats, &["queue_depth"]) <= 4,
            "queue depth broke its bound: {}",
            stats.encode()
        );
    }
    assert!(admitted >= 1, "nothing was admitted");
    assert!(shed >= 1, "nothing was shed — the flood never hit the high-water mark");
    let stats = conn.ok(r#"{"cmd":"stats"}"#);
    assert_eq!(u64_field(&stats, &["admission", "shed"]), shed);
    assert_eq!(u64_field(&stats, &["admission", "high_water"]), 3);

    // A client honoring the backoff contract gets in once the backlog
    // drains.
    let mut backoff = Backoff::new(50, 2_000, 7);
    let deadline = Instant::now() + Duration::from_secs(120);
    let late_id = loop {
        let resp = conn.roundtrip(r#"{"cmd":"submit","workload":"mcf","budget":40000}"#);
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            break resp.get("job").and_then(Json::as_u64).expect("job id");
        }
        assert!(Instant::now() < deadline, "backoff client never admitted");
        let hint = resp.get("retry_after_ms").and_then(Json::as_u64);
        std::thread::sleep(Duration::from_millis(backoff.next_delay_ms(hint)));
    };
    assert_eq!(conn.wait_terminal(late_id), "done");
    drop(conn);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cancellation and deadlines: a queued job cancels immediately, a
/// running job stops at its next stage boundary, and an expired
/// `deadline_ms` cancels with `pipeline.deadline_exceeded`.
#[test]
fn cancel_verb_and_deadlines_stop_jobs_with_typed_codes() {
    let dir = unique_dir("cancel");
    let daemon = Daemon::spawn(&dir, &["--workers", "1"], "slow_job_ms=300");
    let mut conn = daemon.connect();

    let running = conn.submit("vpr.r", 30_000);
    let queued = conn.submit("mcf", 30_000);
    // A 1 ms deadline is long expired by the time the 1-worker pool
    // reaches this job: it must cancel at the entry check.
    let resp =
        conn.ok(r#"{"cmd":"submit","workload":"vpr.r","budget":32000,"policy":{"deadline_ms":1}}"#);
    let deadlined = resp.get("job").and_then(Json::as_u64).expect("job id");

    // Cancel the queued job: gone before any worker touches it.
    let resp = conn.ok(&format!(r#"{{"cmd":"cancel","job":{queued}}}"#));
    assert_eq!(resp.get("state").and_then(Json::as_str), Some("cancelled"));
    assert_eq!(resp.get("cancelling").and_then(Json::as_bool), Some(false));
    let resp = conn.ok(&format!(r#"{{"cmd":"result","job":{queued}}}"#));
    assert_eq!(resp.get("state").and_then(Json::as_str), Some("cancelled"));
    assert_eq!(resp.get("code").and_then(Json::as_str), Some("pipeline.cancelled"));

    // Cancel the running job: acknowledged as "cancelling", then it
    // stops at the next stage boundary.
    let resp = conn.ok(&format!(r#"{{"cmd":"cancel","job":{running}}}"#));
    if resp.get("state").and_then(Json::as_str) == Some("running") {
        assert_eq!(resp.get("cancelling").and_then(Json::as_bool), Some(true));
        assert_eq!(conn.wait_terminal(running), "cancelled");
        let resp = conn.ok(&format!(r#"{{"cmd":"status","job":{running}}}"#));
        assert_eq!(resp.get("code").and_then(Json::as_str), Some("pipeline.cancelled"));
    }
    // (If the job beat the cancel to the finish line the verb reports
    // its terminal state instead — also correct, just not the race this
    // test is after; the 300 ms stage delays make that vanishingly
    // rare.)

    // The deadlined job cancels itself with the deadline code.
    assert_eq!(conn.wait_terminal(deadlined), "cancelled");
    let resp = conn.ok(&format!(r#"{{"cmd":"result","job":{deadlined}}}"#));
    assert_eq!(
        resp.get("code").and_then(Json::as_str),
        Some("pipeline.deadline_exceeded"),
        "{}",
        resp.encode()
    );

    // Cancelling an already-finished job is an idempotent no-op report.
    let resp = conn.ok(&format!(r#"{{"cmd":"cancel","job":{queued}}}"#));
    assert_eq!(resp.get("state").and_then(Json::as_str), Some("cancelled"));

    let stats = conn.ok(r#"{"cmd":"stats"}"#);
    assert!(u64_field(&stats, &["jobs", "cancelled"]) >= 2, "{}", stats.encode());

    // Drain accounting: submit one more slow job, then shut down while
    // it is still in flight — the response must say what the daemon
    // still owes, and the drain must finish (not drop) it.
    let parting = conn.submit("mcf", 33_000);
    drop(conn);
    let drain = daemon.shutdown();
    let owed =
        u64_field(&drain, &["queued_jobs"]) + u64_field(&drain, &["running_jobs"]);
    assert!(owed >= 1, "drain reported nothing in flight: {}", drain.encode());
    let replay = preexec_serve::JournalReplay::from_text(
        &std::fs::read_to_string(dir.join("preexecd.wal")).expect("read WAL"),
    );
    let parting_job = replay.jobs.get(&parting).expect("parting job journaled");
    assert_eq!(
        parting_job.terminal.as_ref().map(|t| t.state.as_str()),
        Some("done"),
        "drain dropped the in-flight job"
    );
    assert_wal_invariants(&dir.join("preexecd.wal"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected worker panic mid-job (after the journal `start`, before
/// any terminal record) is contained — the daemon keeps serving — and
/// the journaled-but-unfinished job re-runs to completion on restart.
#[test]
fn worker_panic_mid_job_is_contained_and_rerun_on_restart() {
    let dir = unique_dir("panic");
    let daemon = Daemon::spawn(&dir, &["--workers", "1"], "panic_job=1");
    let mut conn = daemon.connect();
    let victim = conn.submit("vpr.r", 30_000);
    assert_eq!(conn.wait_terminal(victim), "failed");
    let resp = conn.ok(&format!(r#"{{"cmd":"status","job":{victim}}}"#));
    assert_eq!(resp.get("code").and_then(Json::as_str), Some("job_panicked"));

    // The daemon survived its worker: it still serves new work.
    let after = conn.submit("mcf", 30_000);
    assert_eq!(conn.wait_terminal(after), "done");
    drop(conn);
    daemon.shutdown();

    // The panic fired between `start` and any terminal record, so the
    // WAL still owes the victim a completion: restart (no chaos)
    // re-enqueues and finishes it.
    let daemon = Daemon::spawn(&dir, &["--workers", "1"], "");
    let mut conn = daemon.connect();
    assert_eq!(conn.wait_terminal(victim), "done", "panicked job was not re-run");
    let result = conn.result(victim);
    assert_eq!(result.get("workload").and_then(Json::as_str), Some("vpr.r"));
    // The finished job from before the restart is served from the
    // journal, not recomputed.
    let resp = conn.ok(&format!(r#"{{"cmd":"status","job":{after}}}"#));
    assert_eq!(resp.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(resp.get("restored").and_then(Json::as_bool), Some(true));
    drop(conn);
    daemon.shutdown();
    assert_wal_invariants(&dir.join("preexecd.wal"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// WAL corruption — a torn tail (killed mid-append), appended garbage,
/// a bit flip — must never stop the daemon from starting, and intact
/// records must still replay.
#[test]
fn corrupt_and_torn_journals_are_tolerated_on_replay() {
    let dir = unique_dir("wal-surgery");
    let daemon = Daemon::spawn(&dir, &["--workers", "1"], "");
    let mut conn = daemon.connect();
    let done_id = conn.submit("vpr.r", 30_000);
    assert_eq!(conn.wait_terminal(done_id), "done");
    let done_canon = canonical_result(&conn.result(done_id));
    drop(conn);
    daemon.shutdown();

    // Surgery: flip a bit in the middle, append garbage, tear the tail.
    let wal = dir.join("preexecd.wal");
    let text = std::fs::read_to_string(&wal).expect("read WAL");
    assert!(check_invariants(&text).is_empty());
    let mangled = fault::append_garbage(&fault::torn_tail(&fault::flip_bit(&text, 1, 30, 3)));
    std::fs::write(&wal, mangled).expect("write mangled WAL");

    // The daemon still starts; the done record (if it survived) serves
    // from the journal, and new submissions get fresh non-colliding ids.
    let daemon = Daemon::spawn(&dir, &["--workers", "1"], "");
    let mut conn = daemon.connect();
    let state = conn.wait_terminal(done_id);
    assert!(
        state == "done" || state == "failed",
        "job {done_id} in unexpected state {state} after WAL surgery"
    );
    if state == "done" {
        assert_eq!(canonical_result(&conn.result(done_id)), done_canon);
    }
    let fresh = conn.submit("mcf", 30_000);
    assert!(fresh > done_id, "fresh id {fresh} collides with replayed id space");
    assert_eq!(conn.wait_terminal(fresh), "done");
    drop(conn);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Journals written by older daemons: a v6 spec carrying the retired
/// `streaming` policy key replays to the same result as a fresh submit,
/// while a v5 spec with a flat policy field no longer parses and
/// surfaces as a failed job — never a silent re-run with its deadline
/// dropped.
#[test]
fn pre_v7_journal_specs_replay_or_fail_typed() {
    let dir = unique_dir("legacy-wal");
    let journal = JobJournal::open(dir.join("preexecd.wal"), 1).expect("open WAL");
    let v6 = r#"{"workload":"vpr.r","budget":30000,
        "policy":{"slice_mode":"windowed","screening":true,"streaming":true}}"#;
    let v5 = r#"{"workload":"mcf","budget":30000,"deadline_ms":60000}"#;
    journal.submit(1, &Json::parse(v6).expect("v6 spec parses"));
    journal.submit(2, &Json::parse(v5).expect("v5 spec parses"));
    drop(journal);

    let daemon = Daemon::spawn(&dir, &["--workers", "1"], "");
    let mut conn = daemon.connect();
    assert_eq!(conn.wait_terminal(1), "done");
    let replayed = canonical_result(&conn.result(1));
    let fresh = conn.submit("vpr.r", 30_000);
    assert_eq!(conn.wait_terminal(fresh), "done");
    assert_eq!(canonical_result(&conn.result(fresh)), replayed);

    assert_eq!(conn.wait_terminal(2), "failed");
    let status = conn.ok(r#"{"cmd":"status","job":2}"#);
    assert_eq!(status.get("code").and_then(Json::as_str), Some("replay_unparseable"));
    let error = status.get("error").and_then(Json::as_str).expect("error message");
    assert!(error.contains("deadline_ms"), "{error}");
    drop(conn);
    daemon.shutdown();
    assert_wal_invariants(&dir.join("preexecd.wal"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Failing every artifact-cache store must not fail jobs: results are
/// still computed, served, and journaled — the cache degrades to
/// recomputation.
#[test]
fn cache_store_faults_degrade_to_recomputation_not_failure() {
    let dir = unique_dir("cache-fault");
    let daemon = Daemon::spawn(&dir, &["--workers", "1"], "cache_store_fail=1");
    let mut conn = daemon.connect();
    let a = conn.submit("vpr.r", 30_000);
    assert_eq!(conn.wait_terminal(a), "done");
    let first = conn.result(a);
    // Identical resubmit: the failed store means a recompute, not a hit
    // — and bit-identical output regardless.
    let b = conn.submit("vpr.r", 30_000);
    assert_eq!(conn.wait_terminal(b), "done");
    let again = conn.ok(&format!(r#"{{"cmd":"result","job":{b}}}"#));
    let second = again.get("result").cloned().expect("result");
    assert_eq!(second.get("cache_hit").and_then(Json::as_bool), Some(false));
    assert_eq!(canonical_result(&first), canonical_result(&second));
    drop(conn);
    daemon.shutdown();
    assert_wal_invariants(&dir.join("preexecd.wal"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CI smoke at scale (ignored by default; the chaos CI leg runs it
/// with `--include-ignored`): 50 jobs, SIGKILL at an arbitrary point
/// mid-batch, restart, and every result must match a serial
/// uninterrupted run byte for byte.
#[test]
#[ignore = "several-minute smoke; run by the CI chaos leg"]
fn fifty_job_kill_and_recover_smoke() {
    let batch: Vec<(&str, u64)> = (0..50)
        .map(|i| {
            let workload = ["vpr.r", "mcf", "twolf", "gcc", "parser"][i % 5];
            (workload, 20_000 + (i as u64 / 5) * 500)
        })
        .collect();

    let dir = unique_dir("smoke");
    let daemon = Daemon::spawn(&dir, &["--workers", "2"], "slow_job_ms=50");
    let mut conn = daemon.connect();
    let ids: Vec<u64> = batch.iter().map(|(w, b)| conn.submit(w, *b)).collect();
    // "At random": an arbitrary point while the batch is in flight. The
    // slow stages guarantee most of the batch is still pending.
    std::thread::sleep(Duration::from_millis(700));
    drop(conn);
    daemon.sigkill();
    assert_wal_invariants(&dir.join("preexecd.wal"));

    let daemon = Daemon::spawn(&dir, &["--workers", "2"], "");
    let mut conn = daemon.connect();
    let recovered: Vec<String> = ids
        .iter()
        .map(|&id| {
            assert_eq!(conn.wait_terminal(id), "done", "acked job {id} was lost");
            canonical_result(&conn.result(id))
        })
        .collect();
    drop(conn);
    daemon.shutdown();
    assert_wal_invariants(&dir.join("preexecd.wal"));

    assert_eq!(recovered, reference_results(&batch), "recovery diverged from the serial run");
    let _ = std::fs::remove_dir_all(&dir);
}
