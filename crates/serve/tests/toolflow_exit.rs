//! Pins `toolflow --jobs N` per-job exit-code aggregation: one failing
//! job must make the whole run exit nonzero (with the *first* failing
//! job's code, in submission order), while every job's buffered output
//! — including the successes — is still printed. A bad job can neither
//! be masked by a later success nor swallow its siblings' reports. Every
//! argument is parsed before any mode runs: an unknown option anywhere,
//! a removed switch, or an option that does not apply in the chosen
//! mode exits 2 before any work.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn run_toolflow_in(dir: &std::path::Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_toolflow"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("running toolflow")
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("toolflow-exit-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn one_failed_job_fails_the_whole_run_without_masking_sibling_output() {
    let dir = temp_dir("aggregation");
    // Sabotage exactly one of the two jobs: `mcf.slices` is a
    // *directory*, so that job's slice-file write fails (code 3) while
    // `vpr.r` is untouched.
    std::fs::create_dir(dir.join("mcf.slices")).expect("planting the collision");

    let out = run_toolflow_in(&dir, &["--jobs", "2", "vpr.r,mcf", "20000"]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");

    // The run fails with the failing job's code — success of vpr.r must
    // not mask it.
    assert_eq!(
        out.status.code(),
        Some(3),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    // ... and the failing job must not swallow the good job's report.
    assert!(
        stdout.contains("vpr.r: traced"),
        "good job's output missing:\n{stdout}"
    );
    assert!(
        stderr.contains("mcf.slices"),
        "failing job's diagnostic missing:\n{stderr}"
    );
    assert!(
        !stdout.contains("mcf: traced"),
        "failed job reported success:\n{stdout}"
    );

    // Same batch, healthy: exits 0 and reports both workloads, byte-wise
    // independent of job count (`--jobs 1` vs `--jobs 2`).
    std::fs::remove_dir(dir.join("mcf.slices")).expect("clearing the collision");
    let serial = run_toolflow_in(&dir, &["--jobs", "1", "vpr.r,mcf", "20000"]);
    let parallel = run_toolflow_in(&dir, &["--jobs", "2", "vpr.r,mcf", "20000"]);
    assert_eq!(serial.status.code(), Some(0), "{serial:?}");
    assert_eq!(parallel.status.code(), Some(0), "{parallel:?}");
    assert_eq!(serial.stdout, parallel.stdout, "--jobs changed stdout");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Asserts a usage error: exit 2, `needle` on stderr, nothing on stdout.
fn assert_usage_error(out: &std::process::Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(stderr.contains(needle), "wanted `{needle}` in:\n{stderr}");
    assert!(
        out.stdout.is_empty(),
        "ran anyway:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn removed_switches_are_usage_errors() {
    // Every front end runs one analysis path, so the route switches are
    // unknown options that stop the run before any work. That includes
    // `--policy deadline_ms=1`: a local run has no stage gate to check a
    // deadline at.
    let dir = temp_dir("removed-switches");
    for (args, option) in [
        (&["--threads", "2"][..], "--threads"),
        (&["--no-screen"][..], "--no-screen"),
        (&["--slice-mode", "ondemand"][..], "--slice-mode"),
        (&["--policy", "deadline_ms=1"][..], "--policy"),
        (&["--policy", "adaptive=false"][..], "--policy"),
    ] {
        let mut argv = args.to_vec();
        argv.extend(["vpr.r", "20000"]);
        let out = run_toolflow_in(&dir, &argv);
        assert_usage_error(&out, &format!("unknown option `{option}`"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_argument_is_parsed_before_any_mode_runs() {
    let dir = temp_dir("parse-first");
    // An empty slice file is an empty forest, so `--read` alone succeeds.
    std::fs::write(dir.join("empty.slices"), "").expect("writing the slice file");
    let alone = run_toolflow_in(&dir, &["--read", "empty.slices"]);
    assert_eq!(alone.status.code(), Some(0), "{alone:?}");
    // A port nothing listens on: any attempt to reach it fails with 3.
    let closed = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("reserving a port")
        .to_string();
    for (args, needle) in [
        (
            &["--read", "empty.slices", "--bogus-flag", "extra", "args"][..],
            "unknown option `--bogus-flag`",
        ),
        (
            &["--bogus-flag", "--read", "empty.slices"][..],
            "--bogus-flag",
        ),
        (&["--read", "empty.slices", "vpr.r"][..], "--read"),
        (&["vpr.r", "--read", "empty.slices"][..], "--read"),
        (
            &["--read", "empty.slices", "--daemon", &closed][..],
            "--daemon",
        ),
        (
            &["--daemon", &closed, "--read", "empty.slices"][..],
            "--daemon",
        ),
        (
            &["--jobs", "2", "--daemon", &closed, "vpr.r", "3000"][..],
            "--jobs",
        ),
        (
            &["--daemon", &closed, "vpr.r", "3000", "--jobs", "2"][..],
            "--jobs",
        ),
    ] {
        let out = run_toolflow_in(&dir, args);
        assert_usage_error(&out, needle);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_mode_exits_with_the_first_failing_jobs_code_and_keeps_sibling_output() {
    let dir = temp_dir("daemon");
    // A daemon whose *first started* job panics on its worker: with one
    // worker, batch order is start order, so `vpr.r` is the victim and
    // `mcf` must still be served.
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_preexecd"))
        .current_dir(&dir)
        .env("PREEXEC_CHAOS", "panic_job=1")
        .args([
            "--port",
            "0",
            "--workers",
            "1",
            "--no-journal",
            "--cache-dir",
            "cache",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawning preexecd");
    let stdout = daemon.stdout.take().expect("piped stdout");
    let mut announce = String::new();
    BufReader::new(stdout)
        .read_line(&mut announce)
        .expect("announce line");
    let addr = announce
        .trim()
        .strip_prefix("preexecd listening on ")
        .unwrap_or_else(|| panic!("unexpected announce line: {announce:?}"))
        .to_string();

    let out = run_toolflow_in(&dir, &["--daemon", &addr, "vpr.r,mcf", "3000"]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    // The panicked job maps to code 5 — the same code a local panic
    // exits with — and it is the *first* job, so it wins.
    assert_eq!(
        out.status.code(),
        Some(5),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("vpr.r") && stderr.contains("job_panicked"),
        "failing job's diagnostic missing:\n{stderr}"
    );
    // The sibling's report still prints, in submission order.
    assert!(
        stdout.contains("mcf: daemon job"),
        "sibling output missing:\n{stdout}"
    );
    assert!(
        !stdout.contains("vpr.r: daemon job"),
        "failed job reported success:\n{stdout}"
    );

    // The chaos injector targets only start index 1; a rerun against the
    // same daemon is healthy and exits 0 with both reports.
    let out = run_toolflow_in(&dir, &["--daemon", &addr, "vpr.r,mcf", "3000"]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(
        out.status.code(),
        Some(0),
        "healthy rerun failed:\n{stdout}"
    );
    assert!(stdout.contains("vpr.r: daemon job") && stdout.contains("mcf: daemon job"));

    let mut conn = TcpStream::connect(&addr).expect("connect for shutdown");
    conn.write_all(b"{\"cmd\":\"shutdown\"}\n")
        .expect("send shutdown");
    let mut ack = String::new();
    let _ = BufReader::new(conn).read_line(&mut ack);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match daemon.try_wait().expect("try_wait") {
            Some(_) => break,
            None if Instant::now() > deadline => {
                let _ = daemon.kill();
                panic!("preexecd did not exit after shutdown");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
