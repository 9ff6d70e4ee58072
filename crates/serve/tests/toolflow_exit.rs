//! Pins `toolflow --jobs N` per-job exit-code aggregation: one failing
//! job must make the whole run exit nonzero (with the *first* failing
//! job's code, in submission order), while every job's buffered output
//! — including the successes — is still printed. A bad job can neither
//! be masked by a later success nor swallow its siblings' reports. The
//! `--policy` keys of the removed adaptive selection exit 2 before any
//! job runs.

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

#[test]
fn removed_adaptive_policy_keys_are_usage_errors() {
    let dir = temp_dir("removed-keys");
    for entry in [
        "adaptive=false",
        "adaptive=true",
        "threshold_permille=25",
        "confirm=2",
        "min_phase_chunks=2",
    ] {
        let out = run_toolflow_in(&dir, &["--policy", entry, "vpr.r", "20000"]);
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert_eq!(out.status.code(), Some(2), "{entry}: {stderr}");
        assert!(stderr.contains("unknown --policy key"), "{entry}: {stderr}");
        assert!(out.stdout.is_empty(), "{entry} ran anyway");
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
