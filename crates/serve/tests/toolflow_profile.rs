//! `toolflow --profile` must report per-stage timings on stderr without
//! changing a byte of stdout — the CLI face of the observability layer's
//! no-perturbation contract.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Command;

fn run_toolflow(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_toolflow"))
        .args(args)
        .output()
        .expect("running toolflow")
}

#[test]
fn profile_flag_reports_stages_without_touching_stdout() {
    let dir = std::env::temp_dir().join(format!("toolflow-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let plain_out = dir.join("plain.slices");
    let profiled_out = dir.join("profiled.slices");

    let plain = run_toolflow(&["vpr.r", "20000", plain_out.to_str().unwrap()]);
    assert!(plain.status.success(), "plain run failed: {plain:?}");
    let profiled = run_toolflow(&[
        "--profile",
        "vpr.r",
        "20000",
        profiled_out.to_str().unwrap(),
    ]);
    assert!(
        profiled.status.success(),
        "profiled run failed: {profiled:?}"
    );

    // stdout is byte-identical modulo the output path echoed in the
    // trace line; normalize that one difference away.
    let normalize = |bytes: &[u8], path: &str| {
        String::from_utf8(bytes.to_vec())
            .expect("utf-8 stdout")
            .replace(path, "OUT")
    };
    assert_eq!(
        normalize(&plain.stdout, plain_out.to_str().unwrap()),
        normalize(&profiled.stdout, profiled_out.to_str().unwrap()),
        "--profile changed stdout"
    );
    // The artifacts are byte-identical too.
    assert_eq!(
        std::fs::read(&plain_out).expect("plain slices"),
        std::fs::read(&profiled_out).expect("profiled slices"),
        "--profile changed the written slice file"
    );

    // The profile table lands on stderr, with the instrumented stages.
    let stderr = String::from_utf8(profiled.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("toolflow profile"),
        "no profile header:\n{stderr}"
    );
    for needle in [
        "stage.trace",
        "stage.slice_build",
        "stage.score",
        "stage.solve",
        "select: candidates=",
    ] {
        assert!(stderr.contains(needle), "missing `{needle}`:\n{stderr}");
    }
    // And the plain run printed none of it.
    let plain_err = String::from_utf8(plain.stderr).expect("utf-8 stderr");
    assert!(
        !plain_err.contains("toolflow profile"),
        "profile printed without --profile:\n{plain_err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_reports_in_read_mode_wherever_the_flag_sits() {
    let dir = std::env::temp_dir().join(format!("toolflow-profile-read-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let slices = dir.join("vpr.r.slices");
    let path = slices.to_str().unwrap();
    let traced = run_toolflow(&["vpr.r", "20000", path]);
    assert!(traced.status.success(), "trace run failed: {traced:?}");

    let plain = run_toolflow(&["--read", path]);
    assert!(plain.status.success(), "plain read failed: {plain:?}");
    let plain_err = String::from_utf8(plain.stderr).expect("utf-8 stderr");
    assert!(!plain_err.contains("toolflow profile"), "{plain_err}");
    // Every argument is parsed before read mode runs, so the flag's
    // place on the command line does not matter.
    for args in [["--profile", "--read", path], ["--read", path, "--profile"]] {
        let out = run_toolflow(&args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        assert_eq!(out.stdout, plain.stdout, "{args:?} changed stdout");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        for needle in ["toolflow profile", "stage.score", "select: candidates="] {
            assert!(
                stderr.contains(needle),
                "{args:?}: missing `{needle}`:\n{stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
