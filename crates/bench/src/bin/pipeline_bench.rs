//! `pipeline-bench` — end-to-end pipeline benchmark with per-stage
//! wall-clock: serial versus N-thread selection, windowed versus
//! on-demand trace.
//!
//! Runs one workload through the [`Pipeline`] builder and emits three
//! reports:
//!
//! - `BENCH_pipeline.json`: per-stage timings, the selection stage's
//!   internal [`ParStats`] counters (the only stage that fans out), and
//!   an `obs` section (the [`preexec_obs`] registry's per-stage
//!   histograms, counters, and gauges accumulated across the runs);
//! - `BENCH_score.json`: the two-tier scoring comparison — exact
//!   (screening off) versus screened selection over the same forest,
//!   best-of-5 wall clock of the `stage.score`/`stage.screen` spans from
//!   the obs registry, the screen's pruned/survivor counters, and the
//!   screened-vs-exact bit-identity verdict;
//! - `BENCH_reexec.json`: the on-demand re-execution slicing leg —
//!   windowed versus checkpointed trace wall clock, the checkpoint and
//!   re-executed-instruction counts, the peak resident detail
//!   high-water mark, and the ondemand-vs-windowed bit-identity verdict.
//!
//! Every timed stage leg (trace windowed/on-demand and the finish stages
//! behind the select timings) is best-of-5 — single shots confound
//! scheduler noise with stage cost.
//!
//! All legs are compared for bit-identity, so every benchmark run
//! doubles as a determinism check (DESIGN.md §11) covering the thread
//! axis, the slicing-mode axis, and the screening axis (§16).
//!
//! Usage: `pipeline-bench [--workload NAME] [--budget B] [--threads N]
//!         [--out PATH] [--score-out PATH] [--reexec-out PATH] [--check]`
//!
//! Defaults: `vpr.r`, 60 000 instructions, one thread per core,
//! `BENCH_pipeline.json`, `BENCH_score.json`, `BENCH_reexec.json`.
//! Exit codes: 0 success, 2 usage error — or, under `--check`, a
//! screened score stage slower than the exact one (a screening perf
//! regression) or an on-demand peak residency at or above the configured
//! scope (the bounded-memory contract) — and 1 pipeline or I/O failure
//! (including any leg mismatch, which would mean a determinism bug).

use preexec_bench::build;
use preexec_core::{try_select_pthreads_stats, ScreenStats, Selection, SelectionParams};
use preexec_experiments::{
    ParStats, Parallelism, Pipeline, PipelineConfig, PolicySpec, SlicingMode,
};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Iterations per timed leg; the minimum is reported (best-of-N damps
/// scheduler noise without averaging in cold-cache outliers).
const BEST_OF: usize = 5;

struct Args {
    workload: String,
    budget: u64,
    threads: usize,
    out: String,
    score_out: String,
    reexec_out: String,
    check: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "vpr.r".to_string(),
        budget: 60_000,
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        out: "BENCH_pipeline.json".to_string(),
        score_out: "BENCH_score.json".to_string(),
        reexec_out: "BENCH_reexec.json".to_string(),
        check: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--budget" => {
                let v = value("--budget")?;
                args.budget = v.parse().map_err(|_| format!("bad budget `{v}`"))?;
            }
            "--threads" => {
                let v = value("--threads")?;
                args.threads = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad thread count `{v}`"))?;
            }
            "--out" => args.out = value("--out")?,
            "--score-out" => args.score_out = value("--score-out")?,
            "--reexec-out" => args.reexec_out = value("--reexec-out")?,
            "--check" => args.check = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(args)
}

/// One timed stage pair: serial and parallel wall-clock microseconds.
struct StagePair {
    serial_us: u128,
    par_us: u128,
    par_stats: ParStats,
}

impl StagePair {
    fn speedup(&self) -> f64 {
        if self.par_us == 0 {
            1.0
        } else {
            self.serial_us as f64 / self.par_us as f64
        }
    }
}

fn par_stats_json(out: &mut String, s: &ParStats) {
    let _ = write!(
        out,
        r#"{{"wall_us":{},"busy_us":{},"threads":{},"items":{},"speedup":{:.3}}}"#,
        s.wall_us,
        s.busy_us,
        s.threads,
        s.items,
        s.speedup()
    );
}

/// Sum of one obs latency histogram's recorded microseconds (0 when the
/// span never fired). Snapshot deltas around a leg isolate that leg's
/// contribution to the cumulative registry.
fn hist_sum_us(name: &str) -> u64 {
    let snap = preexec_obs::global().snapshot();
    snap.histograms
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, h)| h.sum_us())
}

/// Current value of one obs counter (0 when it never fired).
fn counter_val(name: &str) -> u64 {
    let snap = preexec_obs::global().snapshot();
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Runs `f` [`BEST_OF`] times and returns the fastest iteration's wall
/// clock and result. All timed legs are deterministic, so keeping the
/// fastest run's output loses nothing.
fn best_of_us<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(u128, T), String> {
    let mut best: Option<(u128, T)> = None;
    for _ in 0..BEST_OF {
        let t = Instant::now();
        let v = f()?;
        let us = t.elapsed().as_micros();
        if best.as_ref().is_none_or(|(b, _)| us < *b) {
            best = Some((us, v));
        }
    }
    best.ok_or_else(|| "timed leg ran no iterations".to_string())
}

/// One timed selection leg for the two-tier scoring comparison: the
/// `stage.score` + `stage.screen` wall clock (obs-snapshot delta,
/// best-of-5), the selection itself for the bit-identity check, and the
/// screen's candidate counters.
struct ScoreLeg {
    total_us: u64,
    score_us: u64,
    screen_us: u64,
    selection: Selection,
    screen: ScreenStats,
}

fn score_leg(
    forest: &preexec_slice::SliceForest,
    params: &SelectionParams,
    screening: bool,
) -> Result<ScoreLeg, String> {
    let mut best: Option<ScoreLeg> = None;
    for _ in 0..BEST_OF {
        let score0 = hist_sum_us("stage.score");
        let screen0 = hist_sum_us("stage.screen");
        let (selection, _, screen) =
            try_select_pthreads_stats(forest, params, Parallelism::serial(), screening)
                .map_err(|e| format!("score leg (screening={screening}): {e}"))?;
        let score_us = hist_sum_us("stage.score") - score0;
        let screen_us = hist_sum_us("stage.screen") - screen0;
        let leg = ScoreLeg {
            total_us: score_us + screen_us,
            score_us,
            screen_us,
            selection,
            screen,
        };
        if best.as_ref().is_none_or(|b| leg.total_us < b.total_us) {
            best = Some(leg);
        }
    }
    best.ok_or_else(|| "score leg ran no iterations".to_string())
}

/// Appends the global metrics registry's view of the run: every
/// `stage.*` latency histogram (count, total, p99 bound) plus the
/// pipeline's counters and gauges, accumulated across all legs so far.
fn obs_json(out: &mut String) {
    let snap = preexec_obs::global().snapshot();
    out.push_str(r#"{"stages_hist_us":{"#);
    let mut first = true;
    for (name, h) in snap
        .histograms
        .iter()
        .filter(|(n, _)| n.starts_with("stage."))
    {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            r#""{name}":{{"count":{},"sum_us":{},"p99_us":{}}}"#,
            h.count(),
            h.sum_us(),
            h.quantile_us(0.99),
        );
    }
    out.push_str(r#"},"counters":{"#);
    let mut first = true;
    for (name, v) in &snap.counters {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, r#""{name}":{v}"#);
    }
    out.push_str(r#"},"gauges":{"#);
    let mut first = true;
    for (name, v) in &snap.gauges {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, r#""{name}":{v}"#);
    }
    out.push_str("}}");
}

fn run(args: &Args) -> Result<u8, String> {
    let program = build(&args.workload);
    let cfg = PipelineConfig::paper_default(args.budget);
    let par = Parallelism::new(args.threads);

    // Trace + slice on the windowed path, best-of-N. The trace is one
    // dependent pass over the instruction stream, so it has no thread
    // knob.
    let (trace_us, arts_serial) = best_of_us(|| {
        Pipeline::new(&program)
            .config(cfg)
            .trace()
            .map_err(|e| format!("windowed trace: {e}"))
    })?;
    let forest_bytes = preexec_slice::write_forest(&arts_serial.forest);

    // The on-demand re-execution leg: checkpointed trace + interval
    // replay instead of a resident window. The cadence is an eighth of
    // the scope so the replayer's detail cache (4 intervals) stays
    // strictly under one windowed scope — the bounded-memory contract
    // `--check` gates on.
    let checkpoint_every = (cfg.scope as u64 / 8).max(1);
    let ckpt0 = counter_val("checkpoint.count");
    let reexec0 = counter_val("reexec.insts");
    let reexec_spec = PolicySpec {
        cfg,
        slicing: SlicingMode::OnDemand { checkpoint_every },
        ..PolicySpec::default()
    };
    let (reexec_us, arts_reexec) = best_of_us(|| {
        Pipeline::new(&program)
            .policy(reexec_spec)
            .trace()
            .map_err(|e| format!("on-demand trace: {e}"))
    })?;
    // The leg runs BEST_OF identical iterations; per-run counts are the
    // accumulated deltas split evenly.
    let checkpoints = (counter_val("checkpoint.count") - ckpt0) / BEST_OF as u64;
    let reexec_insts = (counter_val("reexec.insts") - reexec0) / BEST_OF as u64;
    let peak_resident = {
        let snap = preexec_obs::global().snapshot();
        snap.gauges
            .iter()
            .find(|(n, _)| n == "reexec.peak_resident_insts")
            .map_or(0, |(_, v)| *v)
    };
    if forest_bytes != preexec_slice::write_forest(&arts_reexec.forest) {
        return Err("slice forests differ between windowed and ondemand slicing".to_string());
    }

    // Finish from the traced artifacts, serial then parallel: base sim,
    // selection, assisted sim, each timed by the builder, best-of-N per
    // stage.
    let stats = arts_serial.stats;
    let serial_forest = arts_serial.forest;
    let (mut base_us, mut select_serial_us) = (u64::MAX, u64::MAX);
    let mut out_serial = None;
    for _ in 0..BEST_OF {
        let o = Pipeline::new(&program)
            .config(cfg)
            .artifacts(serial_forest.clone(), stats.clone())
            .run()
            .map_err(|e| format!("serial finish: {e}"))?;
        base_us = base_us.min(o.stage_us.base_sim);
        select_serial_us = select_serial_us.min(o.stage_us.select);
        out_serial = Some(o);
    }
    let out_serial = out_serial.ok_or("serial finish ran no iterations")?;
    let mut select_par_us = u64::MAX;
    let mut out_par = None;
    for _ in 0..BEST_OF {
        let o = Pipeline::new(&program)
            .config(cfg)
            .parallelism(par)
            .artifacts(serial_forest.clone(), stats.clone())
            .run()
            .map_err(|e| format!("parallel finish: {e}"))?;
        select_par_us = select_par_us.min(o.stage_us.select);
        out_par = Some(o);
    }
    let out_par = out_par.ok_or("parallel finish ran no iterations")?;
    let base_us = u128::from(base_us);
    let select = StagePair {
        serial_us: u128::from(select_serial_us),
        par_us: u128::from(select_par_us),
        par_stats: out_par.par.select,
    };
    if format!("{:?}", out_serial.result) != format!("{:?}", out_par.result) {
        return Err(format!(
            "results differ between --threads 1 and --threads {}",
            args.threads
        ));
    }

    let mut json = String::new();
    let _ = write!(
        json,
        r#"{{"workload":"{}","budget":{},"threads":{},"trace":{{"insts":{},"l2_misses":{},"trees":{}}},"stages_us":{{"trace_slice":{},"base_sim":{},"select_serial":{},"select_par":{}}},"select_stage":"#,
        args.workload,
        args.budget,
        args.threads,
        stats.insts,
        stats.l2_misses,
        out_serial.forest.num_trees(),
        trace_us,
        base_us,
        select.serial_us,
        select.par_us,
    );
    par_stats_json(&mut json, &select.par_stats);
    let _ = write!(
        json,
        r#","speedup":{{"select":{:.3}}},"pthreads":{},"obs":"#,
        select.speedup(),
        out_serial.result.selection.pthreads.len(),
    );
    obs_json(&mut json);
    json.push('}');
    json.push('\n');
    std::fs::write(&args.out, &json).map_err(|e| format!("writing {}: {e}", args.out))?;

    // The two-tier scoring leg: exact (screening off) versus screened
    // selection over the same forest, under the parameters the pipeline
    // itself derived (measured base IPC, clamped the way `select_stage`
    // clamps it). Serial on both sides so the comparison is pure
    // scoring work, not thread scheduling.
    let params = SelectionParams {
        ipc: out_serial
            .result
            .base
            .ipc()
            .clamp(0.05, SelectionParams::default().bw_seq),
        ..SelectionParams::default()
    };
    let exact = score_leg(&out_serial.forest, &params, false)?;
    let screened = score_leg(&out_serial.forest, &params, true)?;
    // Exactness is a hard contract, not a perf preference: a divergence
    // is a correctness bug and fails the run outright (exit 1).
    if format!("{:?}", exact.selection) != format!("{:?}", screened.selection) {
        return Err("screened selection differs from exact selection".to_string());
    }
    let score_speedup = if screened.total_us == 0 {
        1.0
    } else {
        exact.total_us as f64 / screened.total_us as f64
    };
    let mut cjson = String::new();
    let _ = write!(
        cjson,
        r#"{{"workload":"{}","budget":{},"screen":{{"pruned":{},"survivors":{},"candidates":{}}},"score_us":{{"exact":{},"screened":{},"screened_score":{},"screened_screen":{}}},"speedup":{:.3},"identical":true,"obs":"#,
        args.workload,
        args.budget,
        screened.screen.pruned,
        screened.screen.survivors,
        screened.screen.candidates(),
        exact.score_us,
        screened.total_us,
        screened.score_us,
        screened.screen_us,
        score_speedup,
    );
    obs_json(&mut cjson);
    cjson.push('}');
    cjson.push('\n');
    std::fs::write(&args.score_out, &cjson)
        .map_err(|e| format!("writing {}: {e}", args.score_out))?;

    // The re-execution report: windowed versus on-demand trace wall
    // clock, checkpoint/replay volume, and the peak resident detail
    // high-water mark the bounded-memory contract is about.
    let reexec_speedup = if reexec_us == 0 {
        1.0
    } else {
        trace_us as f64 / reexec_us as f64
    };
    let mut rjson = String::new();
    let _ = write!(
        rjson,
        r#"{{"workload":"{}","budget":{},"scope":{},"checkpoint_every":{},"windowed":{{"wall_us":{},"peak_insts_proxy":{}}},"ondemand":{{"wall_us":{},"checkpoints":{},"reexec_insts":{},"peak_resident_insts":{}}},"speedup":{:.3},"identical":true,"obs":"#,
        args.workload,
        args.budget,
        cfg.scope,
        checkpoint_every,
        trace_us,
        cfg.scope,
        reexec_us,
        checkpoints,
        reexec_insts,
        peak_resident,
        reexec_speedup,
    );
    obs_json(&mut rjson);
    rjson.push('}');
    rjson.push('\n');
    std::fs::write(&args.reexec_out, &rjson)
        .map_err(|e| format!("writing {}: {e}", args.reexec_out))?;

    eprintln!(
        "pipeline-bench: {} @ {} insts, {} threads: select {:.2}x -> {}",
        args.workload,
        args.budget,
        args.threads,
        select.speedup(),
        args.out,
    );
    eprintln!(
        "pipeline-bench: score stage: exact {} us vs screened {} us ({} + {} screen, {:.2}x, {} of {} candidates pruned) -> {}",
        exact.score_us,
        screened.total_us,
        screened.score_us,
        screened.screen_us,
        score_speedup,
        screened.screen.pruned,
        screened.screen.candidates(),
        args.score_out
    );
    eprintln!(
        "pipeline-bench: reexec leg: windowed {} us vs ondemand {} us ({:.2}x, {} checkpoints @ {}, {} insts replayed, peak resident {} vs scope {}) -> {}",
        trace_us,
        reexec_us,
        reexec_speedup,
        checkpoints,
        checkpoint_every,
        reexec_insts,
        peak_resident,
        cfg.scope,
        args.reexec_out
    );
    // `--check`: the screening perf gate. Screened scoring doing *more*
    // work than exact scoring means the screen's savings no longer cover
    // its own cost — a perf regression worth failing CI over.
    if args.check && screened.total_us > exact.score_us {
        eprintln!(
            "pipeline-bench: --check failed: screened score stage ({} us) slower than exact ({} us)",
            screened.total_us, exact.score_us
        );
        return Ok(2);
    }
    // `--check`: the bounded-memory gate. On-demand slicing must keep
    // strictly less detail resident than one windowed scope, or the
    // whole point of the mode is gone.
    if args.check && peak_resident >= cfg.scope as i64 {
        eprintln!(
            "pipeline-bench: --check failed: ondemand peak resident detail ({peak_resident} insts) not under the scope ({})",
            cfg.scope
        );
        return Ok(2);
    }
    Ok(0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("pipeline-bench: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("pipeline-bench: {msg}");
            ExitCode::FAILURE
        }
    }
}
