//! The timed rounds: set-up, every suite kernel through the public
//! [`Pipeline`] API in interleaved rounds, output checks, and the
//! end-to-end metrics.

use crate::layers::{self, LayerRow};
use crate::metrics::{m, Metric};
use crate::stats::{self, fnv1a64};
use preexec_experiments::{
    Pipeline, PipelineOutput, PolicySpec, SlicingMode, DEFAULT_CHECKPOINT_EVERY,
};
use preexec_func::RunStats;
use preexec_isa::Program;
use preexec_slice::SliceForest;
use preexec_workloads::{suite, InputSet};
use std::time::Instant;

/// Per-input, per-kernel digests of the full pipeline's outputs at the
/// default budget: `input budget kernel forest_fnv result_fnv`.
const REFERENCE: &str = include_str!("../reference.txt");

/// The paper-default instruction budget every workload runs at.
const DEFAULT_BUDGET: u64 = 120_000;

/// How a workload's timed call reaches the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Pipeline::run`: trace, slice, base sim, select, assisted sim.
    Full,
    /// `Pipeline::artifacts(forest, stats).run()` with artifacts traced
    /// during set-up: base sim, select, assisted sim.
    Reuse,
    /// `Pipeline::run` with on-demand re-execution slicing.
    OnDemand,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// How the timed call runs.
    pub mode: Mode,
    /// The kernels' input set.
    pub input: InputSet,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "full-train",
        mode: Mode::Full,
        input: InputSet::Train,
    },
    Workload {
        name: "reuse-train",
        mode: Mode::Reuse,
        input: InputSet::Train,
    },
    Workload {
        name: "full-test",
        mode: Mode::Full,
        input: InputSet::Test,
    },
    Workload {
        name: "ondemand-train",
        mode: Mode::OnDemand,
        input: InputSet::Train,
    },
];

/// Looks a workload up by name; `alt` swaps the Train input for Alt (the
/// held-out input set of the same scale).
pub fn workload(name: &str, alt: bool) -> Option<Workload> {
    let mut w = *WORKLOADS.iter().find(|w| w.name == name)?;
    if alt && w.input == InputSet::Train {
        w.input = InputSet::Alt;
    }
    Some(w)
}

/// Everything one run is parameterised by.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Instruction budget per kernel (warm-up is a quarter of it).
    pub budget: u64,
    /// Kernel names to run; all ten suite kernels by default.
    pub kernels: Vec<&'static str>,
    /// Keep starting rounds until this much time has been measured...
    pub seconds: f64,
    /// ...and run at least this many.
    pub min_rounds: usize,
    /// Seeds the kernel order of every round.
    pub seed: u64,
    /// Set-ups timed; `setup_s` is their median.
    pub setup_reps: usize,
    /// Run the layer pass after the timed rounds.
    pub layers: bool,
    /// Compare every output with the committed reference digests. Off,
    /// outputs must instead repeat exactly across rounds.
    pub check_reference: bool,
}

impl Config {
    /// The defaults the benchmark command runs with.
    pub fn new(workload: Workload) -> Config {
        Config {
            workload,
            budget: DEFAULT_BUDGET,
            kernels: suite().iter().map(|w| w.name).collect(),
            seconds: 15.0,
            min_rounds: 3,
            seed: 0,
            setup_reps: 5,
            layers: false,
            check_reference: true,
        }
    }

    /// The policy every timed call runs under.
    pub fn spec(&self) -> PolicySpec {
        let mut spec = PolicySpec::paper_default(self.budget);
        if self.workload.mode == Mode::OnDemand {
            spec.slicing = SlicingMode::OnDemand {
                checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            };
        }
        spec
    }
}

/// One kernel as set up for the timed rounds.
pub struct Kernel {
    /// Suite name.
    pub name: &'static str,
    /// The built program.
    pub program: Program,
    /// Traced artifacts, for [`Mode::Reuse`].
    pub artifacts: Option<(SliceForest, RunStats)>,
}

impl Kernel {
    /// The workload's timed call, ready to `run()`: any artifacts are
    /// cloned here, outside the timed region.
    pub fn pipeline(&self, spec: PolicySpec) -> Pipeline<'_> {
        let pipeline = Pipeline::new(&self.program).policy(spec);
        match &self.artifacts {
            Some((forest, stats)) => pipeline.artifacts(forest.clone(), stats.clone()),
            None => pipeline,
        }
    }
}

/// What the rounds measured for one kernel.
#[derive(Debug, Clone)]
pub struct KernelSummary {
    /// Suite name.
    pub name: &'static str,
    /// Wall time of every successful timed call, in ms.
    pub times_ms: Vec<f64>,
    /// FNV-1a-64 of the forest's slice-file bytes.
    pub forest_fnv: u64,
    /// FNV-1a-64 of the result's `Debug` rendering.
    pub result_fnv: u64,
    /// Speedup, coverage %, |predicted − measured| IPC as % of measured,
    /// and |predicted − measured| coverage in points.
    pub model: [f64; 4],
}

/// Everything one run produced.
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// Instruction budget.
    pub budget: u64,
    /// Rounds completed.
    pub rounds: usize,
    /// Per-kernel times and digests, in suite order.
    pub kernels: Vec<KernelSummary>,
    /// The end-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// The layer pass's rows (empty unless [`Config::layers`]).
    pub layer_rows: Vec<LayerRow>,
    /// The per-layer metrics (empty unless [`Config::layers`]).
    pub per_layer: Vec<Metric>,
    /// Timed calls plus layer-pass kernels.
    pub attempted: u64,
    /// Of those, the ones that erred or failed a check.
    pub failures: Vec<String>,
}

impl Report {
    /// Whether every call succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Builds the workload's programs, plus the traced artifacts for
/// [`Mode::Reuse`].
fn set_up(cfg: &Config) -> Result<Vec<Kernel>, String> {
    let spec = cfg.spec();
    cfg.kernels
        .iter()
        .map(|&name| {
            let w =
                preexec_workloads::by_name(name).ok_or_else(|| format!("unknown kernel {name}"))?;
            let program = w.build(cfg.workload.input);
            let artifacts = if cfg.workload.mode == Mode::Reuse {
                let arts = Pipeline::new(&program)
                    .policy(spec)
                    .trace()
                    .map_err(|e| format!("{name}: tracing artifacts: {e}"))?;
                Some((arts.forest, arts.stats))
            } else {
                None
            };
            Ok(Kernel {
                name: w.name,
                program,
                artifacts,
            })
        })
        .collect()
}

/// The committed digests for `(input, budget, kernel)`.
fn reference(input: InputSet, budget: u64, kernel: &str) -> Option<(u64, u64)> {
    REFERENCE.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f[..] {
            [i, b, k, forest, result]
                if i == input.name() && b.parse() == Ok(budget) && k == kernel =>
            {
                Some((
                    u64::from_str_radix(forest, 16).ok()?,
                    u64::from_str_radix(result, 16).ok()?,
                ))
            }
            _ => None,
        }
    })
}

/// The reference line for a kernel's digests, as `reference.txt` holds it.
pub fn reference_line(input: InputSet, budget: u64, k: &KernelSummary) -> String {
    format!(
        "{} {budget} {} {:016x} {:016x}",
        input.name(),
        k.name,
        k.forest_fnv,
        k.result_fnv
    )
}

/// FNV-1a-64 digests of an output's forest bytes and result rendering.
pub(crate) fn digests(out: &PipelineOutput) -> (u64, u64) {
    let forest = preexec_slice::write_forest(&out.forest);
    (
        fnv1a64(forest.as_bytes()),
        fnv1a64(format!("{:?}", out.result).as_bytes()),
    )
}

/// Reads the process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs one benchmark: set-up, timed rounds, checks, and (when
/// configured) the layer pass.
///
/// # Errors
///
/// A set-up failure or an unreadable `/proc/self/status`; failures of
/// individual calls and checks are counted in the report instead.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut kernels: Vec<Kernel> = Vec::new();
    let mut setup_s = Vec::new();
    for _ in 0..cfg.setup_reps.max(1) {
        // Drop the previous set-up first so two copies never coexist.
        kernels.clear();
        let t = Instant::now();
        kernels = set_up(cfg)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let spec = cfg.spec();
    let mut summaries: Vec<KernelSummary> = kernels
        .iter()
        .map(|k| KernelSummary {
            name: k.name,
            times_ms: Vec::new(),
            forest_fnv: 0,
            result_fnv: 0,
            model: [f64::NAN; 4],
        })
        .collect();
    let mut expected: Vec<Option<(u64, u64)>> = kernels
        .iter()
        .map(|k| {
            if cfg.check_reference {
                reference(cfg.workload.input, cfg.budget, k.name)
            } else {
                None
            }
        })
        .collect();
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    if cfg.check_reference {
        for (k, e) in kernels.iter().zip(&expected) {
            if e.is_none() {
                failures.push(format!(
                    "{}: no reference digests for {} at budget {}",
                    k.name,
                    cfg.workload.input.name(),
                    cfg.budget
                ));
            }
        }
    }

    let start = Instant::now();
    let mut rounds = 0;
    while rounds < cfg.min_rounds || start.elapsed().as_secs_f64() < cfg.seconds {
        for i in stats::round_order(kernels.len(), cfg.seed, rounds) {
            let k = &kernels[i];
            let pipeline = k.pipeline(spec);
            attempted += 1;
            let t = Instant::now();
            let out = pipeline.run();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    failures.push(format!("{}: round {rounds}: {e}", k.name));
                    continue;
                }
            };
            let got = digests(&out);
            let s = &mut summaries[i];
            (s.forest_fnv, s.result_fnv) = got;
            match expected[i] {
                Some(want) if want != got => {
                    failures.push(format!(
                        "{}: round {rounds}: digests {:016x} {:016x}, expected {:016x} {:016x}",
                        k.name, got.0, got.1, want.0, want.1
                    ));
                    continue;
                }
                Some(_) => {}
                None => expected[i] = Some(got),
            }
            s.times_ms.push(ms);
            s.model = model(&out);
        }
        rounds += 1;
    }
    let peak_rss = peak_rss_mb()?;

    let best: Vec<f64> = summaries.iter().map(|s| stats::best(&s.times_ms)).collect();
    let model_of = |i: usize| summaries.iter().map(|s| s.model[i]).collect::<Vec<f64>>();
    let end_to_end = vec![
        m("run_ms", "ms", stats::geomean(&best)),
        m("setup_s", "s", stats::median(&setup_s)),
        m("peak_rss_mb", "MB", peak_rss),
        m("speedup", "x", stats::geomean(&model_of(0))),
        m("coverage_pct", "%", stats::mean(&model_of(1))),
        m("pred_ipc_err_pct", "%", stats::mean(&model_of(2))),
        m("pred_cov_err_pp", "pp", stats::mean(&model_of(3))),
    ];

    let (layer_rows, per_layer) = if cfg.layers && failures.is_empty() {
        let mut rows = Vec::new();
        for (k, s) in kernels.iter().zip(&summaries) {
            attempted += 1;
            match layers::measure(cfg, k, (s.forest_fnv, s.result_fnv)) {
                Ok(row) => rows.push(row),
                Err(e) => failures.push(format!("{}: layer pass: {e}", k.name)),
            }
        }
        let metrics = layers::metrics(&rows);
        (rows, metrics)
    } else {
        (Vec::new(), Vec::new())
    };

    Ok(Report {
        workload: cfg.workload,
        budget: cfg.budget,
        rounds,
        kernels: summaries,
        end_to_end,
        layer_rows,
        per_layer,
        attempted,
        failures,
    })
}

/// One output's model-versus-measurement values (see
/// [`KernelSummary::model`]): the simulator is deterministic, so these
/// are equal in every round.
fn model(out: &PipelineOutput) -> [f64; 4] {
    let r = &out.result;
    let ipc = r.assisted.ipc();
    let predicted_ipc = r
        .selection
        .prediction
        .predicted_ipc(r.stats.insts, r.base.ipc());
    let predicted_cov = preexec_experiments::pipeline::pct(
        r.selection.prediction.misses_covered,
        out.forest.total_misses(),
    );
    [
        r.speedup(),
        r.coverage_pct(),
        100.0 * (predicted_ipc - ipc).abs() / ipc,
        (predicted_cov - r.coverage_pct()).abs(),
    ]
}
