//! The [`Pipeline`] builder — the single front door to the trace →
//! slice → select → simulate toolflow.
//!
//! Historically every combination of knobs grew its own free function
//! (`try_run_pipeline`, `try_run_pipeline_par`,
//! `try_run_pipeline_with_artifacts`, `try_select_par`, …). The builder
//! collapses that surface into one typed entry point:
//!
//! ```
//! use preexec_experiments::Pipeline;
//! use preexec_workloads::{suite, InputSet};
//!
//! let w = suite().into_iter().find(|w| w.name == "vpr.r").unwrap();
//! let p = w.build(InputSet::Train);
//! let out = Pipeline::new(&p).budget(60_000).threads(2).run().unwrap();
//! assert!(out.result.speedup() >= 1.0);
//! ```
//!
//! The builder holds exactly one policy value: every *policy* knob
//! (config, budget, slicing mode, screening, adaptive selection,
//! deadline) is a field of the [`PolicySpec`], and the
//! [`config`](Pipeline::config) and [`budget`](Pipeline::budget) setters
//! are thin wrappers that mutate it. [`policy`](Pipeline::policy)
//! installs a whole spec at once — the same value the toolflow `--policy`
//! flag, the daemon's `policy` object, and the WAL all carry.
//!
//! Execution-environment knobs stay separate from policy:
//!
//! - [`threads`](Pipeline::threads) / [`parallelism`](Pipeline::parallelism)
//!   — the selection stage's fan-out;
//! - [`artifacts`](Pipeline::artifacts) — skip the trace stage entirely,
//!   finishing from a cached forest (the service's cache-hit path);
//! - [`gate`](Pipeline::gate) — stage-boundary admission (cancellation,
//!   deadlines).
//!
//! Every combination produces byte-identical [`PipelineResult`]s — the
//! determinism contract of DESIGN.md §11 extended to the new axes.
//! Adaptive runs are additionally bit-identical at any thread count.

use crate::pipeline::{
    self, AdaptiveReport, PipelineConfig, PipelineParStats, PipelineResult, TracePath,
};
use crate::policy::PolicySpec;
use crate::PipelineError;
use preexec_core::par::Parallelism;
use preexec_core::ScreenStats;
use preexec_func::RunStats;
use preexec_isa::Program;
use preexec_slice::SliceForest;
use std::time::Instant;

/// Wall-clock microseconds spent in each pipeline stage of one
/// [`Pipeline::run`] (trace includes slicing; zero when the stage was
/// skipped via [`Pipeline::artifacts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageUs {
    /// Trace + slice-forest construction.
    pub trace: u64,
    /// Unassisted timing simulation.
    pub base_sim: u64,
    /// P-thread selection.
    pub select: u64,
    /// Assisted timing simulation.
    pub assisted_sim: u64,
}

/// What [`Pipeline::trace`] produces: the slice forest plus everything
/// measured while building it.
#[derive(Debug, Clone)]
pub struct TraceArtifacts {
    /// The slice forest (one tree per problem load).
    pub forest: SliceForest,
    /// Functional trace statistics.
    pub stats: RunStats,
}

/// Everything one [`Pipeline::run`] produced.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// The measurements (trace stats, base sim, selection, assisted sim).
    pub result: PipelineResult,
    /// The slice forest the selection ran against — returned so callers
    /// (e.g. the artifact cache) can persist it without re-tracing.
    pub forest: SliceForest,
    /// Per-stage parallel-utilization counters.
    pub par: PipelineParStats,
    /// Wall-clock stage timings.
    pub stage_us: StageUs,
    /// Whether the trace stage was skipped via
    /// [`artifacts`](Pipeline::artifacts).
    pub artifacts_reused: bool,
    /// Candidate counts from the static screening pre-pass of the
    /// selection stage; `None` when the spec disabled screening.
    pub screen: Option<ScreenStats>,
    /// Per-phase policy choices and static-vs-adaptive aggregates;
    /// `None` unless the spec enabled adaptive selection.
    pub adaptive: Option<AdaptiveReport>,
}

/// Default checkpoint cadence for
/// [`SlicingMode::OnDemand`]: one checkpoint
/// every 4096 emitted instructions — small enough that re-executing one
/// interval is cheap, large enough that checkpoint storage stays a
/// rounding error next to the trace itself.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 4096;

/// How the trace stage extracts backward slices.
///
/// Both modes produce **bit-identical** slice forests (asserted by the
/// builder tests and `tests/determinism`); they differ only in how much
/// trace history stays resident while slicing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SlicingMode {
    /// The classic in-memory sliding window: the last `scope` dynamic
    /// instructions stay resident (`O(scope)` memory). The default.
    #[default]
    Windowed,
    /// Checkpoint-based on-demand re-execution: the trace pass records a
    /// lightweight checkpoint (architectural registers + dirty pages +
    /// statistics) every `checkpoint_every` emitted instructions and
    /// keeps **no window**; each slice is reconstructed later by
    /// deterministically re-executing bounded intervals from the nearest
    /// checkpoint. Peak slicing memory is
    /// `O(checkpoints + checkpoint_every)` regardless of scope, making
    /// scopes far beyond window residency feasible. A cadence of 0 is
    /// clamped to 1.
    OnDemand {
        /// Emitted instructions between checkpoints (see
        /// [`DEFAULT_CHECKPOINT_EVERY`]).
        checkpoint_every: u64,
    },
}

/// A stage-boundary hook: consulted with the stage name (`"trace"`,
/// `"base_sim"`, `"select"`, `"assisted_sim"`) immediately before each
/// stage starts. Returning an error aborts the run with that error —
/// this is how the service implements cancellation and wall-clock
/// deadlines without the pipeline knowing about either: the watchdogs
/// bound each stage, the gate decides whether the next one may begin.
pub type StageGate<'g> = &'g (dyn Fn(&'static str) -> Result<(), PipelineError> + Sync);

/// Builder for one pipeline run over one workload program.
///
/// See the [module docs](self) for the knob model and the determinism
/// contract.
#[derive(Clone)]
pub struct Pipeline<'p> {
    program: &'p Program,
    spec: PolicySpec,
    par: Parallelism,
    artifacts: Option<(SliceForest, RunStats)>,
    gate: Option<StageGate<'p>>,
}

impl std::fmt::Debug for Pipeline<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("spec", &self.spec)
            .field("par", &self.par)
            .field("artifacts", &self.artifacts.is_some())
            .field("gate", &self.gate.is_some())
            .finish_non_exhaustive()
    }
}

impl<'p> Pipeline<'p> {
    /// Starts a builder over `program` with the default policy
    /// ([`PolicySpec::default`]: paper configuration at a
    /// 120 k-instruction budget; override with [`policy`](Self::policy),
    /// [`budget`](Self::budget), or [`config`](Self::config)).
    pub fn new(program: &'p Program) -> Pipeline<'p> {
        Pipeline {
            program,
            spec: PolicySpec::default(),
            par: Parallelism::serial(),
            artifacts: None,
            gate: None,
        }
    }

    /// Installs a whole [`PolicySpec`] — the one source of truth for
    /// every policy knob. Replaces any previously set config, budget,
    /// slicing mode, screening, or adaptive settings.
    #[must_use]
    pub fn policy(mut self, spec: PolicySpec) -> Self {
        self.spec = spec;
        self
    }

    /// Replaces the spec's [`PipelineConfig`].
    #[must_use]
    pub fn config(mut self, cfg: PipelineConfig) -> Self {
        self.spec.cfg = cfg;
        self
    }

    /// Sets the instruction budget, scaling warm-up to the paper's ratio
    /// (a quarter of the budget).
    #[must_use]
    pub fn budget(mut self, budget: u64) -> Self {
        self.spec.cfg.budget = budget;
        self.spec.cfg.warmup = budget / 4;
        self
    }

    /// Sets the selection stage's thread count (1 = serial).
    #[must_use]
    pub fn threads(self, n: usize) -> Self {
        self.parallelism(Parallelism::new(n))
    }

    /// Sets the selection stage's parallelism knob directly.
    #[must_use]
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Supplies pre-computed trace artifacts (e.g. an artifact-cache
    /// hit), skipping the trace stage entirely. The artifacts must come
    /// from a trace under the same scope/slice-length/budget/warm-up, or
    /// the run answers a different question than it claims to.
    #[must_use]
    pub fn artifacts(mut self, forest: SliceForest, stats: RunStats) -> Self {
        self.artifacts = Some((forest, stats));
        self
    }

    /// Installs a [`StageGate`] consulted before each stage starts. No
    /// gate (the default) admits every stage.
    #[must_use]
    pub fn gate(mut self, gate: StageGate<'p>) -> Self {
        self.gate = Some(gate);
        self
    }

    fn check_gate(&self, stage: &'static str) -> Result<(), PipelineError> {
        match self.gate {
            Some(gate) => gate(stage),
            None => Ok(()),
        }
    }

    /// Runs only the trace+slice stage, returning the artifacts (the
    /// decoupled toolflow's expensive half; feed the result back through
    /// [`artifacts`](Self::artifacts) to finish later).
    ///
    /// # Errors
    ///
    /// Configuration variants of [`PipelineError`] before any work
    /// starts; [`PipelineError::Exec`]/[`Slice`](PipelineError::Slice)
    /// if the trace faults.
    pub fn trace(self) -> Result<TraceArtifacts, PipelineError> {
        self.spec.try_validate()?;
        let (artifacts, _, _us) = self.trace_stage(false)?;
        Ok(artifacts)
    }

    /// Runs the full pipeline (or its post-trace half, given
    /// [`artifacts`](Self::artifacts)). When the spec enables adaptive
    /// selection, the run takes the phased path: phase-partitioned
    /// trace, per-phase policy choice, and a deduplicated
    /// union selection (see [`AdaptiveReport`]); the returned `forest` is
    /// still the global one, byte-identical to a non-adaptive trace's.
    ///
    /// # Errors
    ///
    /// Configuration variants of [`PipelineError`] before any work
    /// starts; wrapped layer errors if a stage faults.
    pub fn run(self) -> Result<PipelineOutput, PipelineError> {
        self.spec.try_validate()?;
        preexec_obs::global().counter("pipeline.runs").inc();
        let adaptive = self.spec.adaptive.enabled;
        // Cached artifacts carry no phase partition, so an adaptive run
        // cannot honestly start from them.
        if adaptive && self.artifacts.is_some() {
            return Err(PipelineError::ConflictingPolicy { key: "artifacts" });
        }
        let program = self.program;
        let cfg = self.spec.cfg;
        let par = self.par;
        let gate = self.gate;
        let check = |stage: &'static str| match gate {
            Some(g) => g(stage),
            None => Ok(()),
        };
        let artifacts_reused = self.artifacts.is_some();
        let screening = self.spec.screening;
        let (arts, phases, trace_us) = self.trace_stage(adaptive)?;
        let mut stage_us = StageUs { trace: trace_us, ..StageUs::default() };

        check("base_sim")?;
        let t = Instant::now();
        let base = pipeline::base_sim_stage(program, &cfg)?;
        stage_us.base_sim = elapsed_us(t);

        check("select")?;
        let t = Instant::now();
        let (selection, report, select_par, screen) = if adaptive {
            let (selection, report, par, screen) = pipeline::select_adaptive_stage(
                &arts.forest,
                &phases,
                &cfg,
                base.ipc(),
                par,
                screening,
            )?;
            (selection, Some(report), par, screen)
        } else {
            let (selection, par, screen) =
                pipeline::select_stage(&arts.forest, &cfg, base.ipc(), par, screening)?;
            (selection, None, par, screen)
        };
        stage_us.select = elapsed_us(t);

        check("assisted_sim")?;
        let t = Instant::now();
        let assisted = pipeline::assisted_sim_stage(program, &selection.pthreads, &cfg)?;
        stage_us.assisted_sim = elapsed_us(t);

        Ok(PipelineOutput {
            result: PipelineResult { stats: arts.stats, base, selection, assisted },
            forest: arts.forest,
            par: PipelineParStats { select: select_par },
            stage_us,
            artifacts_reused,
            screen: screening.then_some(screen),
            adaptive: report,
        })
    }

    /// The trace stage under the builder's knobs: supplied artifacts win,
    /// then the phased path (when `phased`), on-demand re-execution, and
    /// the direct windowed path. Returns the artifacts,
    /// the per-phase forests (empty unless phased), and the stage's
    /// wall-clock microseconds (zero for supplied artifacts).
    fn trace_stage(
        self,
        phased: bool,
    ) -> Result<(TraceArtifacts, Vec<SliceForest>, u64), PipelineError> {
        if let Some((forest, stats)) = self.artifacts {
            return Ok((TraceArtifacts { forest, stats }, Vec::new(), 0));
        }
        self.check_gate("trace")?;
        let path = match self.spec.slicing {
            _ if phased => TracePath::Phased(self.spec.adaptive.phase_config()),
            SlicingMode::OnDemand { checkpoint_every } => TracePath::OnDemand { checkpoint_every },
            SlicingMode::Windowed => TracePath::Windowed,
        };
        let cfg = self.spec.cfg;
        let t = Instant::now();
        let (arts, phases) = pipeline::trace_and_slice_along(
            self.program,
            cfg.scope,
            cfg.max_slice_len,
            cfg.budget,
            cfg.warmup,
            path,
        )?;
        Ok((arts, phases, elapsed_us(t)))
    }
}

fn elapsed_us(t: Instant) -> u64 {
    t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_workloads::{suite, InputSet};

    fn vpr() -> Program {
        let w = suite().into_iter().find(|w| w.name == "vpr.r").unwrap();
        w.build(InputSet::Train)
    }

    fn cfg() -> PipelineConfig {
        PipelineConfig::paper_default(120_000)
    }

    /// The Debug rendering round-trips every f64 exactly, so string
    /// equality is byte equality on the results.
    fn key(r: &PipelineResult) -> String {
        format!("{r:?}")
    }

    #[test]
    fn builder_matches_monolithic_run() {
        let p = vpr();
        let whole = pipeline::try_run_pipeline(&p, &cfg()).unwrap();
        let out = Pipeline::new(&p).config(cfg()).run().unwrap();
        assert_eq!(key(&out.result), key(&whole));
        assert!(!out.artifacts_reused);
        assert!(out.stage_us.trace > 0 && out.stage_us.base_sim > 0);
    }

    #[test]
    fn budget_scales_warmup_like_paper_default() {
        let p = vpr();
        let b = Pipeline::new(&p).budget(80_000);
        assert_eq!(b.spec.cfg.budget, 80_000);
        assert_eq!(b.spec.cfg.warmup, 20_000);
    }

    #[test]
    fn setters_are_thin_wrappers_over_the_policy_spec() {
        // Each individual setter mutates exactly the spec field it
        // fronts — the spec is the single source of truth.
        let p = vpr();
        let b = Pipeline::new(&p)
            .config(cfg())
            .budget(80_000)
            .policy(PolicySpec {
                screening: false,
                slicing: SlicingMode::OnDemand { checkpoint_every: 7 },
                ..PolicySpec::default()
            });
        assert!(!b.spec.screening);
        assert_eq!(b.spec.slicing, SlicingMode::OnDemand { checkpoint_every: 7 });
        // .policy() replaced the earlier budget wholesale.
        assert_eq!(b.spec.cfg.budget, 120_000);
    }

    #[test]
    fn artifact_path_skips_trace_and_matches() {
        let p = vpr();
        let c = cfg();
        let whole = Pipeline::new(&p).config(c).run().unwrap();
        let arts = Pipeline::new(&p).config(c).trace().unwrap();
        let out = Pipeline::new(&p).config(c).artifacts(arts.forest, arts.stats).run().unwrap();
        assert!(out.artifacts_reused);
        assert_eq!(out.stage_us.trace, 0);
        assert_eq!(key(&out.result), key(&whole.result));
    }

    fn adaptive_spec(c: PipelineConfig) -> PolicySpec {
        PolicySpec {
            cfg: c,
            adaptive: crate::AdaptiveConfig { enabled: true, ..crate::AdaptiveConfig::default() },
            ..PolicySpec::default()
        }
    }

    #[test]
    fn adaptive_run_is_bit_identical_at_any_thread_count() {
        let p = vpr();
        let c = cfg();
        let serial = Pipeline::new(&p).policy(adaptive_spec(c)).run().unwrap();
        let report = serial.adaptive.as_ref().expect("adaptive report");
        assert!(!report.phases.is_empty());
        // The chooser keeps static on ties, so adaptive never loses.
        assert!(report.adaptive_payoff >= report.static_payoff);
        let serial_forest = preexec_slice::write_forest(&serial.forest);
        for threads in [2usize, 4] {
            let out = Pipeline::new(&p).policy(adaptive_spec(c)).threads(threads).run().unwrap();
            assert_eq!(key(&out.result), key(&serial.result), "threads={threads}");
            assert_eq!(
                format!("{:?}", out.adaptive),
                format!("{:?}", serial.adaptive),
                "report diverged at threads={threads}"
            );
            assert_eq!(
                preexec_slice::write_forest(&out.forest),
                serial_forest,
                "forest bytes diverged at threads={threads}"
            );
        }
    }

    #[test]
    fn adaptive_global_forest_matches_the_windowed_forest() {
        // The phase partition never perturbs the global view: an
        // adaptive run's forest is byte-identical to a plain windowed
        // trace of the same spec.
        let p = vpr();
        let c = cfg();
        let plain = Pipeline::new(&p).config(c).trace().unwrap();
        let out = Pipeline::new(&p).policy(adaptive_spec(c)).run().unwrap();
        assert_eq!(
            preexec_slice::write_forest(&out.forest),
            preexec_slice::write_forest(&plain.forest)
        );
    }

    #[test]
    fn adaptive_rejects_ondemand_and_artifacts() {
        let p = vpr();
        let mut spec = adaptive_spec(cfg());
        spec.slicing = SlicingMode::OnDemand { checkpoint_every: DEFAULT_CHECKPOINT_EVERY };
        assert_eq!(
            Pipeline::new(&p).policy(spec).run().unwrap_err(),
            PipelineError::ConflictingPolicy { key: "slice_mode" }
        );
        let arts = Pipeline::new(&p).config(cfg()).trace().unwrap();
        assert_eq!(
            Pipeline::new(&p)
                .policy(adaptive_spec(cfg()))
                .artifacts(arts.forest, arts.stats)
                .run()
                .unwrap_err(),
            PipelineError::ConflictingPolicy { key: "artifacts" }
        );
    }

    #[test]
    fn gate_aborts_at_the_named_stage_boundary() {
        let p = vpr();
        let c = cfg();
        // A gate that admits everything changes nothing.
        let open = |_: &'static str| Ok(());
        let whole = Pipeline::new(&p).config(c).run().unwrap();
        let gated = Pipeline::new(&p).config(c).gate(&open).run().unwrap();
        assert_eq!(key(&gated.result), key(&whole.result));
        // A gate that rejects `select` lets trace + base sim finish, then
        // aborts with exactly the gate's error.
        let cut = |stage: &'static str| {
            if stage == "select" {
                Err(PipelineError::Cancelled { stage: "select" })
            } else {
                Ok(())
            }
        };
        assert_eq!(
            Pipeline::new(&p).config(c).gate(&cut).run().unwrap_err(),
            PipelineError::Cancelled { stage: "select" }
        );
        // A gate that rejects `trace` stops before any work; supplying
        // artifacts skips the trace stage and its gate check entirely.
        let no_trace = |stage: &'static str| {
            if stage == "trace" {
                Err(PipelineError::DeadlineExceeded { stage: "trace", over_ms: 1 })
            } else {
                Ok(())
            }
        };
        assert_eq!(
            Pipeline::new(&p).config(c).gate(&no_trace).run().unwrap_err(),
            PipelineError::DeadlineExceeded { stage: "trace", over_ms: 1 }
        );
        let arts = Pipeline::new(&p).config(c).trace().unwrap();
        let out = Pipeline::new(&p)
            .config(c)
            .artifacts(arts.forest, arts.stats)
            .gate(&no_trace)
            .run()
            .unwrap();
        assert_eq!(key(&out.result), key(&whole.result));
    }

    #[test]
    fn ondemand_run_matches_batch_run_across_threads() {
        let p = vpr();
        let c = cfg();
        let batch = Pipeline::new(&p).config(c).run().unwrap();
        let batch_forest = preexec_slice::write_forest(&batch.forest);
        for threads in [1usize, 2, 8] {
            let out = Pipeline::new(&p)
                .policy(PolicySpec {
                    cfg: c,
                    slicing: SlicingMode::OnDemand { checkpoint_every: DEFAULT_CHECKPOINT_EVERY },
                    ..PolicySpec::default()
                })
                .threads(threads)
                .run()
                .unwrap();
            assert_eq!(key(&out.result), key(&batch.result), "threads={threads}");
            assert_eq!(
                preexec_slice::write_forest(&out.forest),
                batch_forest,
                "forest bytes diverged at threads={threads}"
            );
        }
    }

    #[test]
    fn ondemand_matches_under_coarse_and_fine_cadence() {
        let p = vpr();
        // Every checkpoint clones the whole cache hierarchy, so cadence 1
        // runs at a small budget, against a batch run at that budget.
        let small = PipelineConfig::paper_default(2_000);
        for (c, cadences) in [(small, &[1u64][..]), (cfg(), &[257, 1 << 20][..])] {
            let batch = Pipeline::new(&p).config(c).run().unwrap();
            assert!(batch.forest.num_trees() > 0, "budget {} slices nothing", c.budget);
            let batch_forest = preexec_slice::write_forest(&batch.forest);
            for &every in cadences {
                let out = Pipeline::new(&p)
                    .policy(PolicySpec {
                        cfg: c,
                        slicing: SlicingMode::OnDemand { checkpoint_every: every },
                        ..PolicySpec::default()
                    })
                    .run()
                    .unwrap();
                assert_eq!(key(&out.result), key(&batch.result), "checkpoint_every={every}");
                assert_eq!(
                    preexec_slice::write_forest(&out.forest),
                    batch_forest,
                    "forest bytes diverged at checkpoint_every={every}"
                );
            }
        }
    }

    #[test]
    fn invalid_config_is_rejected_before_work() {
        let p = vpr();
        let bad = PipelineConfig { budget: 0, ..cfg() };
        assert_eq!(
            Pipeline::new(&p).config(bad).run().unwrap_err(),
            PipelineError::ZeroBudget
        );
        assert_eq!(
            Pipeline::new(&p).config(bad).trace().unwrap_err(),
            PipelineError::ZeroBudget
        );
    }
}
