//! The [`Pipeline`] builder — the single front door to the trace →
//! slice → select → simulate toolflow. Every standard run goes through
//! it: the service's jobs, `toolflow`, the suite benchmark, and each row
//! and bar of the paper's tables, figures and ablations. One typed entry
//! point, one config check:
//!
//! ```
//! use preexec_experiments::Pipeline;
//! use preexec_workloads::{suite, InputSet};
//!
//! let w = suite().into_iter().find(|w| w.name == "vpr.r").unwrap();
//! let p = w.build(InputSet::Train);
//! let out = Pipeline::new(&p).budget(60_000).run().unwrap();
//! assert!(out.result.speedup() >= 1.0);
//! ```
//!
//! The builder holds exactly one policy value: every *policy* knob
//! (config, budget, slicing mode, deadline) is a field of the
//! [`PolicySpec`], and the [`config`](Pipeline::config) and
//! [`budget`](Pipeline::budget) setters are thin wrappers that mutate
//! it. [`policy`](Pipeline::policy) installs a whole spec at once — the
//! same value the daemon's `policy` object and the WAL carry.
//!
//! Selection always runs serially behind the static screen, the one
//! path the suite benchmark measures. Two execution knobs stay separate
//! from policy:
//!
//! - [`artifacts`](Pipeline::artifacts) — skip the trace stage entirely,
//!   finishing from a cached forest (the service's cache-hit path);
//! - [`gate`](Pipeline::gate) — stage-boundary admission (cancellation,
//!   deadlines).
//!
//! Every combination produces byte-identical [`PipelineResult`]s.

use crate::pipeline::{self, PipelineConfig, PipelineResult};
use crate::policy::PolicySpec;
use crate::PipelineError;
use preexec_core::{Selection, StaticPThread};
use preexec_func::RunStats;
use preexec_isa::Program;
use preexec_slice::{SliceForest, SliceForestBuilder};
use preexec_timing::{simulate_alike, SimResult};
use std::ops::ControlFlow;
use std::panic::resume_unwind;
use std::sync::{mpsc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Wall-clock microseconds spent in each pipeline stage of one
/// [`Pipeline::run`] (trace includes slicing; zero when the stage was
/// skipped via [`Pipeline::artifacts`]). A run that traces runs `trace`
/// and `base_sim` at the same time, and on a [`Speculation::Hit`] the
/// assisted simulation too, so the four do not add up to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageUs {
    /// Trace + slice-forest construction, and the partial selection of a
    /// run that speculates.
    pub trace: u64,
    /// Unassisted timing simulation.
    pub base_sim: u64,
    /// P-thread selection on the whole forest.
    pub select: u64,
    /// Assisted timing simulation: the helper's on a hit.
    pub assisted_sim: u64,
}

/// What became of one [`Pipeline::run`]'s speculative assisted simulation
/// (see [`Pipeline::run`]). It never changes the run's [`PipelineResult`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Speculation {
    /// None ran: the run was given artifacts, sliced on demand, or its
    /// trace ended before the base simulation did.
    #[default]
    NotAttempted,
    /// The final selection simulates alike the partial one
    /// ([`simulate_alike`]), so the helper's simulation is the run's
    /// assisted result.
    Hit,
    /// The selections differ: the helper's simulation was thrown away and
    /// the caller simulated the final selection.
    Miss,
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
    /// Wall-clock stage timings.
    pub stage_us: StageUs,
    /// Whether the trace stage was skipped via
    /// [`artifacts`](Pipeline::artifacts).
    pub artifacts_reused: bool,
    /// Whether this run's speculative assisted simulation hit, missed or
    /// was not attempted.
    pub speculation: Speculation,
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
    /// lightweight checkpoint (architectural registers + the 8-byte
    /// granules stores dirtied + statistics) every `checkpoint_every`
    /// emitted instructions and keeps **no window**; each slice is
    /// reconstructed later by deterministically re-executing bounded
    /// intervals from the nearest checkpoint. Peak slicing memory is
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
/// `"base_sim"`, `"select"`, `"assisted_sim"`) before each stage starts.
/// Returning an error aborts the run with that error — this is how the
/// service implements cancellation and wall-clock deadlines without the
/// pipeline knowing about either: the watchdogs bound each stage, the
/// gate decides whether the next one may begin.
///
/// A run that traces runs `trace` and `base_sim` at the same time, so it
/// asks for `trace` and then `base_sim` before either starts. A cancel
/// or a deadline that lands while they run is seen at `select`. A run
/// that speculates (see [`Pipeline::run`]) asks the same four stages:
/// its partial selection and speculative simulation ask nothing, and a
/// cancel or a deadline seen at `select` or `assisted_sim` returns once
/// the helper thread has ended, at most one assisted simulation later,
/// which its cycle watchdog bounds. The gate is only ever called on the
/// thread that called [`Pipeline::run`].
pub type StageGate<'g> = &'g (dyn Fn(&'static str) -> Result<(), PipelineError> + Sync);

/// Builder for one pipeline run over one workload program.
///
/// See the [module docs](self) for the knob model and the determinism
/// contract.
#[derive(Clone)]
pub struct Pipeline<'p> {
    program: &'p Program,
    spec: PolicySpec,
    artifacts: Option<(SliceForest, RunStats)>,
    gate: Option<StageGate<'p>>,
}

impl std::fmt::Debug for Pipeline<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("spec", &self.spec)
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
            artifacts: None,
            gate: None,
        }
    }

    /// Installs a whole [`PolicySpec`] — the one source of truth for
    /// every policy knob. Replaces any previously set config, budget,
    /// slicing mode, or deadline.
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
        if let Some((forest, stats)) = self.artifacts {
            return Ok(TraceArtifacts { forest, stats });
        }
        self.check_gate("trace")?;
        trace_driver(self.program, &self.spec, |_, _| ControlFlow::Break(()))
    }

    /// Runs the full pipeline (or its post-trace half, given
    /// [`artifacts`](Self::artifacts)).
    ///
    /// A run that traces asks the gate for `trace` and then `base_sim`
    /// before either starts, then runs the base simulation on one scoped
    /// helper thread while the caller traces and slices: the base run
    /// depends only on the program and the machine, never on the trace.
    /// The two stages overlap in wall time, so their [`StageUs`] entries
    /// no longer add up to the run. Given artifacts, the base simulation
    /// runs on the caller and no thread is spawned.
    ///
    /// When the base simulation ends before a windowed trace does, the run
    /// speculates: at its next measured instruction the caller selects on
    /// the forest built so far, with the real base IPC, and hands those
    /// p-threads to the helper, which simulates them while the trace goes
    /// on. After the trace the caller selects on the whole forest as
    /// always. If the two selections [simulate alike](simulate_alike), the
    /// helper's result is the assisted one, byte for byte what the caller
    /// would simulate, since the simulator is deterministic
    /// ([`Speculation::Hit`]); otherwise the caller simulates the final
    /// selection once the helper has ended ([`Speculation::Miss`]). On a
    /// run that speculates the `stage.score`, `stage.solve` and
    /// `stage.merge` spans count two selections. On-demand slicing and
    /// given artifacts never speculate, and the gate is asked as it is
    /// without speculation (see [`StageGate`]).
    ///
    /// # Errors
    ///
    /// Configuration variants of [`PipelineError`] before any work
    /// starts; wrapped layer errors if a stage faults. When the trace and
    /// the base simulation both fault, the trace's error is returned.
    ///
    /// Nothing stops the helper early, so a trace that faults returns its
    /// error only once the base simulation has ended: at most one base
    /// simulation later, which its cycle watchdog bounds (`budget × 64`
    /// cycles, at least 2^22). A run that traces successfully pays that
    /// simulation anyway, and a faulting trace is a broken program or
    /// configuration, not a path worth a cancel flag between the threads.
    ///
    /// # Panics
    ///
    /// A panic on the helper thread is re-raised on the caller.
    pub fn run(self) -> Result<PipelineOutput, PipelineError> {
        self.run_snapshot_at(None)
    }

    /// [`run`](Self::run), with the speculative snapshot taken at measured
    /// instruction `at` (where the caller waits for the base simulation)
    /// instead of the first measured instruction after the base
    /// simulation ends: the seam through which the tests force hits and
    /// misses.
    fn run_snapshot_at(mut self, at: Option<u64>) -> Result<PipelineOutput, PipelineError> {
        self.spec.try_validate()?;
        let reg = preexec_obs::global();
        reg.counter("pipeline.runs").inc();
        let (program, cfg) = (self.program, self.spec.cfg);
        let mut stage_us = StageUs::default();
        let artifacts = self.artifacts.take();
        let artifacts_reused = artifacts.is_some();
        let (arts, base, selection, speculated) = match artifacts {
            Some((forest, stats)) => {
                self.check_gate("base_sim")?;
                let (base, us) = timed(|| pipeline::base_sim_stage(program, &cfg));
                stage_us.base_sim = us;
                let base = base?;
                let selection = self.select(&forest, base.ipc(), &mut stage_us)?;
                (TraceArtifacts { forest, stats }, base, selection, None)
            }
            None => {
                self.check_gate("trace")?;
                self.check_gate("base_sim")?;
                self.trace_speculating(at, &mut stage_us)?
            }
        };

        self.check_gate("assisted_sim")?;
        let simulate =
            || timed(|| pipeline::assisted_sim_stage(program, &selection.pthreads, &cfg, &base));
        let (speculation, (assisted, us)) = match speculated {
            Some(s) if simulate_alike(&s.pthreads, &selection.pthreads) => {
                reg.counter("pipeline.speculation.hit").inc();
                (Speculation::Hit, s.assisted)
            }
            Some(_) => {
                reg.counter("pipeline.speculation.miss").inc();
                (Speculation::Miss, simulate())
            }
            None => (Speculation::NotAttempted, simulate()),
        };
        stage_us.assisted_sim = us;

        Ok(PipelineOutput {
            result: PipelineResult {
                stats: arts.stats,
                base,
                selection,
                assisted: assisted?,
            },
            forest: arts.forest,
            stage_us,
            artifacts_reused,
            speculation,
        })
    }

    /// The traced half of [`run`](Self::run), up to the final selection:
    /// the caller traces and slices while one scoped helper runs the base
    /// simulation and then, if the caller's snapshot lends it p-threads
    /// before the trace ends, their assisted simulation. The helper
    /// allocates in a glibc arena of its own, which stays resident, so
    /// nothing but the two simulations runs there. With the base IPC known
    /// at the end of the trace, the final selection is made before the
    /// join, beside the helper's simulation.
    fn trace_speculating(
        &self,
        at: Option<u64>,
        stage_us: &mut StageUs,
    ) -> Result<(TraceArtifacts, SimResult, Selection, Option<Speculated>), PipelineError> {
        let (program, cfg) = (self.program, self.spec.cfg);
        let base_ipc = OnceLock::new();
        let (traced, selected, (ran, base_us)) = thread::scope(|s| {
            let base_ipc = &base_ipc;
            let (lend, lent) = mpsc::channel::<Vec<StaticPThread>>();
            let helper = s.spawn(move || {
                let (ran, us) = timed(|| pipeline::base_sim_stage(program, &cfg));
                let ran = ran.map(|base| {
                    let _ = base_ipc.set(base.ipc());
                    // Waits until the caller lends p-threads or drops
                    // `lend` at the end of its trace.
                    let speculated = lent.recv().ok().map(|pthreads| Speculated {
                        assisted: timed(|| {
                            pipeline::assisted_sim_stage(program, &pthreads, &cfg, &base)
                        }),
                        pthreads,
                    });
                    (base, speculated)
                });
                (ran, us)
            });
            let helper_ended = || helper.is_finished();
            // Owns `lend`, so the helper stops waiting when the trace ends.
            let snapshot = move |seq: u64, builder: &mut SliceForestBuilder| {
                match at {
                    None if base_ipc.get().is_none() => return ControlFlow::Continue(()),
                    Some(at) if seq < at => return ControlFlow::Continue(()),
                    Some(_) => {
                        while base_ipc.get().is_none() && !helper_ended() {
                            thread::park_timeout(Duration::from_millis(1));
                        }
                    }
                    None => {}
                }
                // A guess, so it asks no gate, and an error only means
                // that nothing is lent.
                if let Some(&ipc) = base_ipc.get() {
                    let partial = builder.lend_forest(|f| pipeline::select_stage(f, &cfg, ipc));
                    if let Ok(partial) = partial {
                        let _ = lend.send(partial.pthreads);
                    }
                }
                ControlFlow::Break(())
            };
            let (traced, us) = timed(|| trace_driver(program, &self.spec, snapshot));
            stage_us.trace = us;
            let selected = match (&traced, base_ipc.get()) {
                (Ok(arts), Some(&ipc)) => Some(self.select(&arts.forest, ipc, stage_us)),
                _ => None,
            };
            let joined = helper.join().unwrap_or_else(|e| resume_unwind(e));
            (traced, selected, joined)
        });
        stage_us.base_sim = base_us;
        let arts = traced?;
        let (base, speculated) = ran?;
        let selection = match selected {
            Some(selection) => selection?,
            None => self.select(&arts.forest, base.ipc(), stage_us)?,
        };
        Ok((arts, base, selection, speculated))
    }

    /// The selection stage on `forest`, behind its gate.
    fn select(
        &self,
        forest: &SliceForest,
        base_ipc: f64,
        stage_us: &mut StageUs,
    ) -> Result<Selection, PipelineError> {
        self.check_gate("select")?;
        let (selection, us) = timed(|| pipeline::select_stage(forest, &self.spec.cfg, base_ipc));
        stage_us.select = us;
        selection
    }
}

/// A speculative assisted simulation the helper ran: the p-threads of the
/// partial selection, and the simulation's result and wall time.
struct Speculated {
    pthreads: Vec<StaticPThread>,
    assisted: (Result<SimResult, PipelineError>, u64),
}

/// The trace driver under the spec's scope, slice length, budget,
/// warm-up and slicing mode, with a windowed trace's `snapshot` hook.
fn trace_driver(
    program: &Program,
    spec: &PolicySpec,
    snapshot: impl FnMut(u64, &mut SliceForestBuilder) -> ControlFlow<()>,
) -> Result<TraceArtifacts, PipelineError> {
    let cfg = spec.cfg;
    pipeline::trace_and_slice_along(
        program,
        cfg.scope,
        cfg.max_slice_len,
        cfg.budget,
        cfg.warmup,
        spec.slicing,
        snapshot,
    )
}

/// Runs `f`, returning its value and its wall-clock microseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let value = f();
    (value, elapsed_us(t))
}

fn elapsed_us(t: Instant) -> u64 {
    t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_isa::{Inst, Op, Reg};
    use preexec_timing::SimMode;
    use preexec_workloads::{by_name, suite, InputSet};
    use std::sync::Mutex;

    fn vpr() -> Program {
        let w = suite().into_iter().find(|w| w.name == "vpr.r").unwrap();
        w.build(InputSet::Train)
    }

    /// Trace, base simulation, selection and assisted simulation, one
    /// after another on the calling thread.
    fn by_hand(p: &Program, c: PipelineConfig) -> PipelineResult {
        let arts = Pipeline::new(p).config(c).trace().unwrap();
        let base = pipeline::try_sim(p, &[], &c, SimMode::Normal).unwrap();
        let selection = pipeline::select_stage(&arts.forest, &c, base.ipc()).unwrap();
        let assisted = pipeline::try_sim(p, &selection.pthreads, &c, SimMode::Normal).unwrap();
        PipelineResult {
            stats: arts.stats,
            base,
            selection,
            assisted,
        }
    }

    /// A run whose snapshot is taken at `fraction` of the measured region
    /// of `kernel` on `input`, held to the stages run by hand.
    fn forced(kernel: &str, input: InputSet, fraction: f64) -> (PipelineOutput, PipelineResult) {
        let p = by_name(kernel).unwrap().build(input);
        let c = cfg();
        let at = c.warmup + (c.budget as f64 * fraction) as u64;
        let out = Pipeline::new(&p)
            .config(c)
            .run_snapshot_at(Some(at))
            .unwrap();
        let want = by_hand(&p, c);
        assert_eq!(key(&out.result), key(&want), "{kernel} at {fraction}");
        (out, want)
    }

    #[test]
    fn a_forced_hit_is_the_helpers_simulation_of_the_final_selection() {
        let (out, want) = forced("vpr.r", InputSet::Train, 0.5);
        assert!(!want.selection.pthreads.is_empty());
        assert_eq!(out.speculation, Speculation::Hit);
    }

    #[test]
    fn a_snapshot_at_the_first_measured_instruction_misses() {
        // The forest is still empty, so the partial selection is too.
        let (out, want) = forced("vpr.r", InputSet::Train, 0.0);
        assert!(!want.selection.pthreads.is_empty());
        assert_eq!(out.speculation, Speculation::Miss);
    }

    #[test]
    fn a_partial_selection_that_differs_misses() {
        // twolf's test forest over the first tenth of its region selects
        // other p-threads than the whole forest does.
        let (out, _) = forced("twolf", InputSet::Test, 0.1);
        assert_eq!(out.speculation, Speculation::Miss);
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
    fn an_empty_selection_reuses_the_base_run() {
        // gcc's test input is L2-resident and selects nothing.
        let w = suite().into_iter().find(|w| w.name == "gcc").unwrap();
        let p = w.build(InputSet::Test);
        let c = cfg();
        let out = Pipeline::new(&p).config(c).run().unwrap();
        assert!(out.result.selection.pthreads.is_empty());
        let base = format!("{:?}", out.result.base);
        assert_eq!(format!("{:?}", out.result.assisted), base);
        let direct = pipeline::try_sim(&p, &[], &c, SimMode::Normal).unwrap();
        assert_eq!(format!("{direct:?}"), base);
        // The simulator ran once: the assisted stage hands back the base
        // result it is given, even one no simulation of `p` could give.
        let marker = SimResult {
            cycles: 1,
            insts: 7,
            ..SimResult::default()
        };
        let assisted = pipeline::assisted_sim_stage(&p, &[], &c, &marker).unwrap();
        assert_eq!(format!("{assisted:?}"), format!("{marker:?}"));
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
                slicing: SlicingMode::OnDemand {
                    checkpoint_every: 7,
                },
                ..PolicySpec::default()
            });
        assert_eq!(
            b.spec.slicing,
            SlicingMode::OnDemand {
                checkpoint_every: 7
            }
        );
        // .policy() replaced the earlier budget wholesale.
        assert_eq!(b.spec.cfg.budget, 120_000);
    }

    #[test]
    fn artifact_path_skips_trace_and_matches() {
        let p = vpr();
        let c = cfg();
        let whole = Pipeline::new(&p).config(c).run().unwrap();
        let arts = Pipeline::new(&p).config(c).trace().unwrap();
        let out = Pipeline::new(&p)
            .config(c)
            .artifacts(arts.forest, arts.stats)
            .run()
            .unwrap();
        assert!(out.artifacts_reused);
        assert_eq!(out.stage_us.trace, 0);
        assert_eq!(key(&out.result), key(&whole.result));
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
                Err(PipelineError::DeadlineExceeded {
                    stage: "trace",
                    over_ms: 1,
                })
            } else {
                Ok(())
            }
        };
        assert_eq!(
            Pipeline::new(&p)
                .config(c)
                .gate(&no_trace)
                .run()
                .unwrap_err(),
            PipelineError::DeadlineExceeded {
                stage: "trace",
                over_ms: 1
            }
        );
        let arts = Pipeline::new(&p).config(c).trace().unwrap();
        let out = Pipeline::new(&p)
            .config(c)
            .artifacts(arts.forest, arts.stats)
            .gate(&no_trace)
            .run()
            .unwrap();
        assert_eq!(key(&out.result), key(&whole.result));

        // `trace` and `base_sim` run together, so the gate is asked about
        // both before either starts. On a program that faults in both
        // stages, a gate error proves that neither started.
        let bad = faulting_program();
        let run_rejecting = |rejected: &'static str| {
            let asked = Mutex::new(Vec::new());
            let gate = |stage: &'static str| {
                asked.lock().unwrap().push(stage);
                if stage == rejected {
                    Err(PipelineError::Cancelled { stage })
                } else {
                    Ok(())
                }
            };
            let err = Pipeline::new(&bad).config(c).gate(&gate).run().unwrap_err();
            (err, asked.into_inner().unwrap())
        };
        // A gate that rejects `base_sim` now stops before any work.
        assert_eq!(
            run_rejecting("base_sim"),
            (
                PipelineError::Cancelled { stage: "base_sim" },
                vec!["trace", "base_sim"]
            )
        );
        // A gate that rejects `trace` still stops first.
        assert_eq!(
            run_rejecting("trace"),
            (PipelineError::Cancelled { stage: "trace" }, vec!["trace"])
        );
        // Admitting both starts both, and the trace's fault wins.
        let (err, asked) = run_rejecting("select");
        assert!(matches!(err, PipelineError::Exec(_)), "{err:?}");
        assert_eq!(asked, vec!["trace", "base_sim"]);

        // A run that speculates asks the gate at the same four stages.
        let asked = Mutex::new(Vec::new());
        let record = |stage: &'static str| {
            asked.lock().unwrap().push(stage);
            Ok(())
        };
        let out = Pipeline::new(&p)
            .config(c)
            .gate(&record)
            .run_snapshot_at(Some(c.warmup + c.budget / 2))
            .unwrap();
        assert_eq!(out.speculation, Speculation::Hit);
        assert_eq!(key(&out.result), key(&whole.result));
        assert_eq!(
            asked.into_inner().unwrap(),
            vec!["trace", "base_sim", "select", "assisted_sim"]
        );
    }

    /// A program both the tracer and the timing simulator reject at its
    /// first instruction (an ALU op with no destination): any stage that
    /// starts on it fails with a fault instead of the gate's error.
    fn faulting_program() -> Program {
        let mut p = Program::new("no-rd");
        p.push(Inst {
            op: Op::Add,
            rd: None,
            rs1: Some(Reg::new(1)),
            rs2: Some(Reg::new(2)),
            imm: 0,
            target: None,
        });
        p.push(Inst::halt());
        p
    }

    #[test]
    fn ondemand_matches_under_coarse_and_fine_cadence() {
        let p = vpr();
        // Every checkpoint clones the whole cache hierarchy, so cadence 1
        // runs at a small budget, against a batch run at that budget.
        let small = PipelineConfig::paper_default(2_000);
        for (c, cadences) in [(small, &[1u64][..]), (cfg(), &[257, 1 << 20][..])] {
            let batch = Pipeline::new(&p).config(c).run().unwrap();
            assert!(
                batch.forest.num_trees() > 0,
                "budget {} slices nothing",
                c.budget
            );
            let batch_forest = preexec_slice::write_forest(&batch.forest);
            for &every in cadences {
                let out = Pipeline::new(&p)
                    .policy(PolicySpec {
                        cfg: c,
                        slicing: SlicingMode::OnDemand {
                            checkpoint_every: every,
                        },
                        ..PolicySpec::default()
                    })
                    .run()
                    .unwrap();
                assert_eq!(
                    key(&out.result),
                    key(&batch.result),
                    "checkpoint_every={every}"
                );
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
