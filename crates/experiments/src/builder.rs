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
//!   finishing from a cached forest (the service's cache-hit path, whose
//!   two simulations run at once: see [`Pipeline::run`]);
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
use preexec_timing::{simulate_alike, SimMode, SimResult};
use std::ops::ControlFlow;
use std::panic::resume_unwind;
use std::sync::{mpsc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Wall-clock microseconds spent in each pipeline stage of one
/// [`Pipeline::run`] (trace includes slicing; zero when the stage was
/// skipped via [`Pipeline::artifacts`]). A run that traces runs `trace`
/// and `base_sim` at the same time, and on a [`Speculation::Hit`] the
/// assisted simulation overlaps the trace or, given artifacts, the base
/// simulation, so the four do not add up to the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageUs {
    /// Trace + slice-forest construction, and the partial selection of a
    /// run that speculates; always 0 given artifacts.
    pub trace: u64,
    /// Unassisted timing simulation (the whole run, not the prefix a run
    /// given artifacts guesses from).
    pub base_sim: u64,
    /// P-thread selection on the whole forest at the base run's IPC.
    pub select: u64,
    /// Assisted timing simulation: the helper's on a hit, the caller's
    /// otherwise; 0 for an empty selection, whose assisted run is the
    /// base run.
    pub assisted_sim: u64,
}

/// What became of one [`Pipeline::run`]'s speculative assisted simulation
/// (see [`Pipeline::run`]). It never changes the run's [`PipelineResult`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Speculation {
    /// None ran: the run sliced on demand, its trace ended before the
    /// base simulation did, or, given artifacts, the helper's guess
    /// faulted. A run given artifacts otherwise always guesses.
    #[default]
    NotAttempted,
    /// The final selection simulates alike the helper's guess
    /// ([`simulate_alike`]), so the helper's simulation is the run's
    /// assisted result. An empty guess hits when the final selection is
    /// empty too: the base run is then the assisted one.
    Hit,
    /// The selections differ: the caller simulated the final selection
    /// beside the helper's simulation, which the join threw away.
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
/// given artifacts asks `base_sim`, `select` and `assisted_sim`. Each
/// stage is asked exactly once, in that order, and a miss asks
/// `assisted_sim` before it simulates. A run that speculates (see
/// [`Pipeline::run`]) asks the same stages: its guess and the helper's
/// simulation ask nothing, and a cancel or a deadline seen at `select`
/// or `assisted_sim` returns once the helper thread has ended. That is
/// at most one assisted simulation later on a run that traces, and
/// given artifacts at most one prefix, one selection and one assisted
/// simulation after the helper started; the cycle watchdogs bound each
/// simulation. The gate is only ever called on the thread that called
/// [`Pipeline::run`].
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
    /// no longer add up to the run.
    ///
    /// Both paths then speculate the assisted simulation on the helper:
    ///
    /// - When the base simulation ends before a windowed trace does, at
    ///   its next measured instruction the caller selects on the forest
    ///   built so far, with the real base IPC, and hands those p-threads
    ///   to the helper, which simulates them while the trace goes on.
    /// - Given artifacts, the helper simulates the unassisted run's first
    ///   sixteenth of the budget, selects on the given forest with that
    ///   early IPC and simulates those p-threads, while the caller runs
    ///   the whole base simulation.
    ///
    /// Either way the caller then selects as always and settles: if the
    /// final selection [simulates alike](simulate_alike) the helper's
    /// guess, the helper's result is the assisted one, byte for byte what
    /// the caller would simulate, since the simulator is deterministic
    /// ([`Speculation::Hit`]); otherwise the caller simulates the final
    /// selection at once, beside the helper's doomed run, whose result
    /// the join discards ([`Speculation::Miss`]). On a run that guesses
    /// the `stage.score`, `stage.solve` and `stage.merge` spans count two
    /// selections. On-demand slicing never speculates, and the gate is
    /// asked as it is without speculation (see [`StageGate`]).
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
        preexec_obs::global().counter("pipeline.runs").inc();
        let mut stage_us = StageUs::default();
        let artifacts = self.artifacts.take();
        let artifacts_reused = artifacts.is_some();
        let (arts, base, selection, (speculation, kept)) = match artifacts {
            Some((forest, stats)) => {
                self.check_gate("base_sim")?;
                let (base, selection, settled) =
                    self.guess_from_early_ipc(&forest, &mut stage_us)?;
                (TraceArtifacts { forest, stats }, base, selection, settled)
            }
            None => {
                self.check_gate("trace")?;
                self.check_gate("base_sim")?;
                self.trace_speculating(at, &mut stage_us)?
            }
        };
        // An empty selection's assisted run is the base run.
        let (assisted, us) = kept.unwrap_or_else(|| (Ok(base.clone()), 0));
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

    /// The traced half of [`run`](Self::run), up to the kept assisted
    /// simulation: the caller traces and slices while one scoped helper
    /// runs the base simulation and then, if the caller's snapshot lends
    /// it p-threads before the trace ends, their assisted simulation. The
    /// helper allocates in a glibc arena of its own, which stays resident,
    /// so nothing but the two simulations runs there. With the base IPC
    /// known at the end of the trace, the final selection and the settle
    /// step run before the join, beside the helper's simulation.
    fn trace_speculating(
        &self,
        at: Option<u64>,
        stage_us: &mut StageUs,
    ) -> Result<(TraceArtifacts, SimResult, Selection, Kept), PipelineError> {
        let (program, cfg) = (self.program, self.spec.cfg);
        let base_ipc = OnceLock::new();
        let (traced, settled, (ran, base_us)) = thread::scope(|s| {
            let base_ipc = &base_ipc;
            let (lend, lent) = mpsc::channel::<Vec<StaticPThread>>();
            let helper = s.spawn(move || {
                let (ran, us) = timed(|| pipeline::base_sim_stage(program, &cfg));
                let ran = ran.map(|base| {
                    let _ = base_ipc.set(base.ipc());
                    // Waits until the caller lends p-threads or drops
                    // `lend` at the end of its trace.
                    let guessed = lent
                        .recv()
                        .ok()
                        .and_then(|pthreads| simulate(program, &pthreads, &cfg));
                    (base, guessed)
                });
                (ran, us)
            });
            let helper_ended = || helper.is_finished();
            let mut guess = None;
            let lent_copy = &mut guess;
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
                        *lent_copy = Some(partial.pthreads.clone());
                        let _ = lend.send(partial.pthreads);
                    }
                }
                ControlFlow::Break(())
            };
            let (traced, us) = timed(|| trace_driver(program, &self.spec, snapshot));
            stage_us.trace = us;
            let settled = match (&traced, base_ipc.get()) {
                (Ok(arts), Some(&ipc)) => {
                    Some(self.select_and_settle(&arts.forest, ipc, guess.as_deref(), stage_us))
                }
                _ => None,
            };
            let joined = helper.join().unwrap_or_else(|e| resume_unwind(e));
            (traced, settled, joined)
        });
        stage_us.base_sim = base_us;
        let arts = traced?;
        let (base, guessed) = ran?;
        let (selection, settled) = match settled {
            Some(settled) => settled?,
            None => self.select_and_settle(&arts.forest, base.ipc(), None, stage_us)?,
        };
        Ok((arts, base, selection, settled.keep(guessed)))
    }

    /// The post-trace half of [`run`](Self::run) given artifacts, up to
    /// the kept assisted simulation. One scoped helper guesses the
    /// selection from the IPC of the unassisted run's first
    /// `budget / GUESS_PREFIX` instructions, the same deterministic prefix
    /// the base run passes through, and simulates the guess, while the
    /// caller runs the whole base simulation, the final selection and the
    /// settle step. The guess asks no gate, and an error
    /// on the helper only means there is no guess: the caller's own base
    /// run reports the program's fault. Everything the guess allocates,
    /// mcf's selection scratch included, stays in the helper's arena.
    fn guess_from_early_ipc(
        &self,
        forest: &SliceForest,
        stage_us: &mut StageUs,
    ) -> Result<(SimResult, Selection, Kept), PipelineError> {
        let (program, cfg) = (self.program, self.spec.cfg);
        let (settled, guessed) = thread::scope(|s| {
            let (tell, told) = mpsc::channel::<Vec<StaticPThread>>();
            let helper = s.spawn(move || {
                let early = PipelineConfig {
                    budget: (cfg.budget / GUESS_PREFIX).max(1),
                    ..cfg
                };
                let ipc = pipeline::try_sim(program, &[], &early, SimMode::Normal)
                    .ok()?
                    .ipc();
                let guess = pipeline::select_stage(forest, &cfg, ipc).ok()?.pthreads;
                let _ = tell.send(guess.clone());
                simulate(program, &guess, &cfg)
            });
            // The caller's side: the whole base run, the final selection
            // and the settle step.
            let mut caller = || -> Result<_, PipelineError> {
                let (base, us) = timed(|| pipeline::base_sim_stage(program, &cfg));
                stage_us.base_sim = us;
                let base = base?;
                // Waits for the guess, or for the helper to end without one.
                let guess = told.recv().ok();
                let (selection, settled) =
                    self.select_and_settle(forest, base.ipc(), guess.as_deref(), stage_us)?;
                Ok((base, selection, settled))
            };
            let settled = caller();
            let guessed = helper.join().unwrap_or_else(|e| resume_unwind(e));
            (settled, guessed)
        });
        let (base, selection, settled) = settled?;
        Ok((base, selection, settled.keep(guessed)))
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

    /// The final selection and the settle step both speculating paths
    /// share, run on the caller before it joins the helper: asks the gate
    /// for `assisted_sim` and compares the final p-threads with the guess
    /// the helper is simulating (`None` when there is none). A hit keeps
    /// the helper's simulation; a miss, or a run without a guess,
    /// simulates the final selection at once, beside the helper.
    fn select_and_settle(
        &self,
        forest: &SliceForest,
        base_ipc: f64,
        guess: Option<&[StaticPThread]>,
        stage_us: &mut StageUs,
    ) -> Result<(Selection, Settled), PipelineError> {
        let selection = self.select(forest, base_ipc, stage_us)?;
        self.check_gate("assisted_sim")?;
        let reg = preexec_obs::global();
        let speculation = match guess {
            None => Speculation::NotAttempted,
            Some(guess) if simulate_alike(guess, &selection.pthreads) => {
                reg.counter("pipeline.speculation.hit").inc();
                Speculation::Hit
            }
            Some(_) => {
                reg.counter("pipeline.speculation.miss").inc();
                Speculation::Miss
            }
        };
        let own = match speculation {
            Speculation::Hit => None,
            _ => simulate(self.program, &selection.pthreads, &self.spec.cfg),
        };
        Ok((selection, Settled { speculation, own }))
    }
}

/// The unassisted run's prefix that a run given artifacts guesses its
/// selection from is `budget / GUESS_PREFIX` instructions. A sixteenth
/// settles wherever an earlier or later point does (at budget 120 000 the
/// selection at the IPC reached after 5 % or 10 % of the budget simulates
/// alike the final one on the same kernels as at 20 %, 30 % and 50 %),
/// and it costs about a sixteenth of the base run.
const GUESS_PREFIX: u64 = 16;

/// A stage's result and its wall-clock microseconds.
type Timed<T> = (Result<T, PipelineError>, u64);

/// How a run's speculation ended, and the assisted simulation that
/// stands: `None` for an empty selection, whose assisted run is the base
/// run.
type Kept = (Speculation, Option<Timed<SimResult>>);

/// How a run's assisted simulation settled before the join.
struct Settled {
    speculation: Speculation,
    /// The caller's own simulation of the final selection: `None` on a
    /// hit and for an empty selection.
    own: Option<Timed<SimResult>>,
}

impl Settled {
    /// The simulation that stands once the helper, whose simulation of
    /// the guess is `guessed`, has ended: the helper's on a hit, the
    /// caller's otherwise.
    fn keep(self, guessed: Option<Timed<SimResult>>) -> Kept {
        let kept = match self.speculation {
            Speculation::Hit => guessed,
            _ => self.own,
        };
        (self.speculation, kept)
    }
}

/// The timed assisted simulation of `pthreads`, or `None` when there are
/// none: an empty selection's assisted run is the base run, simulated
/// once already.
fn simulate(
    program: &Program,
    pthreads: &[StaticPThread],
    cfg: &PipelineConfig,
) -> Option<Timed<SimResult>> {
    (!pthreads.is_empty()).then(|| timed(|| pipeline::assisted_sim_stage(program, pthreads, cfg)))
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

    /// A run given the artifacts of `kernel` on `input`, held to the
    /// stages run by hand.
    fn given_artifacts(kernel: &str, input: InputSet) -> (PipelineOutput, PipelineResult) {
        let p = by_name(kernel).unwrap().build(input);
        let c = cfg();
        let arts = Pipeline::new(&p).config(c).trace().unwrap();
        let out = Pipeline::new(&p)
            .config(c)
            .artifacts(arts.forest, arts.stats)
            .run()
            .unwrap();
        let want = by_hand(&p, c);
        assert_eq!(key(&out.result), key(&want), "{kernel} {input:?}");
        assert!(out.artifacts_reused);
        assert_eq!(out.stage_us.trace, 0);
        (out, want)
    }

    #[test]
    fn given_artifacts_the_early_ipc_guess_hits() {
        let (out, want) = given_artifacts("vpr.r", InputSet::Train);
        assert!(!want.selection.pthreads.is_empty());
        assert_eq!(out.speculation, Speculation::Hit);
    }

    #[test]
    fn given_artifacts_a_guess_that_differs_misses() {
        // crafty's test selection at the IPC of the first sixteenth of
        // its base run differs from the one at the whole run's IPC.
        let (out, want) = given_artifacts("crafty", InputSet::Test);
        assert!(!want.selection.pthreads.is_empty());
        assert_eq!(out.speculation, Speculation::Miss);
    }

    #[test]
    fn given_artifacts_an_empty_guess_of_an_empty_selection_hits() {
        // gcc's test input is L2-resident and selects nothing at any IPC:
        // the base run is the assisted one.
        let (out, want) = given_artifacts("gcc", InputSet::Test);
        assert!(want.selection.pthreads.is_empty());
        assert_eq!(out.speculation, Speculation::Hit);
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
        // The simulator ran once: an empty selection is never simulated.
        assert!(simulate(&p, &[], &c).is_none());
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

        // A run that speculates asks the gate at the same four stages,
        // once each, whether it hits or misses.
        for (at, speculation) in [
            (c.warmup + c.budget / 2, Speculation::Hit),
            (c.warmup, Speculation::Miss),
        ] {
            let asked = Mutex::new(Vec::new());
            let record = |stage: &'static str| {
                asked.lock().unwrap().push(stage);
                Ok(())
            };
            let out = Pipeline::new(&p)
                .config(c)
                .gate(&record)
                .run_snapshot_at(Some(at))
                .unwrap();
            assert_eq!(out.speculation, speculation);
            assert_eq!(key(&out.result), key(&whole.result));
            assert_eq!(
                asked.into_inner().unwrap(),
                vec!["trace", "base_sim", "select", "assisted_sim"]
            );
        }

        // A run given artifacts asks the three stages it runs, once each,
        // whether its guess hits or misses.
        for (kernel, input, speculation) in [
            ("vpr.r", InputSet::Train, Speculation::Hit),
            ("crafty", InputSet::Test, Speculation::Miss),
        ] {
            let p = by_name(kernel).unwrap().build(input);
            let arts = Pipeline::new(&p).config(c).trace().unwrap();
            let asked = Mutex::new(Vec::new());
            let record = |stage: &'static str| {
                asked.lock().unwrap().push(stage);
                Ok(())
            };
            let out = Pipeline::new(&p)
                .config(c)
                .artifacts(arts.forest, arts.stats)
                .gate(&record)
                .run()
                .unwrap();
            assert_eq!(out.speculation, speculation, "{kernel}");
            assert_eq!(
                asked.into_inner().unwrap(),
                vec!["base_sim", "select", "assisted_sim"],
                "{kernel}"
            );
        }
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
