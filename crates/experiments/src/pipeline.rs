//! The trace → slice → select → simulate pipeline.

use crate::builder::TraceArtifacts;
use crate::PipelineError;
use preexec_core::par::{ParStats, Parallelism};
use preexec_core::{
    select_pthreads, try_choose_policy, try_select_pthreads_stats, PhaseStats, ScreenStats,
    Selection, SelectionParams, SelectionPrediction, StaticPThread,
};
use preexec_func::{
    try_run_trace, try_run_trace_checkpointed, ChunkSummary, DynInst, MeasuredRegion,
    PhaseConfig, PhaseDetector, Replayer, RunStats, TraceConfig, PHASE_BLOCK_INSTS,
};
use preexec_isa::{Inst, Pc, Program};
use preexec_mem::HierarchyConfig;
use preexec_slice::{
    ForestBank, OnDemandSlicer, PhasedForestBuilder, SliceForest, SliceForestBuilder,
};
use std::collections::BTreeSet;
use preexec_timing::{try_simulate, MachineParams, SimConfig, SimMode, SimResult};

/// Per-stage parallel-utilization counters for one pipeline run. Only
/// selection fans out: the trace and slice extraction are one dependent
/// pass over the instruction stream, and the timing sims are serial.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineParStats {
    /// The selection fan-outs (per-candidate scoring + per-tree solving).
    pub select: ParStats,
}

/// Configuration of one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// The simulated machine.
    pub machine: MachineParams,
    /// Slicing scope (dynamic window length). Paper default 1024.
    pub scope: usize,
    /// Maximum stored slice length (bounds pre-optimization candidate
    /// length). Defaults to `max_pthread_len`.
    pub max_slice_len: usize,
    /// Maximum p-thread length, post optimization. Paper default 32.
    pub max_pthread_len: usize,
    /// Enable p-thread optimization.
    pub optimize: bool,
    /// Enable p-thread merging.
    pub merge: bool,
    /// Miss latency presented to the selection model; `None` uses the
    /// machine's memory latency (the self-consistent setting; Figure 8
    /// overrides this for cross-validation).
    pub model_miss_latency: Option<f64>,
    /// Sequencing width presented to the selection model; `None` uses the
    /// machine's width (overridden for width cross-validation).
    pub model_width: Option<f64>,
    /// Instruction budget per workload (trace and timing runs).
    pub budget: u64,
    /// Cache/predictor warm-up instructions preceding the measured trace
    /// window (the paper warms 10 M of each 100 M sample).
    pub warmup: u64,
}

impl PipelineConfig {
    /// The paper's default configuration at the given per-workload budget.
    pub fn paper_default(budget: u64) -> PipelineConfig {
        PipelineConfig {
            machine: MachineParams::paper_default(),
            scope: 1024,
            max_slice_len: 32,
            max_pthread_len: 32,
            optimize: true,
            merge: true,
            model_miss_latency: None,
            model_width: None,
            budget,
            warmup: budget / 4,
        }
    }

    /// Validates the configuration, panicking on the first bad field.
    ///
    /// # Panics
    ///
    /// Panics with the [`try_validate`](Self::try_validate) error message.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Checks every field, returning the [`PipelineError`] variant naming
    /// the first invalid one.
    ///
    /// # Errors
    ///
    /// Rejects zero `scope`, `max_slice_len`, `max_pthread_len`, or
    /// `budget`; NaN, infinite, or non-positive `model_miss_latency` /
    /// `model_width` overrides; and invalid machine parameters.
    pub fn try_validate(&self) -> Result<(), PipelineError> {
        self.machine.try_validate()?;
        if self.scope == 0 {
            return Err(PipelineError::ZeroScope);
        }
        if self.max_slice_len == 0 {
            return Err(PipelineError::ZeroMaxSliceLen);
        }
        if self.max_pthread_len == 0 {
            return Err(PipelineError::ZeroMaxPthreadLen);
        }
        if self.budget == 0 {
            return Err(PipelineError::ZeroBudget);
        }
        if let Some(x) = self.model_miss_latency {
            if !x.is_finite() || x <= 0.0 {
                return Err(PipelineError::BadModelMissLatency(x));
            }
        }
        if let Some(x) = self.model_width {
            if !x.is_finite() || x <= 0.0 {
                return Err(PipelineError::BadModelWidth(x));
            }
        }
        Ok(())
    }
}

/// Everything measured for one workload under one configuration.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Functional trace statistics (Table 1 raw material).
    pub stats: RunStats,
    /// Unassisted timing run.
    pub base: SimResult,
    /// The framework's selection and predictions.
    pub selection: Selection,
    /// P-thread-assisted timing run.
    pub assisted: SimResult,
}

impl PipelineResult {
    /// Speedup of the assisted run over the base run.
    pub fn speedup(&self) -> f64 {
        if self.base.ipc() == 0.0 {
            1.0
        } else {
            self.assisted.ipc() / self.base.ipc()
        }
    }

    /// Miss coverage relative to the base run's L2 misses, in percent.
    pub fn coverage_pct(&self) -> f64 {
        pct(self.assisted.covered(), self.base.mem.l2_misses)
    }

    /// Full-coverage percentage relative to the base run's L2 misses.
    pub fn full_coverage_pct(&self) -> f64 {
        pct(self.assisted.mem.covered_full, self.base.mem.l2_misses)
    }
}

/// `x / base` as a percentage, safely.
pub fn pct(x: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        100.0 * x as f64 / base as f64
    }
}

/// Runs the functional cache simulator over `program`, building the slice
/// forest and collecting the trace statistics.
pub fn trace_and_slice(
    program: &Program,
    scope: usize,
    max_slice_len: usize,
    budget: u64,
) -> (SliceForest, RunStats) {
    trace_and_slice_warm(program, scope, max_slice_len, budget, 0)
}

/// [`trace_and_slice`] with a cache warm-up prefix: the first `warmup`
/// instructions warm the caches and the slicing window but are neither
/// counted nor sliced, so cold misses do not masquerade as steady-state
/// problem loads.
///
/// # Panics
///
/// Panics on a zero scope or slice length, or if the trace faults; use
/// [`try_trace_and_slice_warm`] to handle those as typed errors.
pub fn trace_and_slice_warm(
    program: &Program,
    scope: usize,
    max_slice_len: usize,
    budget: u64,
    warmup: u64,
) -> (SliceForest, RunStats) {
    match try_trace_and_slice_warm(program, scope, max_slice_len, budget, warmup) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`trace_and_slice_warm`].
///
/// # Errors
///
/// Returns [`PipelineError::Slice`] for invalid slicing parameters and
/// [`PipelineError::Exec`] if the functional trace faults (e.g. a memory
/// instruction reports no cache level).
pub fn try_trace_and_slice_warm(
    program: &Program,
    scope: usize,
    max_slice_len: usize,
    budget: u64,
    warmup: u64,
) -> Result<(SliceForest, RunStats), PipelineError> {
    let (arts, _) =
        trace_and_slice_along(program, scope, max_slice_len, budget, warmup, TracePath::Windowed)?;
    Ok((arts.forest, arts.stats))
}

/// Which slicing sink the trace feeds. Every path produces a
/// byte-identical global forest and identical [`RunStats`]; they differ
/// in what stays resident and in what else they report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TracePath {
    /// The tracer feeds the windowed forest builder directly: `O(scope)`
    /// resident instructions.
    Windowed,
    /// The windowed path with a [`PhaseDetector`] on chunks of
    /// [`PHASE_BLOCK_INSTS`] traced instructions and a
    /// [`PhasedForestBuilder`] keeping one forest per detected phase
    /// beside the global one. Each chunk is summarized before any of it is
    /// sliced, so a confirmed shift starts the new phase with that whole
    /// chunk (the prospective rule of [`preexec_func::phase`]); the window
    /// runs on across boundaries.
    Phased(PhaseConfig),
    /// On-demand re-execution: pass 1 records checkpoints every
    /// `checkpoint_every` emitted instructions
    /// ([`preexec_func::try_run_trace_checkpointed`]) and keeps no
    /// window, only the `seq` of each measured L2-miss load; pass 2
    /// re-executes bounded intervals ([`OnDemandSlicer`]) to rebuild each
    /// slice and inserts it into its tree at once. Peak slicing memory is
    /// `O(checkpoints + checkpoint_every)` whatever the scope. A cadence
    /// of 0 is clamped to 1.
    OnDemand {
        /// Emitted instructions between checkpoints.
        checkpoint_every: u64,
    },
}

/// The per-instruction consumer of a [`TracePath`].
enum Sink {
    Windowed(SliceForestBuilder),
    Phased(PhasedSink),
    /// `DC_trig` counts now, plus the `(seq, pc, inst)` of every measured
    /// L2-miss load, in trace order, to slice by re-execution later.
    OnDemand(ForestBank, Vec<(u64, Pc, Inst)>),
}

/// The phased builder, its detector, and the chunk of traced records
/// waiting for the detector's verdict.
struct PhasedSink {
    builder: PhasedForestBuilder,
    detector: PhaseDetector,
    chunk: Vec<DynInst>,
}

impl PhasedSink {
    /// Shows the detector the buffered chunk's summary, then feeds the
    /// chunk to the builder. Warm-up instructions enter the window but are
    /// neither summarized, counted nor sliced.
    fn flush(&mut self, warmup: u64) {
        if self.chunk.is_empty() {
            return;
        }
        let mut summary = ChunkSummary::default();
        for d in self.chunk.iter().filter(|d| d.seq >= warmup) {
            summary.insts += 1;
            summary.l2_misses += u64::from(d.is_l2_miss_load());
        }
        if self.detector.observe_chunk(summary) {
            self.builder.begin_phase();
        }
        for d in self.chunk.drain(..) {
            if d.seq >= warmup {
                self.builder.observe(&d);
            } else {
                self.builder.observe_warmup(&d);
            }
        }
    }
}

impl Sink {
    /// Feeds one traced instruction. Warm-up instructions enter the
    /// window (so early measured slices can reach back through them) but
    /// are neither counted nor sliced.
    fn feed(&mut self, d: &DynInst, warmup: u64) {
        let measured = d.seq >= warmup;
        match self {
            Sink::Windowed(b) if measured => b.observe(d),
            Sink::Windowed(b) => b.observe_warmup(d),
            Sink::Phased(p) => {
                p.chunk.push(*d);
                if p.chunk.len() == PHASE_BLOCK_INSTS {
                    p.flush(warmup);
                }
            }
            Sink::OnDemand(bank, requests) if measured => {
                bank.count(d.pc);
                if d.is_l2_miss_load() {
                    requests.push((d.seq, d.pc, d.inst));
                }
            }
            Sink::OnDemand(..) => {}
        }
    }
}

/// The one trace+slice driver: runs the functional cache simulator over
/// `program` for `warmup + budget` instructions along `path`, and returns
/// the artifacts plus the per-phase forests (empty unless `path` is
/// [`TracePath::Phased`]).
///
/// The tracer counts [`RunStats`] over the measured region
/// `warmup..warmup + budget` itself; the sink only slices and counts
/// `DC_trig`. Obs spans and metrics are published here and nowhere else.
///
/// # Errors
///
/// [`PipelineError::Slice`] for invalid slicing parameters,
/// [`PipelineError::Exec`] if the trace faults; re-execution faults
/// surface as [`preexec_slice::SliceError::Replay`] (possible only if
/// the recording run itself would have faulted).
pub(crate) fn trace_and_slice_along(
    program: &Program,
    scope: usize,
    max_slice_len: usize,
    budget: u64,
    warmup: u64,
    path: TracePath,
) -> Result<(TraceArtifacts, Vec<SliceForest>), PipelineError> {
    let end = warmup.saturating_add(budget);
    // Every step is emitted under always-on sampling, so the region's end
    // and the step watchdog coincide; the tracer checks the end first, so
    // a budget cut is a complete run, not a time-out.
    let config = TraceConfig {
        hierarchy: HierarchyConfig::paper_default(),
        max_steps: end,
        measured: MeasuredRegion { start: warmup, end },
        ..TraceConfig::default()
    };
    let mut sink = match path {
        TracePath::Windowed => Sink::Windowed(SliceForestBuilder::try_new(scope, max_slice_len)?),
        TracePath::Phased(phase) => Sink::Phased(PhasedSink {
            builder: PhasedForestBuilder::try_new(scope, max_slice_len)?,
            detector: PhaseDetector::new(phase),
            chunk: Vec::with_capacity(PHASE_BLOCK_INSTS),
        }),
        TracePath::OnDemand { .. } => Sink::OnDemand(ForestBank::new(), Vec::new()),
    };

    let reg = preexec_obs::global();
    let trace_span = reg.span("stage.trace");
    let mut checkpoints = None;
    let stats = match path {
        TracePath::Windowed | TracePath::Phased(_) => {
            try_run_trace(program, &config, |d| sink.feed(d, warmup))?
        }
        TracePath::OnDemand { checkpoint_every } => {
            let (stats, trace) =
                try_run_trace_checkpointed(program, &config, checkpoint_every, |d| {
                    sink.feed(d, warmup);
                })?;
            checkpoints = Some(trace);
            stats
        }
    };
    // The trace's last chunk may be short.
    if let Sink::Phased(p) = &mut sink {
        p.flush(warmup);
    }
    trace_span.finish();

    let mut reexec = None;
    if let (Some(trace), Sink::OnDemand(bank, requests)) = (&checkpoints, &mut sink) {
        let reexec_span = reg.span("stage.reexec");
        let replayer = Replayer::new(program, &config, trace);
        let mut slicer = OnDemandSlicer::try_new(replayer, scope, max_slice_len)?;
        // Requests are in trace order, so every tree receives its slices
        // in the order the windowed builder would insert them.
        for &(seq, pc, inst) in requests.iter() {
            bank.insert(pc, inst, &slicer.try_slice_at(seq)?);
        }
        reexec = Some((trace.num_checkpoints(), slicer.reexec_insts(), slicer.peak_resident_insts()));
        reexec_span.finish();
    }

    let build_span = reg.span("stage.slice_build");
    let (forest, phases) = match sink {
        Sink::Windowed(b) => (b.finish(), Vec::new()),
        Sink::Phased(p) => {
            let phased = p.builder.finish();
            (phased.global, phased.phases)
        }
        Sink::OnDemand(bank, _) => (bank.finish(), Vec::new()),
    };
    build_span.finish();

    if matches!(path, TracePath::Phased(..)) {
        reg.gauge("phase.count").set(phases.len() as i64);
    }
    if let Some((checkpoints, insts, peak)) = reexec {
        reg.counter("checkpoint.count").add(checkpoints as u64);
        reg.counter("reexec.insts").add(insts);
        reg.gauge("reexec.peak_resident_insts").set(peak as i64);
    }
    Ok((TraceArtifacts { forest, stats }, phases))
}

/// The [`SelectionParams`] implied by a pipeline config and a measured
/// base IPC.
pub fn selection_params(cfg: &PipelineConfig, base_ipc: f64) -> SelectionParams {
    let bw_seq = cfg.model_width.unwrap_or(cfg.machine.width as f64);
    SelectionParams {
        bw_seq,
        // The model requires 0 < ipc <= bw_seq.
        ipc: base_ipc.clamp(0.05, bw_seq),
        miss_latency: cfg
            .model_miss_latency
            .unwrap_or_else(|| cfg.machine.l2_miss_latency() as f64),
        max_pthread_len: cfg.max_pthread_len,
        slicing_scope: cfg.scope,
        optimize: cfg.optimize,
        merge: cfg.merge,
    }
}

/// The [`SimConfig`] a pipeline config implies at a given instruction
/// budget.
fn sim_config(cfg: &PipelineConfig, mode: SimMode, budget: u64) -> SimConfig {
    SimConfig {
        machine: cfg.machine,
        mode,
        perfect_l2: false,
        max_insts: budget,
        max_cycles: budget.saturating_mul(64).max(1 << 22),
        ..SimConfig::default()
    }
}

/// Runs a timing simulation of `program` with `pthreads` under `cfg`.
///
/// # Panics
///
/// Panics on invalid machine parameters or a main-thread fault; use
/// [`try_sim`] to handle those as typed errors.
pub fn sim(
    program: &Program,
    pthreads: &[StaticPThread],
    cfg: &PipelineConfig,
    mode: SimMode,
) -> SimResult {
    match try_sim(program, pthreads, cfg, mode) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`sim`].
///
/// # Errors
///
/// Returns [`PipelineError::Sim`] if the machine parameters are invalid
/// or the main thread executes a malformed instruction.
pub fn try_sim(
    program: &Program,
    pthreads: &[StaticPThread],
    cfg: &PipelineConfig,
    mode: SimMode,
) -> Result<SimResult, PipelineError> {
    Ok(try_simulate(program, pthreads, &sim_config(cfg, mode, cfg.budget))?)
}

/// Stage: the unassisted timing run (whose IPC feeds the selection
/// model), timed under the `stage.base_sim` span.
pub(crate) fn base_sim_stage(
    program: &Program,
    cfg: &PipelineConfig,
) -> Result<SimResult, PipelineError> {
    let _span = preexec_obs::global().span("stage.base_sim");
    try_sim(program, &[], cfg, SimMode::Normal)
}

/// Stage: the p-thread-assisted timing run, timed under the
/// `stage.assisted_sim` span.
pub(crate) fn assisted_sim_stage(
    program: &Program,
    pthreads: &[StaticPThread],
    cfg: &PipelineConfig,
) -> Result<SimResult, PipelineError> {
    let _span = preexec_obs::global().span("stage.assisted_sim");
    try_sim(program, pthreads, cfg, SimMode::Normal)
}

/// Stage: p-thread selection against a slice forest and a measured base
/// IPC, with the model parameters derived from `cfg` (see
/// [`selection_params`]). Given a cached forest, re-selection under new
/// machine parameters needs no re-trace. `screening` toggles the static ADVagg upper-bound pre-pass; the selected set is
/// byte-identical either way (the screen only prunes candidates that
/// cannot score positive), so `false` exists purely for benchmarking the
/// exact path and for bisecting suspected screen regressions.
pub(crate) fn select_stage(
    forest: &SliceForest,
    cfg: &PipelineConfig,
    base_ipc: f64,
    par: Parallelism,
    screening: bool,
) -> Result<(Selection, ParStats, ScreenStats), PipelineError> {
    let params = selection_params(cfg, base_ipc);
    Ok(try_select_pthreads_stats(forest, &params, par, screening)?)
}

/// One phase's row in an [`AdaptiveReport`]: what the chooser saw and
/// what it picked.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Phase index (trace order).
    pub index: usize,
    /// Measured instructions attributed to the phase.
    pub insts: u64,
    /// L2-miss loads among them.
    pub l2_misses: u64,
    /// Name of the winning policy variant
    /// (see [`preexec_core::POLICY_SPACE`]).
    pub policy: &'static str,
    /// Its index in the policy space (0 = the static policy).
    pub policy_index: usize,
    /// The winning payoff `J = LTagg − κ·OHagg`.
    pub payoff: f64,
    /// The static variant's payoff on the same phase.
    pub static_payoff: f64,
    /// The overhead weight κ the phase was judged under.
    pub kappa: f64,
    /// Static p-threads the winning selection picked for this phase.
    pub pthreads: usize,
    /// Misses the winning selection predicts covered within the phase.
    pub misses_covered: u64,
}

/// What the adaptive selection stage did: one [`PhaseReport`] per
/// detected phase plus the static-vs-adaptive aggregates the results
/// table is built from.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveReport {
    /// Per-phase chooser verdicts, in trace order.
    pub phases: Vec<PhaseReport>,
    /// Phases whose winning policy was not the static one.
    pub divergent_phases: usize,
    /// P-threads the static policy selects on the global forest.
    pub static_pthreads: usize,
    /// P-threads in the deduplicated adaptive union.
    pub adaptive_pthreads: usize,
    /// Σ per-phase chosen payoffs.
    pub adaptive_payoff: f64,
    /// Σ per-phase static payoffs. The chooser keeps the static variant
    /// on ties, so `adaptive_payoff ≥ static_payoff` by construction.
    pub static_payoff: f64,
}

/// The adaptive selection stage: runs the policy chooser
/// ([`preexec_core::try_choose_policy`]) on every phase forest, then
/// unions the winning per-phase p-thread sets into one deployable set.
///
/// The union deduplicates by trigger PC with first-phase-wins semantics
/// (phases are visited in trace order, so the earliest phase that wants
/// a trigger keeps its body — a deterministic rule that needs no score
/// comparison across phases). The union's prediction aggregates the
/// per-phase winning predictions: counts sum, the average length is
/// launch-weighted, and `num_static` is the deduplicated set size.
///
/// Bit-identical at any `par`: every per-phase chooser run is, and the
/// union fold is serial in phase order.
pub(crate) fn select_adaptive_stage(
    global: &SliceForest,
    phases: &[SliceForest],
    cfg: &PipelineConfig,
    base_ipc: f64,
    par: Parallelism,
    screening: bool,
) -> Result<(Selection, AdaptiveReport, ParStats, ScreenStats), PipelineError> {
    let _span = preexec_obs::global().span("stage.select_adaptive");
    let base = selection_params(cfg, base_ipc);
    let mut pstats = ParStats::default();
    let mut sstats = ScreenStats::default();

    // The static baseline: what the non-adaptive pipeline would select
    // on the global forest. Reported for comparison, never deployed.
    let (static_sel, sp, ss) = try_select_pthreads_stats(global, &base, par, screening)?;
    pstats.absorb(&sp);
    sstats.absorb(&ss);

    let mut reports = Vec::with_capacity(phases.len());
    let mut union: Vec<StaticPThread> = Vec::new();
    let mut seen: BTreeSet<Pc> = BTreeSet::new();
    let mut agg = SelectionPrediction::default();
    let mut weighted_len = 0.0_f64;
    let mut adaptive_payoff = 0.0_f64;
    let mut static_payoff = 0.0_f64;
    // The whole sample's summary anchors the phase-local IPC estimate:
    // a phase only moves the model if its rate departs from this.
    let sample = PhaseStats {
        insts: global.sample_insts(),
        l2_misses: global.total_misses(),
    };
    for (index, forest) in phases.iter().enumerate() {
        let phase = PhaseStats { insts: forest.sample_insts(), l2_misses: forest.total_misses() };
        let (choice, cp, cs) = try_choose_policy(forest, &base, sample, phase, par, screening)?;
        pstats.absorb(&cp);
        sstats.absorb(&cs);
        let p = &choice.selection.prediction;
        reports.push(PhaseReport {
            index,
            insts: phase.insts,
            l2_misses: phase.l2_misses,
            policy: choice.name,
            policy_index: choice.index,
            payoff: choice.payoff,
            static_payoff: choice.static_payoff,
            kappa: choice.kappa,
            pthreads: choice.selection.pthreads.len(),
            misses_covered: p.misses_covered,
        });
        agg.launches += p.launches;
        agg.misses_covered += p.misses_covered;
        agg.misses_fully_covered += p.misses_fully_covered;
        agg.lt_agg += p.lt_agg;
        agg.oh_agg += p.oh_agg;
        agg.adv_agg += p.adv_agg;
        weighted_len += p.avg_pthread_len * p.launches as f64;
        adaptive_payoff += choice.payoff;
        static_payoff += choice.static_payoff;
        for pt in choice.selection.pthreads {
            if seen.insert(pt.trigger) {
                union.push(pt);
            }
        }
    }
    agg.num_static = union.len();
    agg.avg_pthread_len =
        if agg.launches > 0 { weighted_len / agg.launches as f64 } else { 0.0 };
    agg.bw_seq = base.bw_seq;

    let divergent_phases = reports.iter().filter(|r| r.policy_index != 0).count();
    let reg = preexec_obs::global();
    reg.counter("adaptive.phases").add(reports.len() as u64);
    reg.counter("adaptive.divergent_phases").add(divergent_phases as u64);
    let report = AdaptiveReport {
        phases: reports,
        divergent_phases,
        static_pthreads: static_sel.pthreads.len(),
        adaptive_pthreads: union.len(),
        adaptive_payoff,
        static_payoff,
    };
    Ok((Selection { pthreads: union, prediction: agg }, report, pstats, sstats))
}

/// Full pipeline: trace, slice, select against the measured base IPC, and
/// measure the assisted machine.
///
/// # Panics
///
/// Panics on an invalid configuration or a simulator fault; use
/// [`try_run_pipeline`] to handle those as typed errors.
pub fn run_pipeline(program: &Program, cfg: &PipelineConfig) -> PipelineResult {
    match try_run_pipeline(program, cfg) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`run_pipeline`]: validates the configuration up front, then
/// traces, slices, selects, and simulates, propagating the first typed
/// error from any stage.
///
/// # Errors
///
/// Configuration variants of [`PipelineError`] before any work starts;
/// wrapped layer errors if a stage faults.
pub fn try_run_pipeline(
    program: &Program,
    cfg: &PipelineConfig,
) -> Result<PipelineResult, PipelineError> {
    crate::Pipeline::new(program).config(*cfg).run().map(|out| out.result)
}

/// Selects p-threads from one program sample (e.g. a test input or a
/// short profiling phase) and measures them on another (the reference
/// run) — the Figure-7 methodology.
///
/// # Panics
///
/// Panics on an invalid configuration or a simulator fault; use
/// [`try_run_cross_input`] to handle those as typed errors.
pub fn run_cross_input(
    select_on: &Program,
    select_budget: u64,
    measure_on: &Program,
    cfg: &PipelineConfig,
) -> PipelineResult {
    match try_run_cross_input(select_on, select_budget, measure_on, cfg) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`run_cross_input`].
///
/// # Errors
///
/// Same taxonomy as [`try_run_pipeline`].
pub fn try_run_cross_input(
    select_on: &Program,
    select_budget: u64,
    measure_on: &Program,
    cfg: &PipelineConfig,
) -> Result<PipelineResult, PipelineError> {
    cfg.try_validate()?;
    let base = try_sim(measure_on, &[], cfg, SimMode::Normal)?;
    // IPC presented to the model comes from the *profiled* sample, as a
    // real offline implementation would have it.
    let profile_base =
        try_simulate(select_on, &[], &sim_config(cfg, SimMode::Normal, select_budget))?;
    // Warm-up scales with the profiled run, not the measurement budget:
    // a profile dominated by cold-start misses would mislead selection.
    let warm = cfg.warmup.max(select_budget / 4);
    let (forest, stats) =
        try_trace_and_slice_warm(select_on, cfg.scope, cfg.max_slice_len, select_budget, warm)?;
    let params = selection_params(cfg, profile_base.ipc());
    params.try_validate()?;
    let selection = select_pthreads(&forest, &params);
    let assisted = try_sim(measure_on, &selection.pthreads, cfg, SimMode::Normal)?;
    Ok(PipelineResult { stats, base, selection, assisted })
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_workloads::{suite, InputSet};

    fn quick_cfg() -> PipelineConfig {
        PipelineConfig::paper_default(120_000)
    }

    #[test]
    fn pipeline_runs_on_vpr_route() {
        let w = suite().into_iter().find(|w| w.name == "vpr.r").unwrap();
        let p = w.build(InputSet::Train);
        let r = run_pipeline(&p, &quick_cfg());
        assert!(r.base.mem.l2_misses > 500, "base misses {}", r.base.mem.l2_misses);
        assert!(
            !r.selection.pthreads.is_empty(),
            "vpr.r must select p-threads"
        );
        assert!(r.coverage_pct() > 20.0, "coverage {}", r.coverage_pct());
        assert!(r.speedup() > 1.0, "speedup {}", r.speedup());
    }

    #[test]
    fn pipeline_runs_on_mcf_with_low_coverage() {
        let w = suite().into_iter().find(|w| w.name == "mcf").unwrap();
        let p = w.build(InputSet::Train);
        let r = run_pipeline(&p, &quick_cfg());
        // The control-divergent chase defeats pre-execution: deep slices
        // cover exponentially few misses, so full coverage stays low in
        // absolute terms and — the paper's Table-2 shape — *lowest in the
        // suite* relative to the computable kernels (vpr.r covers 82% in
        // the paper, mcf 10%).
        assert!(
            r.full_coverage_pct() < 50.0,
            "mcf full coverage {}",
            r.full_coverage_pct()
        );
        let vpr = suite().into_iter().find(|w| w.name == "vpr.r").unwrap();
        let rv = run_pipeline(&vpr.build(InputSet::Train), &quick_cfg());
        assert!(
            r.full_coverage_pct() < rv.full_coverage_pct(),
            "mcf ({}) must be covered less than vpr.r ({})",
            r.full_coverage_pct(),
            rv.full_coverage_pct()
        );
    }

    #[test]
    fn cross_input_selection_runs() {
        let w = suite().into_iter().find(|w| w.name == "gap").unwrap();
        let train = w.build(InputSet::Train);
        let test = w.build(InputSet::Test);
        let cfg = quick_cfg();
        let r = run_cross_input(&test, 60_000, &train, &cfg);
        // Test-input selection still produces valid p-threads for train.
        assert!(r.base.insts > 0);
        for pt in &r.selection.pthreads {
            assert!((pt.trigger as usize) < train.len());
        }
    }

    #[test]
    fn try_validate_names_each_bad_field() {
        use crate::PipelineError;
        let ok = quick_cfg();
        assert_eq!(ok.try_validate(), Ok(()));
        let cases: [(PipelineConfig, PipelineError); 7] = [
            (PipelineConfig { scope: 0, ..ok }, PipelineError::ZeroScope),
            (PipelineConfig { max_slice_len: 0, ..ok }, PipelineError::ZeroMaxSliceLen),
            (PipelineConfig { max_pthread_len: 0, ..ok }, PipelineError::ZeroMaxPthreadLen),
            (PipelineConfig { budget: 0, ..ok }, PipelineError::ZeroBudget),
            (
                PipelineConfig { model_miss_latency: Some(-1.0), ..ok },
                PipelineError::BadModelMissLatency(-1.0),
            ),
            (
                PipelineConfig { model_width: Some(0.0), ..ok },
                PipelineError::BadModelWidth(0.0),
            ),
            (
                PipelineConfig { machine: ok.machine.with_width(0), ..ok },
                PipelineError::Machine(preexec_timing::MachineError::ZeroWidth),
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.try_validate(), Err(want.clone()), "for {want}");
        }
        // NaN overrides are rejected too (can't assert equality on NaN).
        let nan = PipelineConfig { model_miss_latency: Some(f64::NAN), ..ok };
        assert!(matches!(nan.try_validate(), Err(PipelineError::BadModelMissLatency(_))));
    }

    #[test]
    fn try_run_pipeline_rejects_bad_config_before_work() {
        use crate::PipelineError;
        let w = suite().into_iter().find(|w| w.name == "vpr.r").unwrap();
        let p = w.build(InputSet::Train);
        let cfg = PipelineConfig { budget: 0, ..quick_cfg() };
        assert_eq!(try_run_pipeline(&p, &cfg).unwrap_err(), PipelineError::ZeroBudget);
    }

    #[test]
    fn selection_params_clamp_ipc() {
        let cfg = quick_cfg();
        let p = selection_params(&cfg, 0.0);
        assert!(p.ipc > 0.0);
        let p = selection_params(&cfg, 99.0);
        assert!(p.ipc <= p.bw_seq);
    }
}
