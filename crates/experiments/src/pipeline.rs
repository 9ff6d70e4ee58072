//! The trace → slice → select → simulate pipeline.

use crate::builder::{SlicingMode, TraceArtifacts};
use crate::{Pipeline, PipelineError};
use preexec_core::par::Parallelism;
use preexec_core::{try_select_pthreads_stats, Selection, SelectionParams, StaticPThread};
use preexec_func::{
    try_run_trace, try_run_trace_checkpointed, MeasuredRegion, Replayer, RunStats, TraceConfig,
};
use preexec_isa::{Inst, Pc, Program};
use preexec_mem::HierarchyConfig;
use preexec_slice::{ForestBank, OnDemandSlicer, SliceForest, SliceForestBuilder};
use preexec_timing::{try_simulate, MachineParams, SimConfig, SimMode, SimResult};
use std::ops::ControlFlow;

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

/// The one trace+slice driver: runs the functional cache simulator over
/// `program` for `warmup + budget` instructions and slices under `mode`.
/// Both modes produce a byte-identical forest and identical [`RunStats`]:
///
/// - [`SlicingMode::Windowed`] feeds every traced instruction to the
///   windowed forest builder: `O(scope)` resident instructions.
/// - [`SlicingMode::OnDemand`] records checkpoints every
///   `checkpoint_every` emitted instructions
///   ([`preexec_func::try_run_trace_checkpointed`]) and keeps no window,
///   only the `seq` of each measured L2-miss load; a second pass
///   re-executes bounded intervals ([`OnDemandSlicer`]) to rebuild each
///   slice and inserts it into its tree at once. Peak slicing memory is
///   `O(checkpoints + checkpoint_every)` whatever the scope. A cadence of
///   0 is clamped to 1.
///
/// Warm-up instructions enter the window (so early measured slices can
/// reach back through them) but are neither counted nor sliced. The
/// tracer counts [`RunStats`] over the measured region
/// `warmup..warmup + budget` itself; the slicer only slices and counts
/// `DC_trig`. Obs spans and metrics are published here and nowhere else.
///
/// In the windowed mode `snapshot` is asked at each measured instruction,
/// before the builder observes it, with its `seq` and the builder (which
/// can lend the forest built so far), until it answers
/// [`ControlFlow::Break`]; callers that want no look pass one that breaks
/// at once. The on-demand mode builds no forest while it traces and never
/// asks.
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
    mode: SlicingMode,
    mut snapshot: impl FnMut(u64, &mut SliceForestBuilder) -> ControlFlow<()>,
) -> Result<TraceArtifacts, PipelineError> {
    let end = warmup.saturating_add(budget);
    // Every step is emitted, so the region's end and the step watchdog
    // coincide; the tracer checks the end first, so a budget cut is a
    // complete run, not a time-out.
    let config = TraceConfig {
        hierarchy: HierarchyConfig::paper_default(),
        max_steps: end,
        measured: MeasuredRegion { start: warmup, end },
    };
    let reg = preexec_obs::global();
    match mode {
        SlicingMode::Windowed => {
            let mut builder = SliceForestBuilder::try_new(scope, max_slice_len)?;
            let mut asking = true;
            let trace_span = reg.span("stage.trace");
            let stats = try_run_trace(program, &config, |d| {
                if d.seq >= warmup {
                    if asking {
                        asking = snapshot(d.seq, &mut builder).is_continue();
                    }
                    builder.observe(d);
                } else {
                    builder.observe_warmup(d);
                }
            })?;
            trace_span.finish();
            let build_span = reg.span("stage.slice_build");
            let forest = builder.finish();
            build_span.finish();
            Ok(TraceArtifacts { forest, stats })
        }
        SlicingMode::OnDemand { checkpoint_every } => {
            // `DC_trig` counts now, plus the `(seq, pc, inst)` of every
            // measured L2-miss load, in trace order, to slice later.
            let mut bank = ForestBank::new();
            let mut requests: Vec<(u64, Pc, Inst)> = Vec::new();
            let trace_span = reg.span("stage.trace");
            let (stats, trace) =
                try_run_trace_checkpointed(program, &config, checkpoint_every, |d| {
                    if d.seq >= warmup {
                        bank.count(d.pc);
                        if d.is_l2_miss_load() {
                            requests.push((d.seq, d.pc, d.inst));
                        }
                    }
                })?;
            trace_span.finish();

            let reexec_span = reg.span("stage.reexec");
            let replayer = Replayer::new(program, &config, &trace);
            let mut slicer = OnDemandSlicer::try_new(replayer, scope, max_slice_len)?;
            // Requests are in trace order, so every tree receives its
            // slices in the order the windowed builder would insert them.
            for (seq, pc, inst) in requests {
                bank.insert(pc, inst, &slicer.try_slice_at(seq)?);
            }
            reexec_span.finish();
            reg.counter("checkpoint.count")
                .add(trace.num_checkpoints() as u64);
            reg.counter("reexec.insts").add(slicer.reexec_insts());
            reg.gauge("reexec.peak_resident_insts")
                .set(slicer.peak_resident_insts() as i64);
            let build_span = reg.span("stage.slice_build");
            let forest = bank.finish();
            build_span.finish();
            Ok(TraceArtifacts { forest, stats })
        }
    }
}

/// The [`SelectionParams`] implied by a pipeline config and a measured
/// base IPC.
pub fn selection_params(cfg: &PipelineConfig, base_ipc: f64) -> SelectionParams {
    let bw_seq = cfg.model_width.unwrap_or(cfg.machine.width as f64);
    SelectionParams {
        bw_seq,
        // The model requires 0 < ipc <= bw_seq; the 0.05 floor gives way
        // to a model width below it.
        ipc: base_ipc.max(0.05).min(bw_seq),
        miss_latency: cfg
            .model_miss_latency
            .unwrap_or_else(|| cfg.machine.l2_miss_latency() as f64),
        max_pthread_len: cfg.max_pthread_len,
        slicing_scope: cfg.scope,
        optimize: cfg.optimize,
        merge: cfg.merge,
    }
}

/// Runs a timing simulation of `program` with `pthreads` under `cfg`'s
/// machine for `cfg.budget` instructions, behind a cycle watchdog of
/// `budget × 64` cycles (at least 2^22).
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
    let sim = SimConfig {
        machine: cfg.machine,
        mode,
        perfect_l2: false,
        max_insts: cfg.budget,
        max_cycles: cfg.budget.saturating_mul(64).max(1 << 22),
        ..SimConfig::default()
    };
    Ok(try_simulate(program, pthreads, &sim)?)
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
/// `stage.assisted_sim` span. The builder runs it only on a non-empty
/// selection: an empty one's assisted run is the base run (see
/// [`try_assisted_sim`]).
pub(crate) fn assisted_sim_stage(
    program: &Program,
    pthreads: &[StaticPThread],
    cfg: &PipelineConfig,
) -> Result<SimResult, PipelineError> {
    let _span = preexec_obs::global().span("stage.assisted_sim");
    try_sim(program, pthreads, cfg, SimMode::Normal)
}

/// The p-thread-assisted timing run of `program`, whose base run under
/// `cfg` gave `base`. With no p-threads the assisted run is the base
/// run's very call, and the simulator is deterministic, so `base` is
/// returned without simulating again.
fn try_assisted_sim(
    program: &Program,
    pthreads: &[StaticPThread],
    cfg: &PipelineConfig,
    base: &SimResult,
) -> Result<SimResult, PipelineError> {
    if pthreads.is_empty() {
        return Ok(base.clone());
    }
    try_sim(program, pthreads, cfg, SimMode::Normal)
}

/// Stage: p-thread selection against a slice forest and a measured base
/// IPC, with the model parameters derived from `cfg` (see
/// [`selection_params`]). Given a cached forest, re-selection under new
/// machine parameters needs no re-trace. Selection runs serially behind
/// the static ADVagg screen, the path the suite benchmark measures.
pub(crate) fn select_stage(
    forest: &SliceForest,
    cfg: &PipelineConfig,
    base_ipc: f64,
) -> Result<Selection, PipelineError> {
    let params = selection_params(cfg, base_ipc);
    let (selection, _, _) =
        try_select_pthreads_stats(forest, &params, Parallelism::serial(), true)?;
    Ok(selection)
}

/// Selects p-threads from one program sample (e.g. a test input or a
/// short profiling phase) and measures them on another (the reference
/// run) — the Figure-7 methodology.
///
/// The profiled sample is traced through [`Pipeline::trace`] for
/// `select_budget` instructions and simulated at that budget for the
/// IPC the model sees; selection is the pipeline's own serial, screened
/// call. `base` is the reference run's unassisted simulation,
/// `try_sim(measure_on, &[], cfg, SimMode::Normal)`, which the caller
/// already has (Figure 7 takes it from its *perfect* bar's run), so it
/// is not simulated again. The returned `base` and `assisted` runs are
/// of `measure_on` under `cfg`, and `stats` are the profile's.
///
/// # Errors
///
/// Configuration variants of [`PipelineError`] before any work starts
/// (a zero `select_budget` is [`PipelineError::ZeroBudget`]); wrapped
/// layer errors if a stage faults.
pub fn try_run_cross_input(
    select_on: &Program,
    select_budget: u64,
    measure_on: &Program,
    base: &SimResult,
    cfg: &PipelineConfig,
) -> Result<PipelineResult, PipelineError> {
    let profile = PipelineConfig {
        budget: select_budget,
        // Warm-up scales with the profiled run, not the measurement
        // budget: a profile dominated by cold-start misses would mislead
        // selection.
        warmup: cfg.warmup.max(select_budget / 4),
        ..*cfg
    };
    cfg.try_validate()?;
    profile.try_validate()?;
    // IPC presented to the model comes from the *profiled* sample, as a
    // real offline implementation would have it.
    let profile_base = try_sim(select_on, &[], &profile, SimMode::Normal)?;
    let arts = Pipeline::new(select_on).config(profile).trace()?;
    let selection = select_stage(&arts.forest, cfg, profile_base.ipc())?;
    let assisted = try_assisted_sim(measure_on, &selection.pthreads, cfg, base)?;
    Ok(PipelineResult {
        stats: arts.stats,
        base: base.clone(),
        selection,
        assisted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_workloads::{suite, InputSet};

    fn quick_cfg() -> PipelineConfig {
        PipelineConfig::paper_default(120_000)
    }

    fn run(p: &Program, cfg: PipelineConfig) -> PipelineResult {
        Pipeline::new(p).config(cfg).run().unwrap().result
    }

    #[test]
    fn pipeline_runs_on_vpr_route() {
        let w = suite().into_iter().find(|w| w.name == "vpr.r").unwrap();
        let p = w.build(InputSet::Train);
        let r = run(&p, quick_cfg());
        assert!(
            r.base.mem.l2_misses > 500,
            "base misses {}",
            r.base.mem.l2_misses
        );
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
        let r = run(&p, quick_cfg());
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
        let rv = run(&vpr.build(InputSet::Train), quick_cfg());
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
        let base = try_sim(&train, &[], &cfg, SimMode::Normal).unwrap();
        let r = try_run_cross_input(&test, 60_000, &train, &base, &cfg).unwrap();
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
        let cases: [(PipelineConfig, PipelineError); 9] = [
            (PipelineConfig { scope: 0, ..ok }, PipelineError::ZeroScope),
            (
                PipelineConfig {
                    max_slice_len: 0,
                    ..ok
                },
                PipelineError::ZeroMaxSliceLen,
            ),
            (
                PipelineConfig {
                    max_pthread_len: 0,
                    ..ok
                },
                PipelineError::ZeroMaxPthreadLen,
            ),
            (
                PipelineConfig { budget: 0, ..ok },
                PipelineError::ZeroBudget,
            ),
            (
                PipelineConfig {
                    model_miss_latency: Some(-1.0),
                    ..ok
                },
                PipelineError::BadModelMissLatency(-1.0),
            ),
            (
                PipelineConfig {
                    model_width: Some(0.0),
                    ..ok
                },
                PipelineError::BadModelWidth(0.0),
            ),
            (
                PipelineConfig {
                    machine: ok.machine.with_width(0),
                    ..ok
                },
                PipelineError::Machine(preexec_timing::MachineError::ZeroWidth),
            ),
            (
                PipelineConfig {
                    machine: MachineParams {
                        mem_bus_divisor: 0,
                        ..ok.machine
                    },
                    ..ok
                },
                PipelineError::Machine(preexec_timing::MachineError::ZeroBus),
            ),
            (
                PipelineConfig {
                    machine: MachineParams {
                        store_queue_entries: 0,
                        ..ok.machine
                    },
                    ..ok
                },
                PipelineError::Machine(preexec_timing::MachineError::ZeroStoreQueue),
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.try_validate(), Err(want.clone()), "for {want}");
        }
        // Every machine error surfaces under one stable code.
        let zero_bus = PipelineError::Machine(preexec_timing::MachineError::ZeroBus);
        assert_eq!(zero_bus.code(), "config.machine");
        // NaN overrides are rejected too (can't assert equality on NaN).
        let nan = PipelineConfig {
            model_miss_latency: Some(f64::NAN),
            ..ok
        };
        assert!(matches!(
            nan.try_validate(),
            Err(PipelineError::BadModelMissLatency(_))
        ));
    }

    #[test]
    fn selection_params_clamp_ipc() {
        let cfg = quick_cfg();
        let p = selection_params(&cfg, 0.0);
        assert!(p.ipc > 0.0);
        let p = selection_params(&cfg, 99.0);
        assert!(p.ipc <= p.bw_seq);
        // A model width below the IPC floor still gives 0 < ipc <= bw_seq.
        let narrow = PipelineConfig {
            model_width: Some(0.01),
            ..cfg
        };
        for base_ipc in [0.0, 0.03, 1.5] {
            let p = selection_params(&narrow, base_ipc);
            assert!(p.ipc > 0.0 && p.ipc <= p.bw_seq, "{base_ipc} -> {}", p.ipc);
            assert!(p.try_validate().is_ok());
        }
    }

    #[test]
    fn model_width_below_the_ipc_floor_runs_to_completion() {
        let w = suite().into_iter().find(|w| w.name == "vpr.r").unwrap();
        let p = w.build(InputSet::Train);
        let cfg = PipelineConfig {
            model_width: Some(0.01),
            ..PipelineConfig::paper_default(20_000)
        };
        assert_eq!(cfg.try_validate(), Ok(()));
        assert!(Pipeline::new(&p).config(cfg).run().is_ok());
    }
}
