//! The layer pass: each layer timed from outside, by calling its crate's
//! public functions directly on the inputs the pipeline gave it.
//!
//! The pass copies the pipeline's trace configuration (paper hierarchy,
//! `max_steps = warmup + budget`, warm-up applied by `seq`) and records
//! the `DynInst` stream once, outside any timed region. Each of [`REPS`]
//! repetitions then times the untraced call once and every layer once,
//! back to back, and each time keeps its best over the repetitions.
//! Timing the untraced call beside its layers, rather than taking it from
//! the rounds, keeps a change in the machine's speed between the rounds
//! and the pass out of the breakdown. Every repetition checks the layers'
//! outputs against the pipeline's: replayed cache levels against the
//! recorded ones, the rebuilt forest byte for byte, the selection and
//! both simulations by their `Debug` rendering.

use crate::metrics::{m, Metric};
use crate::run::{digests, Config, Kernel, Mode};
use crate::stats::ratio;
use preexec_core::{try_select_pthreads_stats, Parallelism};
use preexec_experiments::pipeline::{selection_params, try_sim};
use preexec_experiments::DEFAULT_CHECKPOINT_EVERY;
use preexec_func::{
    try_run_trace, try_run_trace_checkpointed, CheckpointTrace, DynInst, Replayer, TraceConfig,
};
use preexec_isa::{Inst, Pc};
use preexec_mem::{FuncHierarchy, HierarchyConfig, MemLevel};
use preexec_slice::{
    write_forest, OnDemandSlicer, SliceEntry, SliceForest, SliceTree, SliceWindow,
};
use preexec_timing::SimMode;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Repetitions of the untraced call and of every layer; the best of each
/// is kept.
const REPS: usize = 5;

/// The `stage.*` spans the selector records, in the order reported.
const SELECT_SPANS: [&str; 4] = ["stage.screen", "stage.score", "stage.solve", "stage.merge"];

/// One kernel's layer times (ms) and counts. Layers the workload's timed
/// call does not run stay zero.
#[derive(Debug, Clone, Default)]
pub struct LayerRow {
    /// Suite name.
    pub kernel: &'static str,
    /// The untraced timed call, timed beside the layers.
    pub run_ms: f64,
    /// `Workload::build` (set-up, not part of `run_ms`).
    pub build_ms: f64,
    /// `try_run_trace` with a no-op sink.
    pub trace_ms: f64,
    /// Architectural steps of the workload's tracer.
    pub steps: u64,
    /// Replay of the recorded accesses through `FuncHierarchy::access`
    /// (part of `trace_ms` or `checkpoint_trace_ms`).
    pub classify_ms: f64,
    /// Loads and stores classified.
    pub accesses: u64,
    /// Loads classified as L2 misses.
    pub l2_miss_loads: u64,
    /// `SliceWindow::push` and the per-PC counts beside it.
    pub push_ms: f64,
    /// `SliceWindow::slice_latest`.
    pub extract_ms: f64,
    /// Slices extracted (by the window, or on demand).
    pub extractions: u64,
    /// Entries over all extracted slices.
    pub slice_entries: u64,
    /// `SliceTree::insert_slice` (on demand: plus freeing the banked
    /// slices, as the pipeline does once its trees are built).
    pub insert_ms: f64,
    /// Nodes over all trees.
    pub tree_nodes: u64,
    /// `try_run_trace_checkpointed` with a no-op sink.
    pub checkpoint_trace_ms: f64,
    /// Checkpoints recorded.
    pub checkpoints: u64,
    /// `Replayer::new` plus `OnDemandSlicer::try_slice_at` per miss.
    pub reexec_ms: f64,
    /// Instructions re-executed.
    pub reexec_insts: u64,
    /// Instructions the trace emitted.
    pub emitted: u64,
    /// Peak re-execution detail resident at once.
    pub peak_resident_insts: u64,
    /// `try_select_pthreads_stats`.
    pub select_ms: f64,
    /// Candidates screened.
    pub candidates: u64,
    /// Candidates the screen pruned.
    pub pruned: u64,
    /// P-threads selected.
    pub selected: u64,
    /// `stage.screen`, `stage.score`, `stage.solve`, `stage.merge` within
    /// the selection call.
    pub select_spans_ms: [f64; 4],
    /// Unassisted `try_sim`.
    pub base_sim_ms: f64,
    /// Assisted `try_sim`.
    pub assisted_sim_ms: f64,
    /// Main-thread instructions of both simulations.
    pub sim_insts: u64,
    /// Simulated cycles, unassisted.
    pub base_cycles: u64,
    /// Simulated cycles, assisted.
    pub assisted_cycles: u64,
    /// Assisted p-thread launches.
    pub launches: u64,
    /// Assisted misses covered.
    pub covered: u64,
    /// Assisted launches dropped for want of a context.
    pub drops: u64,
    /// Assisted p-thread squashes.
    pub squashes: u64,
}

impl LayerRow {
    /// The layers the timed call runs, summed (classification is inside
    /// the trace times and is not added again).
    pub fn layer_sum_ms(&self) -> f64 {
        self.trace_ms
            + self.checkpoint_trace_ms
            + self.push_ms
            + self.extract_ms
            + self.insert_ms
            + self.reexec_ms
            + self.select_ms
            + self.base_sim_ms
            + self.assisted_sim_ms
    }

    /// Keeps, for every time, the better of `self` and `other`; counts
    /// are equal in every repetition.
    fn keep_best(&mut self, other: &LayerRow) {
        self.run_ms = self.run_ms.min(other.run_ms);
        self.build_ms = self.build_ms.min(other.build_ms);
        self.trace_ms = self.trace_ms.min(other.trace_ms);
        self.classify_ms = self.classify_ms.min(other.classify_ms);
        self.push_ms = self.push_ms.min(other.push_ms);
        self.extract_ms = self.extract_ms.min(other.extract_ms);
        self.insert_ms = self.insert_ms.min(other.insert_ms);
        self.checkpoint_trace_ms = self.checkpoint_trace_ms.min(other.checkpoint_trace_ms);
        self.reexec_ms = self.reexec_ms.min(other.reexec_ms);
        self.select_ms = self.select_ms.min(other.select_ms);
        for (a, b) in self.select_spans_ms.iter_mut().zip(other.select_spans_ms) {
            *a = a.min(b);
        }
        self.base_sim_ms = self.base_sim_ms.min(other.base_sim_ms);
        self.assisted_sim_ms = self.assisted_sim_ms.min(other.assisted_sim_ms);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` once; returns its wall time and output.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let v = f();
    (ms(t.elapsed()), v)
}

fn hist_sum_us(name: &str) -> u64 {
    let snap = preexec_obs::global().snapshot();
    snap.histograms
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, h)| h.sum_us())
}

/// What the replays need from the recorded stream, prepared untimed.
struct Recording {
    /// `(addr, is_write, recorded level)` of every load and store.
    accesses: Vec<(u64, bool, Option<MemLevel>)>,
    /// Per-PC execution counts of measured instructions, and their count.
    counts: Vec<(Pc, u64)>,
    observed: u64,
    /// `(seq, pc, inst)` of every measured L2-miss load.
    requests: Vec<(u64, Pc, Inst)>,
    stream: Vec<DynInst>,
}

impl Recording {
    fn new(k: &Kernel, tc: &TraceConfig, warmup: u64) -> Result<Recording, String> {
        let mut stream: Vec<DynInst> = Vec::new();
        try_run_trace(&k.program, tc, |d| stream.push(*d)).map_err(|e| e.to_string())?;
        let accesses = stream
            .iter()
            .filter_map(|d| Some((d.addr?, d.inst.op.is_store(), d.level)))
            .collect();
        let measured = || stream.iter().filter(|d| d.seq >= warmup);
        let mut counts: BTreeMap<Pc, u64> = BTreeMap::new();
        for d in measured() {
            *counts.entry(d.pc).or_default() += 1;
        }
        let requests = measured()
            .filter(|d| d.is_l2_miss_load())
            .map(|d| (d.seq, d.pc, d.inst))
            .collect();
        Ok(Recording {
            accesses,
            counts: counts.into_iter().collect(),
            observed: measured().count() as u64,
            requests,
            stream,
        })
    }

    /// The forest the pipeline builds from `trees` and this stream's counts.
    fn forest(&self, trees: BTreeMap<Pc, SliceTree>) -> SliceForest {
        SliceForest::from_parts(
            trees.into_values().collect(),
            self.counts.clone(),
            self.observed,
        )
    }
}

/// Measures one kernel's layers. `want` holds the digests the rounds
/// checked the kernel's output against; an untimed call reproduces that
/// output first, and every layer's output is checked against it.
///
/// # Errors
///
/// A layer call that fails, or an output that differs from the
/// pipeline's.
pub fn measure(cfg: &Config, k: &Kernel, want: (u64, u64)) -> Result<LayerRow, String> {
    let spec = cfg.spec();
    let out = k.pipeline(spec).run().map_err(|e| e.to_string())?;
    if digests(&out) != want {
        return Err("output differs from the timed rounds'".into());
    }
    let pc = spec.cfg;
    let w = preexec_workloads::by_name(k.name).ok_or("unknown kernel")?;
    let tc = TraceConfig {
        hierarchy: HierarchyConfig::paper_default(),
        max_steps: pc.warmup.saturating_add(pc.budget),
        ..TraceConfig::default()
    };
    let mode = cfg.workload.mode;
    let rec = if mode == Mode::Reuse {
        None
    } else {
        Some(Recording::new(k, &tc, pc.warmup)?)
    };
    let params = selection_params(&pc, out.result.base.ipc());
    let want_forest = write_forest(&out.forest);
    let r = &out.result;

    let mut best: Option<LayerRow> = None;
    for _ in 0..REPS {
        let mut row = LayerRow {
            kernel: k.name,
            ..LayerRow::default()
        };
        let pipeline = k.pipeline(spec);
        let (t, ran) = timed(|| pipeline.run());
        ran.map_err(|e| e.to_string())?;
        row.run_ms = t;
        (row.build_ms, _) = timed(|| w.build(cfg.workload.input));

        if let Some(rec) = &rec {
            let trees = if mode == Mode::Full {
                let (t, stats) = timed(|| try_run_trace(&k.program, &tc, |_| {}));
                (row.trace_ms, row.steps) = (t, stats.map_err(|e| e.to_string())?.total_steps);
                slice_windowed(&mut row, &rec.stream, pc.warmup, pc.scope, pc.max_slice_len)?
            } else {
                let (t, traced) = timed(|| {
                    try_run_trace_checkpointed(&k.program, &tc, DEFAULT_CHECKPOINT_EVERY, |_| {})
                });
                let (stats, trace) = traced.map_err(|e| e.to_string())?;
                (row.checkpoint_trace_ms, row.steps) = (t, stats.total_steps);
                slice_on_demand(
                    &mut row,
                    k,
                    &tc,
                    &trace,
                    &rec.requests,
                    pc.scope,
                    pc.max_slice_len,
                )?
            };
            classify(&mut row, &rec.accesses, tc.hierarchy)?;
            if write_forest(&rec.forest(trees)) != want_forest {
                return Err("rebuilt forest differs from the pipeline's".into());
            }
        }

        let before = SELECT_SPANS.map(hist_sum_us);
        let (t, selected) =
            timed(|| try_select_pthreads_stats(&out.forest, &params, Parallelism::serial(), true));
        let after = SELECT_SPANS.map(hist_sum_us);
        let (sel, _, screen) = selected.map_err(|e| e.to_string())?;
        if format!("{sel:?}") != format!("{:?}", r.selection) {
            return Err("selection differs from the pipeline's".into());
        }
        row.select_ms = t;
        row.select_spans_ms = std::array::from_fn(|i| (after[i] - before[i]) as f64 / 1e3);
        (row.candidates, row.pruned, row.selected) = (
            screen.candidates(),
            screen.pruned,
            sel.pthreads.len() as u64,
        );

        let (t, base) = timed(|| try_sim(&k.program, &[], &pc, SimMode::Normal));
        let base = base.map_err(|e| e.to_string())?;
        row.base_sim_ms = t;
        let (t, assisted) = timed(|| try_sim(&k.program, &sel.pthreads, &pc, SimMode::Normal));
        let assisted = assisted.map_err(|e| e.to_string())?;
        row.assisted_sim_ms = t;
        if format!("{base:?}") != format!("{:?}", r.base)
            || format!("{assisted:?}") != format!("{:?}", r.assisted)
        {
            return Err("simulation differs from the pipeline's".into());
        }
        row.sim_insts = base.insts + assisted.insts;
        (row.base_cycles, row.assisted_cycles) = (base.cycles, assisted.cycles);
        (row.launches, row.covered) = (assisted.launches, assisted.covered());
        (row.drops, row.squashes) = (assisted.drops, assisted.squashes);

        match &mut best {
            Some(b) => b.keep_best(&row),
            None => best = Some(row),
        }
    }
    best.ok_or_else(|| "no repetitions".to_string())
}

/// Replays every recorded access through a fresh hierarchy; the levels
/// must equal the recorded ones.
fn classify(
    row: &mut LayerRow,
    accesses: &[(u64, bool, Option<MemLevel>)],
    hierarchy: HierarchyConfig,
) -> Result<(), String> {
    let mut h = FuncHierarchy::new(hierarchy);
    let (t, mismatches) = timed(|| {
        accesses
            .iter()
            .filter(|&&(addr, is_write, level)| Some(h.access(addr, is_write)) != level)
            .count()
    });
    if mismatches > 0 {
        return Err(format!(
            "{mismatches} replayed cache levels differ from the trace's"
        ));
    }
    (row.classify_ms, row.accesses) = (t, accesses.len() as u64);
    row.l2_miss_loads = accesses
        .iter()
        .filter(|&&(_, is_write, level)| !is_write && level == Some(MemLevel::Memory))
        .count() as u64;
    Ok(())
}

/// Replays the recorded stream through a `SliceWindow`, extracting a
/// slice at every measured L2-miss load and inserting it into its tree,
/// exactly as the forest builder does during the trace.
fn slice_windowed(
    row: &mut LayerRow,
    stream: &[DynInst],
    warmup: u64,
    scope: usize,
    max_slice_len: usize,
) -> Result<BTreeMap<Pc, SliceTree>, String> {
    let mut window = SliceWindow::try_new(scope).map_err(|e| e.to_string())?;
    let mut trees: BTreeMap<Pc, SliceTree> = BTreeMap::new();
    let mut counts: Vec<u64> = Vec::new();
    let (mut extract, mut insert) = (Duration::ZERO, Duration::ZERO);
    let t = Instant::now();
    for d in stream {
        window.push(d);
        if d.seq < warmup {
            continue;
        }
        let pc = d.pc as usize;
        if pc >= counts.len() {
            counts.resize(pc + 1, 0);
        }
        counts[pc] += 1;
        if d.is_l2_miss_load() {
            let t0 = Instant::now();
            let slice = window
                .try_slice_latest(max_slice_len)
                .map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            trees
                .entry(d.pc)
                .or_insert_with(|| SliceTree::new(d.pc, d.inst))
                .insert_slice(&slice);
            insert += t1.elapsed();
            extract += t1 - t0;
            row.extractions += 1;
            row.slice_entries += slice.len() as u64;
        }
    }
    let total = ms(t.elapsed());
    (row.extract_ms, row.insert_ms) = (ms(extract), ms(insert));
    row.push_ms = total - row.extract_ms - row.insert_ms;
    row.tree_nodes = trees.values().map(|t| t.len() as u64).sum();
    Ok(trees)
}

/// The on-demand path after the checkpointed trace: one re-executed
/// slice per measured L2-miss load, then tree insertion in trace order.
fn slice_on_demand(
    row: &mut LayerRow,
    k: &Kernel,
    tc: &TraceConfig,
    trace: &CheckpointTrace,
    requests: &[(u64, Pc, Inst)],
    scope: usize,
    max_slice_len: usize,
) -> Result<BTreeMap<Pc, SliceTree>, String> {
    (row.checkpoints, row.emitted) = (trace.num_checkpoints() as u64, trace.emitted());
    let (t, sliced) = timed(|| -> Result<_, String> {
        let mut slicer =
            OnDemandSlicer::try_new(Replayer::new(&k.program, tc, trace), scope, max_slice_len)
                .map_err(|e| e.to_string())?;
        let slices = requests
            .iter()
            .map(|&(seq, _, _)| slicer.try_slice_at(seq))
            .collect::<Result<Vec<Vec<SliceEntry>>, _>>()
            .map_err(|e| e.to_string())?;
        Ok((slices, slicer.reexec_insts(), slicer.peak_resident_insts()))
    });
    let (slices, reexec, peak) = sliced?;
    (row.reexec_ms, row.reexec_insts, row.peak_resident_insts) = (t, reexec, peak);
    row.extractions = slices.len() as u64;
    row.slice_entries = slices.iter().map(|s| s.len() as u64).sum();

    // The pipeline banks every slice until the trees are built and frees
    // the bank afterwards; consuming the slices here times that too.
    let (t, trees) = timed(|| {
        let mut trees: BTreeMap<Pc, SliceTree> = BTreeMap::new();
        for (&(_, pc, inst), slice) in requests.iter().zip(slices) {
            trees
                .entry(pc)
                .or_insert_with(|| SliceTree::new(pc, inst))
                .insert_slice(&slice);
        }
        trees
    });
    row.insert_ms = t;
    row.tree_nodes = trees.values().map(|t| t.len() as u64).sum();
    Ok(trees)
}

/// The per-layer metrics: times and counts summed over kernels, ratios
/// taken from the sums, the re-execution peak as the largest kernel's.
pub fn metrics(rows: &[LayerRow]) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&LayerRow) -> f64| rows.iter().map(f).sum::<f64>();
    let run = sum(&|r| r.run_ms);
    let unattributed = run - sum(&|r| r.layer_sum_ms());
    let extract = sum(&|r| r.extract_ms);
    let extractions = sum(&|r| r.extractions as f64);
    let candidates = sum(&|r| r.candidates as f64);
    let launches = sum(&|r| r.launches as f64);
    let sim_ms = sum(&|r| r.base_sim_ms + r.assisted_sim_ms);
    let span = |i: usize| sum(&|r| r.select_spans_ms[i]);
    vec![
        m("workloads.build_ms", "ms", sum(&|r| r.build_ms)),
        m("func.trace_ms", "ms", sum(&|r| r.trace_ms)),
        m("func.steps", "count", sum(&|r| r.steps as f64)),
        m(
            "func.ns_per_step",
            "ns",
            ratio(
                sum(&|r| r.trace_ms + r.checkpoint_trace_ms) * 1e6,
                sum(&|r| r.steps as f64),
            ),
        ),
        m("mem.classify_ms", "ms", sum(&|r| r.classify_ms)),
        m("mem.accesses", "count", sum(&|r| r.accesses as f64)),
        m(
            "mem.l2_miss_loads",
            "count",
            sum(&|r| r.l2_miss_loads as f64),
        ),
        m("slice.push_ms", "ms", sum(&|r| r.push_ms)),
        m("slice.extract_ms", "ms", extract),
        m("slice.extractions", "count", extractions),
        m("slice.extract_us", "us", ratio(extract * 1e3, extractions)),
        m(
            "slice.entries_per_slice",
            "count",
            ratio(sum(&|r| r.slice_entries as f64), extractions),
        ),
        m("slice.insert_ms", "ms", sum(&|r| r.insert_ms)),
        m("slice.tree_nodes", "count", sum(&|r| r.tree_nodes as f64)),
        m(
            "func.checkpoint_trace_ms",
            "ms",
            sum(&|r| r.checkpoint_trace_ms),
        ),
        m("slice.checkpoints", "count", sum(&|r| r.checkpoints as f64)),
        m("slice.reexec_ms", "ms", sum(&|r| r.reexec_ms)),
        m(
            "slice.reexec_insts",
            "count",
            sum(&|r| r.reexec_insts as f64),
        ),
        m(
            "slice.reexec_ratio",
            "ratio",
            ratio(sum(&|r| r.reexec_insts as f64), sum(&|r| r.emitted as f64)),
        ),
        m(
            "slice.peak_resident_insts",
            "count",
            rows.iter()
                .map(|r| r.peak_resident_insts as f64)
                .fold(0.0, f64::max),
        ),
        m("core.select_ms", "ms", sum(&|r| r.select_ms)),
        m("core.candidates", "count", candidates),
        m(
            "core.pruned_ratio",
            "ratio",
            ratio(sum(&|r| r.pruned as f64), candidates),
        ),
        m(
            "core.selected_ratio",
            "ratio",
            ratio(sum(&|r| r.selected as f64), candidates),
        ),
        m("core.screen_ms", "ms", span(0)),
        m("core.score_ms", "ms", span(1)),
        m("core.solve_ms", "ms", span(2)),
        m("core.merge_ms", "ms", span(3)),
        m("timing.base_sim_ms", "ms", sum(&|r| r.base_sim_ms)),
        m("timing.assisted_sim_ms", "ms", sum(&|r| r.assisted_sim_ms)),
        m(
            "timing.sim_kinst_per_s",
            "kinst/s",
            ratio(sum(&|r| r.sim_insts as f64), sim_ms),
        ),
        m(
            "timing.base_cycles",
            "count",
            sum(&|r| r.base_cycles as f64),
        ),
        m(
            "timing.assisted_cycles",
            "count",
            sum(&|r| r.assisted_cycles as f64),
        ),
        m("timing.launches", "count", launches),
        m(
            "timing.useful_launch_ratio",
            "ratio",
            ratio(sum(&|r| r.covered as f64), launches),
        ),
        m(
            "timing.drop_ratio",
            "ratio",
            ratio(sum(&|r| r.drops as f64), launches),
        ),
        m(
            "timing.squash_ratio",
            "ratio",
            ratio(sum(&|r| r.squashes as f64), launches),
        ),
        m("experiments.unattributed_ms", "ms", unattributed),
        m(
            "experiments.unattributed_pct",
            "%",
            ratio(100.0 * unattributed, run),
        ),
    ]
}
