//! Independent slice oracle: backward slices recomputed from the whole
//! recorded trace by brute force, compared with both production slicers
//! (`SliceWindow` and `OnDemandSlicer`) at every L2-miss load.
//!
//! The oracle shares nothing with the production traversal. It keeps the
//! whole dynamic-instruction stream in a `Vec`, finds each producer by a
//! backward scan within the slicing scope (no ring, no last-writer maps),
//! and collects the slice by one descending sweep over the scope (no
//! heap, no worklist). A bug in the shared traversal therefore cannot
//! hide behind an identity test that runs it twice.
//!
//! The stats leg does the same for the counting: it recounts every
//! `RunStats` field and every per-PC `DC_trig` of the measured region
//! from the recorded stream, and compares them with what each pipeline
//! trace path reports.
//!
//! The tree leg builds each slice tree from oracle slices by a plain
//! path insert (no `SliceTree`): a node is keyed by its root-first PC
//! path, numbered in first-insertion order, and keeps the `inst` and
//! `dep_positions` of the slice that created it (the root keeps the
//! first non-empty ones). Each pipeline trace path's forest must match
//! it node by node, at every scope and slice length the slice leg uses.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec::experiments::{Pipeline, PipelineConfig, PolicySpec, SlicingMode};
use preexec::func::{
    run_trace, try_run_trace_checkpointed, DynInst, Replayer, RunStats, TraceConfig,
};
use preexec::isa::{Inst, OpClass, Pc, Program, ProgramBuilder, Reg};
use preexec::mem::{HierarchyConfig, MemLevel};
use preexec::slice::{OnDemandSlicer, SliceEntry, SliceForest, SliceWindow};
use preexec::workloads::{by_name, suite, InputSet};
use proptest::prelude::*;
use std::collections::BTreeMap;

const SCOPES: [usize; 4] = [1, 7, 64, 1024];
const MAX_LENS: [usize; 3] = [1, 3, 32];

/// The 8-byte granules `[first, last]` a memory access touches.
fn granule_span(d: &DynInst) -> (u64, u64) {
    let addr = d.addr.expect("memory access has an address");
    let width = d.inst.op.mem_width().expect("memory access has a width") as u64;
    (addr >> 3, (addr + width - 1) >> 3)
}

/// The producers of `trace[i]` at or after `floor`: for every source
/// register, the newest earlier instruction defining it; for a load
/// (unless `root`), the newest earlier store overlapping its granules.
fn producers(trace: &[DynInst], i: usize, floor: usize, root: bool) -> Vec<usize> {
    let d = &trace[i];
    let mut out = Vec::new();
    for r in d.inst.uses() {
        if let Some(j) = (floor..i).rev().find(|&j| trace[j].inst.def() == Some(r)) {
            out.push(j);
        }
    }
    if d.inst.op.is_load() && !root {
        let (first, last) = granule_span(d);
        let overlaps = |j: usize| {
            let s = &trace[j];
            s.inst.op.is_store() && {
                let (f, l) = granule_span(s);
                f <= last && first <= l
            }
        };
        if let Some(j) = (floor..i).rev().find(|&j| overlaps(j)) {
            out.push(j);
        }
    }
    out
}

/// The expected slice rooted at `trace[root]`: the `max_len` newest
/// members of the backward dependence closure within `scope`, newest
/// first, each with the sorted positions of its in-slice producers.
fn oracle_slice(trace: &[DynInst], root: usize, scope: usize, max_len: usize) -> Vec<SliceEntry> {
    let floor = (root + 1).saturating_sub(scope);
    // Walking newest to oldest, an instruction is in the closure exactly
    // when some newer member depends on it, so one sweep finds the
    // members in descending order.
    let mut wanted = vec![false; root + 1 - floor];
    wanted[root - floor] = true;
    let mut members: Vec<usize> = Vec::new();
    for i in (floor..=root).rev() {
        if members.len() == max_len {
            break;
        }
        if wanted[i - floor] {
            members.push(i);
            for j in producers(trace, i, floor, i == root) {
                wanted[j - floor] = true;
            }
        }
    }
    members
        .iter()
        .map(|&i| {
            let mut dep_positions: Vec<u32> = producers(trace, i, floor, i == root)
                .into_iter()
                .filter_map(|j| members.iter().position(|&m| m == j))
                .map(|p| p as u32)
                .collect();
            dep_positions.sort_unstable();
            dep_positions.dedup();
            let d = &trace[i];
            SliceEntry {
                pc: d.pc,
                inst: d.inst,
                dist: (root - i) as u64,
                dep_positions,
            }
        })
        .collect()
}

/// Traces `p`, then checks both production slicers against the oracle at
/// every L2-miss load, for every scope and slice length. Returns how many
/// roots were checked per configuration.
fn check_program(p: &Program, config: &TraceConfig, checkpoint_every: u64) -> usize {
    let mut trace: Vec<DynInst> = Vec::new();
    let (_, checkpoints) =
        try_run_trace_checkpointed(p, config, checkpoint_every, |d| trace.push(*d)).unwrap();
    let roots: Vec<usize> = (0..trace.len())
        .filter(|&i| trace[i].is_l2_miss_load())
        .collect();
    for scope in SCOPES {
        for max_len in MAX_LENS {
            let want: Vec<Vec<SliceEntry>> = roots
                .iter()
                .map(|&r| oracle_slice(&trace, r, scope, max_len))
                .collect();

            let mut window = SliceWindow::new(scope);
            let mut windowed: Vec<Vec<SliceEntry>> = Vec::new();
            run_trace(p, config, |d| {
                window.push(d);
                if d.is_l2_miss_load() {
                    windowed.push(window.slice_latest(max_len));
                }
            });
            assert_eq!(windowed.len(), roots.len(), "{}: root count", p.name());

            let replayer = Replayer::new(p, config, &checkpoints);
            let mut od = OnDemandSlicer::try_new(replayer, scope, max_len).unwrap();
            for (k, &root) in roots.iter().enumerate() {
                let ctx = format!("{} root {root} scope {scope} max_len {max_len}", p.name());
                assert_eq!(windowed[k], want[k], "windowed slice differs: {ctx}");
                let got = od.try_slice_at(root as u64).unwrap();
                assert_eq!(got, want[k], "on-demand slice differs: {ctx}");
            }
        }
    }
    roots.len()
}

/// The whole stream `cfg`'s trace emits, warm-up included.
fn record(p: &Program, cfg: &PipelineConfig) -> Vec<DynInst> {
    let config = TraceConfig {
        hierarchy: HierarchyConfig::paper_default(),
        max_steps: cfg.warmup + cfg.budget,
        ..TraceConfig::default()
    };
    let mut trace: Vec<DynInst> = Vec::new();
    run_trace(p, &config, |d| trace.push(*d));
    trace
}

/// The trace statistics of `cfg`'s measured region, recounted from the
/// whole recorded stream: every `RunStats` field, the nonzero per-PC
/// execution counts (`DC_trig`), and the sample length.
fn recount(trace: &[DynInst], cfg: &PipelineConfig) -> (RunStats, Vec<(Pc, u64)>) {
    let mut stats = RunStats {
        // Every step is emitted, and a budget cut is a complete run.
        total_steps: trace.len() as u64,
        timed_out: false,
        ..RunStats::default()
    };
    let mut counts: BTreeMap<Pc, u64> = BTreeMap::new();
    for d in trace.iter().filter(|d| d.seq >= cfg.warmup) {
        stats.insts += 1;
        *counts.entry(d.pc).or_default() += 1;
        let l1_miss = d.level.is_some_and(|l| l != MemLevel::L1);
        let l2_miss = d.level == Some(MemLevel::Memory);
        match d.inst.class() {
            OpClass::Load => {
                stats.loads += 1;
                stats.l1d_misses += u64::from(l1_miss);
                stats.l2_misses += u64::from(l2_miss);
                let site = stats.load_sites.entry(d.pc).or_default();
                site.execs += 1;
                site.l1_misses += u64::from(l1_miss);
                site.l2_misses += u64::from(l2_miss);
            }
            OpClass::Store => {
                stats.stores += 1;
                stats.l1d_misses += u64::from(l1_miss);
            }
            OpClass::Branch => {
                stats.branches += 1;
                stats.taken_branches += u64::from(d.taken);
            }
            _ => {}
        }
    }
    (stats, counts.into_iter().collect())
}

/// Checks one path's stats and forest counts against the recount.
fn check_counts(
    path: &str,
    (want_stats, want_counts): &(RunStats, Vec<(Pc, u64)>),
    stats: &RunStats,
    forest: &SliceForest,
) {
    assert_eq!(
        format!("{stats:?}"),
        format!("{want_stats:?}"),
        "{path}: RunStats"
    );
    assert_eq!(
        &forest.exec_counts().collect::<Vec<_>>(),
        want_counts,
        "{path}: DC_trig"
    );
    for &(pc, n) in want_counts {
        assert_eq!(forest.dc_trig(pc), n, "{path}: dc_trig({pc})");
    }
    assert_eq!(
        forest.sample_insts(),
        want_stats.insts,
        "{path}: sample_insts"
    );
}

/// One node of an oracle slice tree.
struct OracleNode {
    /// Static PCs from the root down to this node.
    path: Vec<Pc>,
    inst: Inst,
    dep_positions: Vec<u32>,
    dc_ptcm: u64,
    dist_sum: u64,
}

/// The slice trees of `cfg`'s measured region, built from the oracle
/// slice of every measured L2-miss load, in trace order, by a plain
/// path insert. Each tree lists its nodes in first-insertion order. A
/// node keeps the dependence positions of the slice that created it,
/// except the root, which takes each slice's until they are non-empty.
fn oracle_trees(trace: &[DynInst], cfg: &PipelineConfig) -> BTreeMap<Pc, Vec<OracleNode>> {
    let mut trees: BTreeMap<Pc, Vec<OracleNode>> = BTreeMap::new();
    // Node ids by path; the root PC leading each path keeps the trees
    // apart.
    let mut ids: BTreeMap<Vec<Pc>, usize> = BTreeMap::new();
    let measured_misses =
        (0..trace.len()).filter(|&i| trace[i].seq >= cfg.warmup && trace[i].is_l2_miss_load());
    for root in measured_misses {
        let nodes = trees.entry(trace[root].pc).or_default();
        let mut path = Vec::new();
        for e in oracle_slice(trace, root, cfg.scope, cfg.max_slice_len) {
            path.push(e.pc);
            let id = *ids.entry(path.clone()).or_insert_with(|| {
                nodes.push(OracleNode {
                    path: path.clone(),
                    inst: e.inst,
                    dep_positions: e.dep_positions.clone(),
                    dc_ptcm: 0,
                    dist_sum: 0,
                });
                nodes.len() - 1
            });
            if id == 0 && nodes[0].dep_positions.is_empty() {
                nodes[0].dep_positions = e.dep_positions.clone();
            }
            nodes[id].dc_ptcm += 1;
            nodes[id].dist_sum += e.dist;
        }
    }
    trees
}

/// Checks one path's forest against the oracle trees, node by node.
fn check_trees(path: &str, want: &BTreeMap<Pc, Vec<OracleNode>>, forest: &SliceForest) {
    assert_eq!(forest.num_trees(), want.len(), "{path}: tree count");
    for ((pc, tree), (&want_pc, nodes)) in forest.trees().zip(want) {
        assert_eq!(pc, want_pc, "{path}: tree roots");
        assert_eq!(tree.len(), nodes.len(), "{path}: node count of tree {pc}");
        for ((id, got), want) in tree.iter().zip(nodes) {
            let ctx = format!("{path}: tree {pc} node {id}");
            let got_path: Vec<Pc> = tree
                .path_from_root(id)
                .into_iter()
                .map(|n| tree.node(n).pc)
                .collect();
            assert_eq!(got_path, want.path, "{ctx}: path");
            assert_eq!(got.inst, want.inst, "{ctx}: inst");
            assert_eq!(got.depth as usize + 1, want.path.len(), "{ctx}: depth");
            assert_eq!(got.dep_depths, want.dep_positions, "{ctx}: dep_depths");
            assert_eq!(got.dc_ptcm, want.dc_ptcm, "{ctx}: dc_ptcm");
            let dist_pl = want.dist_sum as f64 / want.dc_ptcm as f64;
            assert_eq!(got.dist_pl().to_bits(), dist_pl.to_bits(), "{ctx}: dist_pl");
        }
    }
}

/// Every trace path of the pipeline against the recount and the oracle
/// trees: windowed and on-demand.
fn check_trace_paths(p: &Program, cfg: PipelineConfig) {
    let trace = record(p, &cfg);
    let want = recount(&trace, &cfg);
    let trees = oracle_trees(&trace, &cfg);
    let spec = PolicySpec {
        cfg,
        ..PolicySpec::default()
    };
    let windowed = Pipeline::new(p).policy(spec).trace().unwrap();
    check_counts("windowed", &want, &windowed.stats, &windowed.forest);
    check_trees("windowed", &trees, &windowed.forest);
    let ondemand = Pipeline::new(p)
        .policy(PolicySpec {
            slicing: SlicingMode::OnDemand {
                checkpoint_every: 257,
            },
            ..spec
        })
        .trace()
        .unwrap();
    check_counts("on-demand", &want, &ondemand.stats, &ondemand.forest);
    check_trees("on-demand", &trees, &ondemand.forest);
}

/// A pointer chase through a permutation table, with spill/reload
/// round-trips (store–load dependences), a sub-granule word store read back
/// by a doubleword load, a misaligned load spanning two granules, and a
/// log written one line per iteration and read back `back` iterations
/// later — late enough that a small cache has evicted the line, so the
/// reload misses while its feeding store is still in scope.
fn chase_program(seed: u64, table_pow: u32, stride: u64, filler: u8, back: i64) -> Program {
    let n = 1u64 << table_pow;
    let stride = stride | 1; // odd, hence coprime with a power of two
    let table: Vec<u8> = (0..n)
        .flat_map(|i| ((i + stride) % n).to_le_bytes())
        .collect();
    let base = 0x1000_0000u64;
    let scratch = 0x2000_0000u64;
    let log = 0x3001_0000u64;
    let [tbase, cur, addr, acc, s, sp, t, lp] = [1, 2, 3, 4, 5, 6, 7, 8].map(Reg::new);
    let mut b = ProgramBuilder::new("chase");
    b.li(tbase, base as i64);
    b.li(cur, (seed % n) as i64);
    b.li(s, (seed | 1) as i64);
    b.li(sp, scratch as i64);
    b.li(lp, log as i64);
    b.label("top");
    b.add(addr, cur, cur); // both sources share one producer
    b.sll(addr, addr, 2);
    b.add(addr, addr, tbase);
    b.ld(cur, 0, addr);
    b.sd(cur, 16, sp); // the pointer itself round-trips through memory
    b.ld(cur, 16, sp);
    b.sd(acc, 0, sp);
    b.sw(s, 12, sp);
    for k in 0..(filler % 6) {
        match k {
            0 => b.add(acc, acc, cur),
            1 => b.xor(s, s, acc),
            2 => b.mul(s, s, cur),
            3 => b.ld(t, 8, sp),
            _ => b.srl(acc, s, 7),
        };
    }
    b.ld(acc, 0, sp);
    b.ld(t, 4, sp); // spans the granules of both stores
    b.add(acc, acc, t);
    b.sd(cur, 0, lp);
    b.ld(t, -64 * back, lp);
    b.add(s, s, t);
    b.addi(lp, lp, 64);
    b.j("top");
    b.data(base, table);
    b.build().expect("chase kernel builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random pointer-chase programs: both slicers equal the oracle at
    /// every miss, every scope in {1, 7, 64, 1024} and every slice length
    /// in {1, 3, 32}. Under the tiny hierarchy the chase evicts the spill
    /// slot, so reloads miss too and the root's own store dependence
    /// (which must not be followed) is in scope.
    #[test]
    fn slicers_match_oracle_on_random_chase_programs(
        seed in any::<u64>(),
        table_pow in 6u32..12,
        stride in 1u64..512,
        filler in any::<u8>(),
        budget in 400u64..2_500,
        every in 1u64..300,
        back in 1i64..64,
        tiny in any::<bool>(),
    ) {
        let p = chase_program(seed, table_pow, stride, filler, back);
        let hierarchy =
            if tiny { HierarchyConfig::tiny() } else { HierarchyConfig::paper_default() };
        let config = TraceConfig { hierarchy, max_steps: budget, ..TraceConfig::default() };
        prop_assert!(check_program(&p, &config, every) > 0, "chase produced no misses");
    }

    /// Every pipeline trace path counts what a brute-force recount of
    /// the recorded stream finds, and builds the oracle's trees, with and
    /// without a warm-up prefix, at a scope and slice length drawn from
    /// the slice leg's.
    #[test]
    fn pipeline_stats_match_recount_on_random_chase_programs(
        seed in any::<u64>(),
        table_pow in 6u32..12,
        stride in 1u64..512,
        filler in any::<u8>(),
        budget in 400u64..2_500,
        back in 1i64..64,
        warmup in 1u64..1_500,
        scope in prop::sample::select(SCOPES.to_vec()),
        max_slice_len in prop::sample::select(MAX_LENS.to_vec()),
    ) {
        let p = chase_program(seed, table_pow, stride, filler, back);
        for warmup in [0, warmup] {
            let cfg = PipelineConfig {
                budget,
                warmup,
                scope,
                max_slice_len,
                ..PipelineConfig::paper_default(budget)
            };
            check_trace_paths(&p, cfg);
        }
    }
}

#[test]
fn slicers_match_oracle_on_suite_kernels() {
    // vpr.r and mcf at 4 000 steps, the other eight at 2 000 to keep the
    // run short.
    for w in suite() {
        let max_steps = if matches!(w.name, "vpr.r" | "mcf") {
            4_000
        } else {
            2_000
        };
        let p = w.build(InputSet::Train);
        let config = TraceConfig {
            max_steps,
            ..TraceConfig::default()
        };
        assert!(
            check_program(&p, &config, 257) > 0,
            "{} produced no misses",
            w.name
        );
    }
}

#[test]
fn pipeline_stats_match_recount_on_suite_kernels() {
    for name in ["vpr.r", "mcf"] {
        let p = by_name(name).unwrap().build(InputSet::Train);
        let cfg = PipelineConfig::paper_default(4_000);
        assert!(cfg.warmup > 0);
        check_trace_paths(&p, cfg);
    }
}

#[test]
fn slice_trees_match_oracle_on_suite_kernels() {
    for w in suite() {
        let p = w.build(InputSet::Train);
        for budget in [2_000, 4_000] {
            let cfg = PipelineConfig::paper_default(budget);
            let trees = oracle_trees(&record(&p, &cfg), &cfg);
            assert!(!trees.is_empty(), "{} @ {budget} has no trees", w.name);
            let arts = Pipeline::new(&p).config(cfg).trace().unwrap();
            check_trees(&format!("{} @ {budget}", w.name), &trees, &arts.forest);
        }
    }
}

#[test]
fn trace_paths_match_oracle_on_suite_kernels_at_every_scope_and_length() {
    // Every (scope, slice length) pair of the slice leg but the paper
    // default, which `pipeline_stats_match_recount_on_suite_kernels` and
    // `slice_trees_match_oracle_on_suite_kernels` cover at larger budgets.
    for w in suite() {
        let p = w.build(InputSet::Train);
        for scope in SCOPES {
            for max_slice_len in MAX_LENS {
                if (scope, max_slice_len) == (1024, 32) {
                    continue;
                }
                let cfg = PipelineConfig {
                    scope,
                    max_slice_len,
                    ..PipelineConfig::paper_default(2_000)
                };
                check_trace_paths(&p, cfg);
            }
        }
    }
}
