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

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec::experiments::{AdaptiveConfig, Pipeline, PipelineConfig, PolicySpec, SlicingMode};
use preexec::func::{
    run_trace, try_run_trace_checkpointed, DynInst, Replayer, RunStats, TraceConfig,
};
use preexec::isa::{OpClass, Pc, Program, ProgramBuilder, Reg};
use preexec::mem::{HierarchyConfig, MemLevel};
use preexec::slice::{write_forest, OnDemandSlicer, SliceEntry, SliceForest, SliceWindow};
use preexec::workloads::{by_name, InputSet};
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

/// The trace statistics of `cfg`'s measured region, recounted from the
/// whole recorded stream: every `RunStats` field, the nonzero per-PC
/// execution counts (`DC_trig`), and the sample length.
fn recount(p: &Program, cfg: &PipelineConfig) -> (RunStats, Vec<(Pc, u64)>) {
    let config = TraceConfig {
        hierarchy: HierarchyConfig::paper_default(),
        max_steps: cfg.warmup + cfg.budget,
        ..TraceConfig::default()
    };
    let mut trace: Vec<DynInst> = Vec::new();
    run_trace(p, &config, |d| trace.push(*d));
    let mut stats = RunStats {
        // Every step is emitted under always-on sampling, and a budget
        // cut is a complete run.
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

/// Every trace path of the pipeline against the recount: windowed,
/// on-demand, and the adaptive run's stats and global forest (whose
/// first phase-detector chunk straddles the warm-up end).
fn check_stats(p: &Program, cfg: PipelineConfig) {
    let want = recount(p, &cfg);
    let spec = PolicySpec {
        cfg,
        ..PolicySpec::default()
    };
    let windowed = Pipeline::new(p).policy(spec).trace().unwrap();
    check_counts("windowed", &want, &windowed.stats, &windowed.forest);
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
    let adaptive = Pipeline::new(p)
        .policy(PolicySpec {
            adaptive: AdaptiveConfig {
                enabled: true,
                ..AdaptiveConfig::default()
            },
            ..spec
        })
        .run()
        .unwrap();
    check_counts("adaptive", &want, &adaptive.result.stats, &adaptive.forest);
    assert_eq!(
        write_forest(&adaptive.forest),
        write_forest(&windowed.forest)
    );
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
    /// the recorded stream finds, with and without a warm-up prefix.
    #[test]
    fn pipeline_stats_match_recount_on_random_chase_programs(
        seed in any::<u64>(),
        table_pow in 6u32..12,
        stride in 1u64..512,
        filler in any::<u8>(),
        budget in 400u64..2_500,
        back in 1i64..64,
        warmup in 1u64..1_500,
    ) {
        let p = chase_program(seed, table_pow, stride, filler, back);
        for warmup in [0, warmup] {
            check_stats(&p, PipelineConfig { budget, warmup, ..PipelineConfig::paper_default(budget) });
        }
    }
}

#[test]
fn slicers_match_oracle_on_suite_kernels() {
    for name in ["vpr.r", "mcf"] {
        let p = by_name(name).unwrap().build(InputSet::Train);
        let config = TraceConfig {
            max_steps: 4_000,
            ..TraceConfig::default()
        };
        assert!(
            check_program(&p, &config, 257) > 0,
            "{name} produced no misses"
        );
    }
}

#[test]
fn pipeline_stats_match_recount_on_suite_kernels() {
    for name in ["vpr.r", "mcf"] {
        let p = by_name(name).unwrap().build(InputSet::Train);
        let cfg = PipelineConfig::paper_default(4_000);
        assert!(cfg.warmup > 0);
        check_stats(&p, cfg);
    }
}
