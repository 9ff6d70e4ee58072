//! Property tests on the model's mathematical structure: SCDH and
//! aggregate-advantage monotonicities the paper's arguments rely on, the
//! exactness contract of the static screening pass (screened and
//! unscreened selection must agree bit-for-bit on arbitrary forests), and
//! candidate scoring and tree solving against the reference definitions
//! in the root `tests/common/oracle.rs`, which share no code with this
//! crate.

#[path = "../../../tests/common/oracle.rs"]
mod oracle;

use preexec_core::advantage::aggregate_advantage;
use preexec_core::select::{score_tree_nodes, solve_tree_scored};
use preexec_core::{
    advantage_upper_bounds, scdh, try_select_pthreads_stats, validate_candidate_score, Advantage,
    Body, BodyInst, Parallelism, SelectionParams,
};
use preexec_isa::{Inst, Op, Pc, Reg};
use preexec_slice::{NodeId, SliceEntry, SliceForest, SliceTree};
use proptest::prelude::*;

/// A random dependence-chain body ending in a load, with non-decreasing
/// main-thread distances that respect physical spacing.
fn body_strategy() -> impl Strategy<Value = Body> {
    prop::collection::vec((0u8..3, 1u64..16), 0..20).prop_map(|chain| {
        let mut insts = Vec::new();
        let mut dist = 0u64;
        let n = chain.len();
        for (i, (kind, gap)) in chain.into_iter().enumerate() {
            dist += gap;
            let inst = match kind {
                0 => Inst::itype(Op::Addi, Reg::new(1), Reg::new(1), 8),
                1 => Inst::rtype(Op::Mul, Reg::new(1), Reg::new(1), Reg::new(1)),
                _ => Inst::itype(Op::Sll, Reg::new(1), Reg::new(1), 1),
            };
            let deps = if i == 0 { vec![] } else { vec![i - 1] };
            insts.push(BodyInst {
                inst,
                deps,
                mt_dist: dist as f64,
            });
        }
        dist += 1;
        let deps = if n == 0 { vec![] } else { vec![n - 1] };
        insts.push(BodyInst {
            inst: Inst::load(Op::Ld, Reg::new(2), Reg::new(1), 0),
            deps,
            mt_dist: dist as f64,
        });
        Body::new(insts)
    })
}

fn params() -> SelectionParams {
    SelectionParams {
        ipc: 2.0,
        ..SelectionParams::default()
    }
}

proptest! {
    /// SCDH is at least the dataflow height (every instruction ≥ 1 cycle
    /// on the chain) and at least the sequencing bound of the last
    /// instruction.
    #[test]
    fn scdh_lower_bounds(body in body_strategy()) {
        let h = scdh::scdh_pthread(&body);
        // The chain is fully dependent: height ≥ number of instructions.
        prop_assert!(h >= body.len() as f64);
        let mt = scdh::scdh_main(&body, 2.0);
        let last_sc = body.insts().last().unwrap().mt_dist / 2.0;
        prop_assert!(mt >= last_sc);
    }

    /// The p-thread never loses to the main thread on the same dense
    /// chain: SCDH_pt ≤ SCDH_mt whenever main-thread distances are at
    /// least the body positions (true of every real slice).
    #[test]
    fn pthread_at_least_as_fast(body in body_strategy()) {
        prop_assume!(body
            .insts()
            .iter()
            .enumerate()
            .all(|(i, bi)| bi.mt_dist >= i as f64));
        let pt = scdh::scdh_pthread(&body);
        let mt = scdh::scdh_main(&body, params().bw_seq_mt());
        prop_assert!(pt <= mt + 1e-9, "pt {pt} > mt {mt}");
    }

    /// Aggregate advantage decomposes: ADV = LTagg − OHagg, LT is capped
    /// and non-negative, overhead is linear in launches.
    #[test]
    fn advantage_structure(
        body in body_strategy(),
        dc_trig in 1u64..10_000,
        dc_ptcm in 0u64..10_000,
    ) {
        let p = params();
        let a = aggregate_advantage(&p, &body, &body, dc_trig, dc_ptcm);
        prop_assert!(a.lt >= 0.0 && a.lt <= p.miss_latency);
        prop_assert!((a.adv_agg - (a.lt_agg - a.oh_agg)).abs() < 1e-9);
        prop_assert!((a.lt_agg - a.lt * dc_ptcm as f64).abs() < 1e-9);
        let double = aggregate_advantage(&p, &body, &body, dc_trig * 2, dc_ptcm);
        prop_assert!((double.oh_agg - 2.0 * a.oh_agg).abs() < 1e-6);
    }

    /// More useful instances never decrease the score; more useless
    /// launches never increase it.
    #[test]
    fn advantage_monotonicity(body in body_strategy(), dc in 1u64..5_000) {
        let p = params();
        let lo = aggregate_advantage(&p, &body, &body, dc, dc / 2);
        let hi = aggregate_advantage(&p, &body, &body, dc, dc);
        prop_assert!(hi.adv_agg >= lo.adv_agg - 1e-9);
        let more_launches = aggregate_advantage(&p, &body, &body, dc * 3, dc / 2);
        prop_assert!(more_launches.adv_agg <= lo.adv_agg + 1e-9);
    }

    /// Full coverage is claimed exactly when LT reaches the miss latency.
    #[test]
    fn full_coverage_definition(body in body_strategy()) {
        let p = params();
        let a = aggregate_advantage(&p, &body, &body, 10, 10);
        prop_assert_eq!(a.full_coverage, a.lt >= p.miss_latency);
    }
}

/// An instruction for a random slice entry: chain ops plus a load, so
/// trees mix unit and multi-cycle SCDH latencies.
fn inst_of(kind: u8) -> Inst {
    match kind % 4 {
        0 => Inst::itype(Op::Addi, Reg::new(1), Reg::new(1), 8),
        1 => Inst::rtype(Op::Mul, Reg::new(1), Reg::new(1), Reg::new(1)),
        2 => Inst::itype(Op::Sll, Reg::new(1), Reg::new(1), 1),
        _ => Inst::load(Op::Ld, Reg::new(3), Reg::new(1), 0),
    }
}

/// One random backward slice rooted at `root_pc`: a chain of random PCs
/// drawn from a small pool (so repeated slices share tree paths) with
/// strictly increasing dynamic distances.
fn slice_strategy(root_pc: Pc) -> impl Strategy<Value = Vec<SliceEntry>> {
    prop::collection::vec((1u32..12, 0u8..4, 1u64..16), 0..8).prop_map(move |chain| {
        let n = chain.len();
        let mut slice = vec![SliceEntry {
            pc: root_pc,
            inst: Inst::load(Op::Ld, Reg::new(2), Reg::new(1), 0),
            dist: 0,
            dep_positions: if n == 0 { vec![] } else { vec![1] },
        }];
        let mut dist = 0u64;
        for (i, (pc_off, kind, gap)) in chain.into_iter().enumerate() {
            dist += gap;
            slice.push(SliceEntry {
                pc: root_pc + pc_off,
                inst: inst_of(kind),
                dist,
                dep_positions: if i + 1 < n {
                    vec![i as u32 + 2]
                } else {
                    vec![]
                },
            });
        }
        slice
    })
}

/// A random slice forest assembled without tracing: each tree folds a
/// handful of random slices (shared prefixes merge, so `DC_pt-cm` and
/// `DIST_pl` vary per node) and the execution-count table randomizes
/// `DC_trig` from cold to hot, exercising both pruning and survival.
/// Slices are generated against a placeholder root PC and retagged per
/// tree (forests key trees by distinct root PCs).
fn forest_strategy() -> impl Strategy<Value = SliceForest> {
    let slices = prop::collection::vec(slice_strategy(0), 1..6);
    (
        prop::collection::vec(slices, 1..3),
        prop::collection::vec(1u64..5_000, 256..257),
    )
        .prop_map(|(per_tree, counts)| {
            let trees = per_tree
                .into_iter()
                .enumerate()
                .map(|(i, mut slices)| {
                    let root_pc = 100 + 50 * i as Pc;
                    let mut t =
                        SliceTree::new(root_pc, Inst::load(Op::Ld, Reg::new(2), Reg::new(1), 0));
                    for s in &mut slices {
                        s[0].pc = root_pc;
                        t.insert_slice(s);
                    }
                    t
                })
                .collect();
            let exec_counts = counts
                .iter()
                .enumerate()
                .map(|(pc, &c)| (pc as Pc, c))
                .collect();
            SliceForest::from_parts(trees, exec_counts, 1_000_000)
        })
}

fn params_strategy() -> impl Strategy<Value = SelectionParams> {
    (
        prop::sample::select(vec![4.0f64, 8.0]),
        1u64..40,
        8u64..150,
        1usize..16,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(bw_seq, ipc_tenths, miss_latency, max_pthread_len, optimize, merge)| {
                SelectionParams {
                    bw_seq,
                    ipc: (ipc_tenths as f64 / 10.0).min(bw_seq),
                    miss_latency: miss_latency as f64,
                    max_pthread_len,
                    optimize,
                    merge,
                    ..SelectionParams::default()
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The screening contract: for arbitrary forests and parameters the
    /// screened driver returns bit-identical selections (Debug equality
    /// is bitwise f64 equality) at every thread count, and the static
    /// bound is admissible — no pruned candidate scores positive.
    #[test]
    fn screening_is_exact_on_random_forests(
        forest in forest_strategy(),
        p in params_strategy(),
    ) {
        let (exact, _, off_stats) =
            try_select_pthreads_stats(&forest, &p, Parallelism::serial(), false)
                .expect("unscreened selection");
        prop_assert_eq!(off_stats.candidates(), 0);
        let reference = format!("{exact:?}");
        for threads in [1usize, 2, 8] {
            let (screened, _, stats) =
                try_select_pthreads_stats(&forest, &p, Parallelism::new(threads), true)
                    .expect("screened selection");
            prop_assert_eq!(
                format!("{screened:?}"),
                reference.clone(),
                "screened selection diverged at {} threads",
                threads
            );
            let total: u64 = forest.trees().map(|(_, t)| t.len() as u64 - 1).sum();
            prop_assert_eq!(stats.candidates(), total);
        }
        // Admissibility, node by node: bound ≥ exact score, and every
        // pruned candidate is illegal or non-positive.
        for (_, tree) in forest.trees() {
            let dc = |pc: Pc| forest.dc_trig(pc);
            let bounds = advantage_upper_bounds(tree, &dc, &p);
            let table = score_tree_nodes(tree, &dc, &p);
            for (node, slot) in table.iter().enumerate().skip(1) {
                if let Some(a) = slot {
                    let adv = a.adv_agg;
                    prop_assert!(
                        bounds[node] >= adv - 1e-9 * (1.0 + adv.abs()),
                        "bound {} < exact {} at node {}",
                        bounds[node],
                        adv,
                        node
                    );
                }
            }
        }
    }

    /// Degenerate main-thread weights (NaN/±∞ distances) must never be
    /// silently ordered: the driver-level validation accepts a candidate
    /// exactly when its aggregate advantage is finite, and rejects with
    /// the typed error otherwise. (With validated params the advantage
    /// model itself absorbs most poison — `max` drops NaN and `clamp`
    /// caps +∞ at the miss latency — so this also documents that the
    /// rejection path is defense in depth, not a live code path.)
    #[test]
    fn degenerate_weights_are_rejected_not_ordered(
        body in body_strategy(),
        poison in prop::sample::select(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
        idx in 0usize..32,
        dc_trig in 1u64..10_000,
        dc_ptcm in 1u64..10_000,
    ) {
        let mut insts = body.insts().to_vec();
        let at = idx % insts.len();
        insts[at].mt_dist = poison;
        let poisoned = Body::new(insts);
        let adv = aggregate_advantage(&params(), &poisoned, &poisoned, dc_trig, dc_ptcm);
        let checked = validate_candidate_score(&adv, 7, 3);
        prop_assert_eq!(adv.adv_agg.is_finite(), checked.is_ok());
        if let Err(e) = checked {
            prop_assert_eq!(
                e,
                preexec_slice::SliceError::NonFiniteScore { pc: 7, node: 3 }
            );
        }
        // Force the non-finite branch too: the validator must reject any
        // hand-poisoned score regardless of how the model behaves.
        let mut forced = adv;
        forced.adv_agg = poison;
        prop_assert_eq!(
            validate_candidate_score(&forced, 11, 5),
            Err(preexec_slice::SliceError::NonFiniteScore { pc: 11, node: 5 })
        );
    }
}

/// The best objective over every subset of the scored candidates, by
/// enumeration: the check on the oracle's dynamic program.
fn brute_force_best(tree: &preexec_slice::SliceTree, scores: &[Option<Advantage>]) -> f64 {
    let scored: Vec<NodeId> = (1..tree.len()).filter(|&n| scores[n].is_some()).collect();
    let mut best = 0.0f64;
    let mut set = Vec::new();
    for mask in 0u32..(1 << scored.len()) {
        set.clear();
        set.extend(
            scored
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &n)| n),
        );
        best = best.max(oracle::objective(tree, scores, &set));
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Without optimization, every candidate of every random tree scores
    /// bit for bit as the reference definition does.
    #[test]
    fn unoptimized_scores_match_the_reference(
        forest in forest_strategy(),
        p in params_strategy(),
    ) {
        let p = SelectionParams { optimize: false, ..p };
        for (_, tree) in forest.trees() {
            let dc = |pc: Pc| forest.dc_trig(pc);
            let table = score_tree_nodes(tree, &dc, &p);
            for (node, got) in table.iter().enumerate() {
                let want = if node == 0 {
                    None
                } else {
                    oracle::score(tree, node, dc(tree.node(node).pc), &p)
                };
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "node {}", node);
            }
        }
    }

    /// The paper's per-leaf procedure never beats the exact optimum of
    /// its objective, and on trees small enough to enumerate, the exact
    /// dynamic program equals the best of every subset.
    #[test]
    fn heuristic_never_beats_the_exact_optimum(
        forest in forest_strategy(),
        p in params_strategy(),
    ) {
        for (_, tree) in forest.trees() {
            let scores = score_tree_nodes(tree, &|pc| forest.dc_trig(pc), &p);
            let picks: Vec<NodeId> =
                solve_tree_scored(tree, &scores).into_iter().map(|(n, _, _)| n).collect();
            let heuristic = oracle::objective(tree, &scores, &picks);
            let exact = oracle::exact_best(tree, &scores);
            let tolerance = 1e-9 * (1.0 + exact.abs());
            prop_assert!(heuristic <= exact + tolerance, "heuristic {} > exact {}", heuristic, exact);
            if scores.iter().filter(|s| s.is_some()).count() <= 12 {
                let brute = brute_force_best(tree, &scores);
                prop_assert!(
                    (brute - exact).abs() <= tolerance,
                    "exact {} != brute force {}",
                    exact,
                    brute
                );
            }
        }
    }
}
