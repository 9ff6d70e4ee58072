//! Selection checked against reference definitions that share no code
//! with `preexec_core` (`common::oracle`, written from DESIGN.md §1).
//!
//! - **Scoring.** Without optimization, every candidate of every kernel
//!   tree on train, test and alt scores bit for bit as the reference
//!   definition does, and the reference reproduces the paper's worked
//!   example (`crates/core/src/worked_example.rs`).
//! - **Solving.** The paper's §3.2 procedure (`solve_tree_scored`: best
//!   candidate per leaf, overlap reductions, repeat until stable) never
//!   beats the exact optimum of its own objective, computed by a dynamic
//!   program over (node, closest selected ancestor). Where it falls
//!   short, the shortfall is pinned: a change to the solver or its input
//!   that moves any tree's result fails here. ROADMAP item 4 and
//!   EXPERIMENTS.md record why the shortfall is kept: in the timing
//!   simulator the exact set does worse.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use common::oracle;
use preexec::core::select::{score_tree_nodes, solve_tree_scored};
use preexec::core::{Advantage, SelectionParams};
use preexec::isa::{Inst, Op, Pc, Reg};
use preexec::slice::{SliceEntry, SliceTree};

const BUDGET: u64 = 20_000;

#[test]
fn unoptimized_scores_match_the_reference_on_every_kernel_tree() {
    let mut candidates = 0;
    for case in common::kernel_cases(BUDGET) {
        let params = SelectionParams {
            optimize: false,
            merge: false,
            ..case.params
        };
        let dc = |pc| case.forest.dc_trig(pc);
        for (pc, tree) in case.forest.trees() {
            let table = score_tree_nodes(tree, &dc, &params);
            for (node, got) in table.iter().enumerate().skip(1) {
                let want = oracle::score(tree, node, dc(tree.node(node).pc), &params);
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "{} tree {pc} node {node}",
                    case.label
                );
                candidates += 1;
            }
        }
    }
    assert!(candidates > 10_000, "only {candidates} candidates compared");
}

/// The heuristic's objective and the exact optimum of every tree whose
/// heuristic selection falls short, as `kernel/input tree <pc>:
/// heuristic <value> exact <value>`, at `BUDGET` under each kernel's
/// pipeline parameters (optimization on). Every other tree of the 30
/// kernel–input pairs is solved exactly. mcf's one tree falls short by
/// 43 % on train, 40 % on test and 43 % on alt.
const SHORTFALLS: [&str; 3] = [
    "mcf/train tree 10: heuristic 4418.239 exact 7710.385",
    "mcf/test tree 10: heuristic 3937.544 exact 6548.930",
    "mcf/alt tree 10: heuristic 4398.604 exact 7718.751",
];

#[test]
fn heuristic_never_beats_the_exact_optimum_and_its_shortfalls_are_pinned() {
    let mut shortfalls = Vec::new();
    let mut trees = 0;
    for case in common::kernel_cases(BUDGET) {
        let dc = |pc| case.forest.dc_trig(pc);
        for (pc, tree) in case.forest.trees() {
            let scores = score_tree_nodes(tree, &dc, &case.params);
            let picks: Vec<_> = solve_tree_scored(tree, &scores)
                .into_iter()
                .map(|(node, _, _)| node)
                .collect();
            let heuristic = oracle::objective(tree, &scores, &picks);
            let exact = oracle::exact_best(tree, &scores);
            let tolerance = 1e-9 * (1.0 + exact.abs());
            assert!(
                heuristic <= exact + tolerance,
                "{} tree {pc}: heuristic {heuristic} beats the optimum {exact}",
                case.label
            );
            if heuristic < exact - tolerance {
                shortfalls.push(format!(
                    "{} tree {pc}: heuristic {heuristic:.3} exact {exact:.3}",
                    case.label
                ));
            }
            trees += 1;
        }
    }
    assert!(trees > 50, "only {trees} trees solved");
    assert_eq!(shortfalls, SHORTFALLS, "actual: {shortfalls:#?}");
}

// ------------------------------------------------- the worked example

fn r(n: u8) -> Reg {
    Reg::new(n)
}

fn entry(pc: Pc, inst: Inst, dist: u64, deps: Vec<u32>) -> SliceEntry {
    SliceEntry {
        pc,
        inst,
        dist,
        dep_positions: deps,
    }
}

/// One slice of the pharmacy loop's #09 miss (paper Figures 1–3): the
/// shared tail #08 #07, the drug-id load #04 (`left`) or #06, and three
/// copies of the induction `#11`, one loop iteration (13 instructions on
/// the #04 path, 12 on the #06 path) apart.
fn pharmacy_slice(left: bool) -> Vec<SliceEntry> {
    let root = Inst::load(Op::Lw, r(8), r(7), 0);
    let (id_pc, id_off, id_dist, first, step) = if left {
        (4, 4, 4, 11, 13)
    } else {
        (6, 8, 3, 10, 12)
    };
    let mut s = vec![
        entry(9, root, 0, vec![1]),
        entry(8, Inst::itype(Op::Addi, r(7), r(7), 4096), 1, vec![2]),
        entry(7, Inst::itype(Op::Sll, r(7), r(7), 2), 2, vec![3]),
        entry(
            id_pc,
            Inst::load(Op::Lw, r(7), r(5), id_off),
            id_dist,
            vec![4],
        ),
    ];
    for u in 0..3u32 {
        let deps = if u < 2 { vec![5 + u] } else { vec![] };
        s.push(entry(
            11,
            Inst::itype(Op::Addi, r(5), r(5), 16),
            first + step * u64::from(u),
            deps,
        ));
    }
    s
}

#[test]
fn the_reference_reproduces_the_worked_example() {
    let mut tree = SliceTree::new(9, Inst::load(Op::Lw, r(8), r(7), 0));
    for _ in 0..30 {
        tree.insert_slice(&pharmacy_slice(true));
    }
    for _ in 0..10 {
        tree.insert_slice(&pharmacy_slice(false));
    }
    let dc_trig = |pc: Pc| match pc {
        7..=9 => 80,
        4 => 60,
        6 => 20,
        11 => 100,
        _ => 0,
    };
    let params = SelectionParams::working_example();
    // Left-path nodes 1..=6 are #08, #07, #04 and the three #11 copies:
    // (LT, OH per launch, ADVagg) as the paper's §3.1 text gives them.
    let want = [
        (0.0, 0.125, -10.0),
        (0.0, 0.25, -20.0),
        (1.0, 0.375, 7.5),
        (3.0, 0.5, 40.0),
        (8.0, 0.625, 177.5),
        (8.0, 0.75, 165.0),
    ];
    for (node, (lt, oh, adv)) in (1..=6).zip(want) {
        let a = oracle::score(&tree, node, dc_trig(tree.node(node).pc), &params).unwrap();
        assert_eq!((a.lt, a.oh, a.adv_agg), (lt, oh, adv), "node {node}");
        assert_eq!(a.full_coverage, lt == 8.0, "node {node}");
    }
    // §3.2: the tree's best set is one p-thread per computation path, no
    // overlap, and the heuristic finds it.
    let scores: Vec<Option<Advantage>> = (0..tree.len())
        .map(|n| oracle::score(&tree, n, dc_trig(tree.node(n).pc), &params))
        .collect();
    let exact = oracle::exact_best(&tree, &scores);
    let picks: Vec<_> = solve_tree_scored(&tree, &score_tree_nodes(&tree, &dc_trig, &params))
        .into_iter()
        .map(|(node, _, _)| node)
        .collect();
    assert_eq!(picks.len(), 2);
    assert_eq!(oracle::objective(&tree, &scores, &picks), exact);
    assert!(
        exact > 177.5,
        "the right path adds to the left's 177.5: {exact}"
    );
}
