//! P-thread selection: per-slice (§3.1) and whole-tree with overlap
//! correction (§3.2), plus the forest-level driver.

use crate::candidate::CandidateScorer;
use crate::error::SelectError;
use crate::par::{self, ParStats, Parallelism};
use crate::screen::{self, ScreenStats};
use crate::{merge_pthreads, Advantage, Body, SelectionParams, SelectionPrediction, StaticPThread};
use preexec_isa::Pc;
use preexec_slice::{NodeId, SliceError, SliceForest, SliceTree};
use std::collections::{BTreeMap, BTreeSet};

/// A scored candidate with its body: its advantage calculation and the
/// body the p-thread will execute (optimized if optimization is enabled).
/// Selection scores every candidate into a table of [`Advantage`]s and
/// builds a body only for the candidates it picks.
#[derive(Debug, Clone)]
pub struct ScoredCandidate {
    /// The advantage calculation (before any overlap reduction).
    pub advantage: Advantage,
    /// The executable body.
    pub exec_body: Body,
}

/// The result of selection over a whole slice forest.
#[derive(Debug, Clone)]
pub struct Selection {
    /// The selected (and possibly merged) static p-threads.
    pub pthreads: Vec<StaticPThread>,
    /// The framework's diagnostic predictions for this set.
    pub prediction: SelectionPrediction,
}

/// Rejects a candidate whose aggregate advantage evaluated to NaN or ±∞:
/// a non-finite score fed into the net-advantage folds and the
/// `(adv_agg, node id)` tie-break would silently poison the ordering, so
/// the driver refuses it up front with a typed error naming the trigger.
///
/// # Errors
///
/// [`SliceError::NonFiniteScore`] when `adv_agg` is not finite.
pub fn validate_candidate_score(
    advantage: &Advantage,
    pc: Pc,
    node: NodeId,
) -> Result<(), SliceError> {
    if advantage.adv_agg.is_finite() {
        Ok(())
    } else {
        Err(SliceError::NonFiniteScore { pc, node })
    }
}

/// Scores every candidate node of `tree` into a dense table of advantages
/// indexed by [`NodeId`] (`table[0]`, the root, is always `None` — the
/// root is the problem load itself, not a trigger; an illegal candidate
/// is `None` too).
///
/// Every non-root node lies on some root-to-leaf path, so the fixed point
/// in [`solve_tree_scored`] consults every entry. One scorer serves the
/// whole tree, so the table is the only allocation that grows with the
/// number of candidates.
pub fn score_tree_nodes(
    tree: &SliceTree,
    dc_trig_of: &dyn Fn(Pc) -> u64,
    params: &SelectionParams,
) -> Vec<Option<Advantage>> {
    score_table(tree, dc_trig_of, params, None)
}

/// [`score_tree_nodes`] limited to the nodes `keep` admits (all when
/// `None`); the others stay `None`.
fn score_table(
    tree: &SliceTree,
    dc_trig_of: &dyn Fn(Pc) -> u64,
    params: &SelectionParams,
    keep: Option<&[bool]>,
) -> Vec<Option<Advantage>> {
    let mut scorer = CandidateScorer::default();
    let mut table = vec![None; tree.len()];
    for (node, slot) in table.iter_mut().enumerate().skip(1) {
        if keep.is_none_or(|k| k[node]) {
            *slot = scorer.score(tree, node, dc_trig_of(tree.node(node).pc), params);
        }
    }
    table
}

/// Solves one slice tree: selects the set of p-threads whose
/// overlap-corrected aggregate advantages sum to a maximum, using the
/// paper's iterative procedure — select the best candidate per leaf
/// independently, reduce the advantage of any selected p-thread that is an
/// ancestor of another selected p-thread (the double-tolerated latency,
/// `DC_pt-cm(child) · LT(parent)`), and reselect until stable.
///
/// Returns `(node, scored, net_advantage)` triples, with a body built for
/// each pick.
pub fn solve_tree(
    tree: &SliceTree,
    dc_trig_of: &dyn Fn(Pc) -> u64,
    params: &SelectionParams,
) -> Vec<(NodeId, ScoredCandidate, f64)> {
    let mut scorer = CandidateScorer::default();
    solve_tree_scored(tree, &score_tree_nodes(tree, dc_trig_of, params))
        .into_iter()
        .map(|(node, advantage, net)| {
            let exec_body = scorer.exec_body(tree, node, params);
            (
                node,
                ScoredCandidate {
                    advantage,
                    exec_body,
                },
                net,
            )
        })
        .collect()
}

/// The overlap-correction fixed point of [`solve_tree`], reading candidate
/// advantages from a precomputed table (as built by
/// [`score_tree_nodes`]). Returns `(node, advantage, net_advantage)`
/// triples.
///
/// Winner picking is deterministic by construction: every comparison
/// orders candidates by `(net advantage, node id)`, so equal-advantage
/// ties always go to the larger node id. Node ids strictly increase with
/// depth along any root-to-leaf path (children are created after their
/// parents), so on a path this is exactly the "deeper candidate wins"
/// rule — but stated as a total order that no iteration schedule or
/// thread count can perturb.
///
/// Each round is one pass over the nodes in id order, parents before
/// children: a node's best candidate is its parent's, or itself when it
/// wins under that order. A leaf's best is then the winner of a scan down
/// its root path, without building the path. The buffers live for the
/// whole call.
pub fn solve_tree_scored(
    tree: &SliceTree,
    scores: &[Option<Advantage>],
) -> Vec<(NodeId, Advantage, f64)> {
    let n = tree.len();
    // Overlap reductions by node; `None` is a node no selected
    // descendant reduces, which differs from a reduction of zero.
    let mut reductions: Vec<Option<f64>> = vec![None; n];
    let mut new_reductions: Vec<Option<f64>> = vec![None; n];
    let mut selected = vec![false; n];
    let mut next = vec![false; n];
    let mut best: Vec<Option<(NodeId, f64)>> = vec![None; n];

    for _round in 0..32 {
        next.fill(false);
        for node in 1..n {
            let inherited = tree.node(node).parent.and_then(|p| best[p]);
            let own = scores
                .get(node)
                .and_then(Option::as_ref)
                .map(|adv| (node, adv.adv_agg - reductions[node].unwrap_or(0.0)));
            // Ties go to the deeper candidate — the larger node id (see
            // the doc comment): with optimization, unrolled bodies often
            // fold to the same size and both saturate LT at L_cm, and the
            // deeper trigger buys lookahead slack at no modeled cost (cf.
            // the paper's observation that over-specifying latency
            // compensates for unmodeled bus contention). `total_cmp` keeps
            // the order total even if a caller-supplied score table
            // smuggles in a NaN: a poisoned comparison can then never
            // un-pick an already-chosen winner.
            best[node] = match own {
                Some((node, net))
                    if net > 0.0
                        && inherited.is_none_or(|(bn, b)| {
                            net.total_cmp(&b).then_with(|| node.cmp(&bn)).is_ge()
                        }) =>
                {
                    own
                }
                _ => inherited,
            };
            if tree.node(node).children.is_empty() {
                if let Some((winner, _)) = best[node] {
                    next[winner] = true;
                }
            }
        }
        // Recompute reductions for the new set: each selected node with a
        // selected proper ancestor double-tolerates its misses at the
        // ancestor's (lower) per-miss latency tolerance. Using the closest
        // selected ancestor chains the corrections up the tree.
        new_reductions.fill(None);
        for c in (1..n).filter(|&c| next[c]) {
            if let Some(p) = closest_selected_ancestor(tree, c, |a| next[a]) {
                if let Some(padv) = scores.get(p).and_then(Option::as_ref) {
                    *new_reductions[p].get_or_insert(0.0) += tree.node(c).dc_ptcm as f64 * padv.lt;
                }
            }
        }
        let stable = next == selected && !reductions_differ(&reductions, &new_reductions);
        std::mem::swap(&mut selected, &mut next);
        std::mem::swap(&mut reductions, &mut new_reductions);
        if stable {
            break;
        }
    }

    (1..n)
        .filter(|&node| selected[node])
        .filter_map(|node| {
            let adv = *scores.get(node).and_then(Option::as_ref)?;
            let net = adv.adv_agg - reductions[node].unwrap_or(0.0);
            if net > 0.0 {
                Some((node, adv, net))
            } else {
                None
            }
        })
        .collect()
}

/// The nearest proper ancestor of `node` that `is_selected` admits.
fn closest_selected_ancestor(
    tree: &SliceTree,
    node: NodeId,
    is_selected: impl Fn(NodeId) -> bool,
) -> Option<NodeId> {
    let mut cur = tree.node(node).parent;
    while let Some(p) = cur {
        if is_selected(p) {
            return Some(p);
        }
        cur = tree.node(p).parent;
    }
    None
}

/// Whether two reduction tables differ: in which nodes carry a reduction,
/// or by more than 1e-9 in one that both carry.
fn reductions_differ(a: &[Option<f64>], b: &[Option<f64>]) -> bool {
    a.iter().zip(b).any(|(x, y)| match (x, y) {
        (Some(v), Some(w)) => (v - w).abs() > 1e-9,
        (None, None) => false,
        _ => true,
    })
}

/// Runs selection over every slice tree in the forest and returns the
/// selected p-threads with the framework's aggregate predictions.
///
/// Per the paper (§3.2), the program-level problem is divided into one
/// sub-problem per static problem load (trees never overlap by
/// construction); each tree is solved with [`solve_tree`]; and if
/// merging is enabled, selected p-threads sharing a trigger are merged.
/// Selection runs serially behind the static screen; use
/// [`try_select_pthreads_stats`] for typed errors, counters, or another
/// thread count.
///
/// # Panics
///
/// Panics if `params` fail validation (see
/// [`SelectionParams::try_validate`]) or a candidate scores non-finite.
pub fn select_pthreads(forest: &SliceForest, params: &SelectionParams) -> Selection {
    match try_select_pthreads_stats(forest, params, Parallelism::serial(), true) {
        Ok((selection, _, _)) => selection,
        Err(e) => panic!("{e}"),
    }
}

/// The fallible, fully-knobbed selection driver: everything
/// [`select_pthreads`] does, with intra-call parallelism, utilization
/// counters, screening switchable, and faults surfaced as typed errors
/// instead of panics.
///
/// Candidate scoring and the overlap fixed points fan out over trees,
/// then the forest-level accumulation runs serially in tree
/// (problem-load PC) order, so the result is **byte-identical** for
/// every thread count (see [`crate::par`] for the chunking/merge
/// contract and [`solve_tree_scored`] for the `(adv_agg, node id)`
/// tie-break).
///
/// With `screening` on (the production default), a cheap per-tree pass
/// bounds every candidate's `ADV_agg` from block-level aggregates and
/// only survivors reach the exact ADVagg/SCDH scorer; the returned
/// [`ScreenStats`] counts both buckets, and the selection is
/// **byte-identical** to the unscreened run at any thread count — the
/// exactness contract of DESIGN.md §16, pinned by the screening property
/// tests. With `screening` off the stats are zero.
///
/// # Errors
///
/// [`SelectError::Params`] if `params` fail validation;
/// [`SelectError::Score`] (wrapping
/// [`SliceError::NonFiniteScore`]) if a surviving candidate's aggregate
/// advantage evaluates to NaN or ±∞ — degenerate slice statistics that
/// would otherwise silently poison the selection ordering.
pub fn try_select_pthreads_stats(
    forest: &SliceForest,
    params: &SelectionParams,
    par: Parallelism,
    screening: bool,
) -> Result<(Selection, ParStats, ScreenStats), SelectError> {
    params.try_validate()?;
    let obs = preexec_obs::global();
    let trees: Vec<(Pc, &SliceTree)> = forest.trees().collect();
    let tree_indices: Vec<usize> = (0..trees.len()).collect();
    let dc_trig = |pc| forest.dc_trig(pc);

    // Stage 0 — static screening (optional): one O(tree) fold per tree
    // bounds every candidate from block-level aggregates; the keep-mask
    // thins exact scoring below without changing its output.
    let mut screen_stats = ScreenStats::default();
    let mut pstats = ParStats::default();
    let keep: Option<Vec<Vec<bool>>> = if screening {
        let screen_span = obs.span("stage.screen");
        let (masks, screen_par) = par::map_stats(par, &tree_indices, |&ti| {
            screen::screen_tree(trees[ti].1, &dc_trig, params)
        });
        screen_span.finish();
        pstats.absorb(&screen_par);
        let mut keep = Vec::with_capacity(masks.len());
        for (mask, stats) in masks {
            screen_stats.absorb(&stats);
            keep.push(mask);
        }
        obs.counter("screen.pruned").add(screen_stats.pruned);
        obs.counter("screen.survivors").add(screen_stats.survivors);
        Some(keep)
    } else {
        None
    };

    // Stage 1 — exactly score the surviving candidates into one table of
    // advantages per tree. Each tree gets one scorer, whose buffers serve
    // all its candidates. `select.candidates` counts every enumerated
    // candidate whether or not the screen admitted it.
    let total_candidates: u64 = trees.iter().map(|(_, tree)| tree.len() as u64 - 1).sum();
    obs.counter("select.candidates").add(total_candidates);
    let score_span = obs.span("stage.score");
    let (scores, score_par) = par::map_stats(par, &tree_indices, |&ti| {
        let mask = keep.as_ref().map(|k| &k[ti][..]);
        score_table(trees[ti].1, &dc_trig, params, mask)
    });
    score_span.finish();
    pstats.absorb(&score_par);
    for ((_, tree), table) in trees.iter().zip(&scores) {
        for (node, adv) in table.iter().enumerate() {
            if let Some(adv) = adv {
                validate_candidate_score(adv, tree.node(node).pc, node)?;
            }
        }
    }

    // Stage 2 — per-tree overlap fixed points (independent sub-problems
    // per the paper's §3.2 decomposition).
    let solve_span = obs.span("stage.solve");
    let (all_picks, solve_stats) = par::map_stats(par, &tree_indices, |&ti| {
        solve_tree_scored(trees[ti].1, &scores[ti])
    });
    solve_span.finish();
    pstats.absorb(&solve_stats);

    // Stage 3 — serial fold in tree order: the floating-point
    // accumulation sequence is fixed, so aggregates match the serial
    // driver bit for bit. Each pick's body is built here, once.
    let mut scorer = CandidateScorer::default();
    let mut pthreads: Vec<StaticPThread> = Vec::new();
    let mut misses_covered: u64 = 0;
    let mut misses_fully_covered: u64 = 0;
    let mut lt_agg = 0.0;
    let mut oh_agg = 0.0;
    let mut adv_agg = 0.0;

    for ((target_pc, tree), picks) in trees.into_iter().zip(all_picks) {
        let selected: BTreeSet<NodeId> = picks.iter().map(|(n, _, _)| *n).collect();
        let full: BTreeMap<NodeId, bool> = picks
            .iter()
            .map(|(n, adv, _)| (*n, adv.full_coverage))
            .collect();
        for (node, adv, net) in picks {
            let n = tree.node(node);
            // Coverage union: count a node's misses unless a selected
            // ancestor already counts them.
            let has_sel_anc =
                closest_selected_ancestor(tree, node, |p| selected.contains(&p)).is_some();
            if !has_sel_anc {
                misses_covered += n.dc_ptcm;
            }
            if adv.full_coverage {
                // Count fully covered misses not already fully covered by
                // a selected full-coverage ancestor.
                let anc_full = {
                    let mut cur = tree.node(node).parent;
                    let mut found = false;
                    while let Some(p) = cur {
                        if selected.contains(&p) && full.get(&p).copied().unwrap_or(false) {
                            found = true;
                            break;
                        }
                        cur = tree.node(p).parent;
                    }
                    found
                };
                if !anc_full {
                    misses_fully_covered += n.dc_ptcm;
                }
            }
            lt_agg += adv.lt_agg - (adv.adv_agg - net);
            oh_agg += adv.oh_agg;
            adv_agg += net;
            pthreads.push(StaticPThread {
                trigger: n.pc,
                targets: vec![target_pc],
                body: scorer.exec_body(tree, node, params).to_insts(),
                dc_trig: forest.dc_trig(n.pc),
                dc_ptcm: n.dc_ptcm,
                advantage: Advantage {
                    adv_agg: net,
                    ..adv
                },
            });
        }
    }

    if params.merge {
        let merge_span = obs.span("stage.merge");
        let before_oh: f64 = pthreads.iter().map(|p| p.advantage.oh_agg).sum();
        pthreads = merge_pthreads(pthreads, params);
        let after_oh: f64 = pthreads.iter().map(|p| p.advantage.oh_agg).sum();
        adv_agg += before_oh - after_oh;
        oh_agg = after_oh;
        merge_span.finish();
    }
    obs.counter("select.pthreads").add(pthreads.len() as u64);

    let launches: u64 = pthreads.iter().map(|p| p.dc_trig).sum();
    let weighted_len: f64 = pthreads
        .iter()
        .map(|p| p.dc_trig as f64 * p.size() as f64)
        .sum();
    let prediction = SelectionPrediction {
        num_static: pthreads.len(),
        launches,
        avg_pthread_len: if launches == 0 {
            0.0
        } else {
            weighted_len / launches as f64
        },
        misses_covered,
        misses_fully_covered,
        lt_agg,
        oh_agg,
        adv_agg,
        bw_seq: params.bw_seq,
    };
    Ok((
        Selection {
            pthreads,
            prediction,
        },
        pstats,
        screen_stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_func::{run_trace, TraceConfig};
    use preexec_isa::assemble;
    use preexec_slice::SliceForestBuilder;

    fn forest_for(src: &str) -> SliceForest {
        let p = assemble("t", src).unwrap();
        let mut b = SliceForestBuilder::new(1024, 32);
        run_trace(&p, &TraceConfig::default(), |d| b.observe(d));
        b.finish()
    }

    /// A streaming loop: every iteration's load misses (64 B stride).
    const STREAM: &str = "
        li r1, 0x100000
        li r2, 0
        li r3, 4096
    top:
        bge r2, r3, done
        ld  r4, 0(r1)
        addi r1, r1, 64
        addi r2, r2, 1
        j top
    done:
        halt";

    #[test]
    fn selects_induction_unrolled_pthread_for_stream() {
        let forest = forest_for(STREAM);
        let params = SelectionParams {
            ipc: 2.0,
            miss_latency: 70.0,
            optimize: false,
            merge: false,
            ..SelectionParams::default()
        };
        let sel = select_pthreads(&forest, &params);
        assert!(!sel.pthreads.is_empty());
        // The dominant p-thread (covering the steady-state misses) is
        // triggered by the induction addi (pc 5) and unrolls it.
        let p = sel
            .pthreads
            .iter()
            .max_by_key(|p| p.dc_ptcm)
            .expect("nonempty");
        assert_eq!(p.trigger, 5);
        assert!(
            p.body
                .iter()
                .filter(|i| i.op == preexec_isa::Op::Addi)
                .count()
                >= 2
        );
        assert!(p.body.last().unwrap().op.is_load());
        assert!(sel.prediction.misses_covered > 0);
        assert!(sel.prediction.adv_agg > 0.0);
    }

    #[test]
    fn optimization_shortens_selected_bodies() {
        let forest = forest_for(STREAM);
        let base = SelectionParams {
            ipc: 2.0,
            merge: false,
            optimize: false,
            ..SelectionParams::default()
        };
        let opt = SelectionParams {
            optimize: true,
            ..base
        };
        let s0 = select_pthreads(&forest, &base);
        let s1 = select_pthreads(&forest, &opt);
        let len0 = s0.prediction.avg_pthread_len;
        let len1 = s1.prediction.avg_pthread_len;
        assert!(
            len1 < len0,
            "optimized bodies should be shorter: {len1} vs {len0}"
        );
        // Same or better predicted advantage.
        assert!(s1.prediction.adv_agg >= s0.prediction.adv_agg - 1e-6);
    }

    #[test]
    fn tight_length_constraint_reduces_coverage() {
        let forest = forest_for(STREAM);
        let loose = SelectionParams {
            ipc: 2.0,
            optimize: false,
            merge: false,
            ..SelectionParams::default()
        };
        let tight = SelectionParams {
            max_pthread_len: 2,
            ..loose
        };
        let sl = select_pthreads(&forest, &loose);
        let st = select_pthreads(&forest, &tight);
        // Short p-threads tolerate less latency per miss.
        let lt_loose = sl
            .pthreads
            .iter()
            .map(|p| p.advantage.lt)
            .fold(0.0, f64::max);
        let lt_tight = st
            .pthreads
            .iter()
            .map(|p| p.advantage.lt)
            .fold(0.0, f64::max);
        assert!(lt_tight <= lt_loose);
    }

    #[test]
    fn higher_latency_selects_longer_pthreads() {
        let forest = forest_for(STREAM);
        let base = SelectionParams {
            ipc: 2.0,
            optimize: false,
            merge: false,
            ..SelectionParams::default()
        };
        let lo = SelectionParams {
            miss_latency: 20.0,
            ..base
        };
        let hi = SelectionParams {
            miss_latency: 140.0,
            ..base
        };
        let s_lo = select_pthreads(&forest, &lo);
        let s_hi = select_pthreads(&forest, &hi);
        assert!(
            s_hi.prediction.avg_pthread_len >= s_lo.prediction.avg_pthread_len,
            "longer latency should need longer p-threads: {} vs {}",
            s_hi.prediction.avg_pthread_len,
            s_lo.prediction.avg_pthread_len
        );
    }

    #[test]
    fn cache_resident_loop_covers_at_most_the_cold_miss() {
        // Cache-resident loop: one cold miss only. The model may select a
        // cheap one-shot p-thread for it (its trigger executes once, so
        // overhead is negligible), but nothing that launches per-iteration
        // can be profitable.
        let forest = forest_for(
            "li r1, 0x4000\n li r2, 0\n li r3, 100\n\
             top: bge r2, r3, done\n ld r4, 0(r1)\n addi r2, r2, 1\n j top\n done: halt",
        );
        let params = SelectionParams {
            ipc: 2.0,
            ..SelectionParams::default()
        };
        let sel = select_pthreads(&forest, &params);
        assert!(sel.prediction.misses_covered <= 1);
        assert!(sel.prediction.launches <= 1);
    }

    /// Builds a pure-chain slice tree (single leaf) by hand:
    /// root = the problem load, then `depth` copies of the induction addi,
    /// each feeding the one above.
    fn chain_tree(depth: usize) -> SliceTree {
        use preexec_slice::SliceEntry;
        let p = assemble("chain", "ld r4, 0(r1)\n addi r1, r1, 64\n halt").unwrap();
        let mut slice = vec![SliceEntry {
            pc: 0,
            inst: *p.inst(0),
            dist: 0,
            dep_positions: vec![1],
        }];
        for d in 1..=depth {
            slice.push(SliceEntry {
                pc: 1,
                inst: *p.inst(1),
                dist: d as u64,
                dep_positions: if d < depth {
                    vec![d as u32 + 1]
                } else {
                    vec![]
                },
            });
        }
        let mut tree = SliceTree::new(0, *p.inst(0));
        tree.insert_slice(&slice);
        tree
    }

    fn candidate_with_advantage(adv_agg: f64) -> Advantage {
        Advantage {
            scdh_pt: 1.0,
            scdh_mt: 10.0,
            lt: 10.0,
            oh: 0.0,
            lt_agg: adv_agg,
            oh_agg: 0.0,
            adv_agg,
            full_coverage: false,
        }
    }

    #[test]
    fn equal_advantage_tie_goes_to_the_larger_node_id() {
        // Two candidates on one root-to-leaf path with *exactly* equal
        // ADVagg: the winner must be the larger node id (the deeper
        // trigger), for every arrangement — this is the explicit
        // (adv_agg, node id) order the parallel == serial guarantee
        // rests on.
        let tree = chain_tree(2);
        let mut scores: Vec<Option<Advantage>> = vec![None; tree.len()];
        scores[1] = Some(candidate_with_advantage(100.0));
        scores[2] = Some(candidate_with_advantage(100.0));
        let picks = solve_tree_scored(&tree, &scores);
        assert_eq!(picks.len(), 1, "one winner per leaf path");
        assert_eq!(
            picks[0].0, 2,
            "equal ADVagg must resolve to the deeper node"
        );

        // Sanity: the order is on advantage first — a strictly better
        // shallow candidate still beats the deeper one.
        let mut scores2: Vec<Option<Advantage>> = vec![None; tree.len()];
        scores2[1] = Some(candidate_with_advantage(101.0));
        scores2[2] = Some(candidate_with_advantage(100.0));
        let picks2 = solve_tree_scored(&tree, &scores2);
        assert_eq!(picks2.len(), 1);
        assert_eq!(picks2[0].0, 1);
    }

    #[test]
    fn parallel_selection_is_bit_identical_to_serial() {
        let forest = forest_for(STREAM);
        for params in [
            SelectionParams {
                ipc: 2.0,
                ..SelectionParams::default()
            },
            SelectionParams {
                ipc: 2.0,
                optimize: false,
                merge: false,
                ..SelectionParams::default()
            },
        ] {
            let serial = select_pthreads(&forest, &params);
            for threads in [2, 3, 8] {
                let (par, _, _) =
                    try_select_pthreads_stats(&forest, &params, Parallelism::new(threads), true)
                        .unwrap();
                // Debug formatting round-trips every f64 exactly, so this
                // is a bitwise comparison of the whole selection.
                assert_eq!(
                    format!("{par:?}"),
                    format!("{serial:?}"),
                    "threads={threads}"
                );
                assert_eq!(
                    par.prediction.adv_agg.to_bits(),
                    serial.prediction.adv_agg.to_bits()
                );
            }
        }
    }

    #[test]
    fn screened_selection_is_byte_identical_to_unscreened() {
        let forest = forest_for(STREAM);
        let total: u64 = forest.trees().map(|(_, t)| t.len() as u64 - 1).sum();
        for params in [
            SelectionParams {
                ipc: 2.0,
                ..SelectionParams::default()
            },
            SelectionParams {
                ipc: 2.0,
                optimize: false,
                merge: false,
                ..SelectionParams::default()
            },
            SelectionParams {
                ipc: 0.5,
                miss_latency: 78.0,
                ..SelectionParams::default()
            },
        ] {
            for threads in [1, 4] {
                let par = Parallelism::new(threads);
                let (screened, _, stats) =
                    try_select_pthreads_stats(&forest, &params, par, true).unwrap();
                let (exact, _, off) =
                    try_select_pthreads_stats(&forest, &params, par, false).unwrap();
                assert_eq!(
                    format!("{screened:?}"),
                    format!("{exact:?}"),
                    "threads={threads}"
                );
                assert_eq!(stats.candidates(), total);
                assert_eq!(off, ScreenStats::default());
            }
        }
    }

    #[test]
    fn nan_scores_never_win_the_tie_break() {
        // A NaN net advantage fails the `net > 0` gate, and total_cmp
        // keeps the order total even against a poisoned incumbent, so
        // the finite candidate always wins deterministically.
        let tree = chain_tree(2);
        let mut scores: Vec<Option<Advantage>> = vec![None; tree.len()];
        scores[1] = Some(candidate_with_advantage(100.0));
        scores[2] = Some(candidate_with_advantage(f64::NAN));
        let picks = solve_tree_scored(&tree, &scores);
        assert_eq!(picks.len(), 1);
        assert_eq!(picks[0].0, 1, "the finite candidate must win");
    }

    #[test]
    fn non_finite_scores_are_rejected_with_a_typed_error() {
        let tree = chain_tree(1);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let adv = candidate_with_advantage(bad);
            assert_eq!(
                validate_candidate_score(&adv, tree.node(1).pc, 1),
                Err(SliceError::NonFiniteScore {
                    pc: tree.node(1).pc,
                    node: 1
                })
            );
        }
        let ok = candidate_with_advantage(3.5);
        assert_eq!(validate_candidate_score(&ok, 0, 1), Ok(()));
    }

    #[test]
    fn invalid_params_surface_as_a_typed_error() {
        let forest = forest_for(STREAM);
        let bad = SelectionParams {
            ipc: 0.0,
            ..SelectionParams::default()
        };
        let err =
            try_select_pthreads_stats(&forest, &bad, Parallelism::serial(), true).unwrap_err();
        assert!(matches!(err, crate::SelectError::Params(_)), "{err:?}");
    }

    #[test]
    fn prediction_consistency() {
        let forest = forest_for(STREAM);
        let params = SelectionParams {
            ipc: 2.0,
            ..SelectionParams::default()
        };
        let sel = select_pthreads(&forest, &params);
        let p = &sel.prediction;
        assert_eq!(p.num_static, sel.pthreads.len());
        assert!((p.adv_agg - (p.lt_agg - p.oh_agg)).abs() < 1e-6);
        assert!(p.misses_fully_covered <= p.misses_covered);
        assert!(p.misses_covered <= forest.total_misses());
        assert!(p.avg_pthread_len <= params.max_pthread_len as f64);
    }
}
