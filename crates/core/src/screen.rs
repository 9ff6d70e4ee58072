//! Tier-one candidate screening: a static, admissible upper bound on
//! `ADV_agg` per slice-tree node, computed from per-node aggregates in
//! `O(1)` after one `O(tree)` latency fold — no per-instruction body
//! construction and no SCDH recursion.
//!
//! The exact scorer ([`crate::select::score_tree_nodes`]) walks every
//! candidate's body twice (p-thread and main-thread SCDH) after building
//! the body from the root path. Screening replaces that walk with four
//! block-level quantities every node already carries (`depth`,
//! `DC_pt-cm`, `DIST_pl`, and a latency prefix sum folded once per
//! tree), and prunes a candidate only when its *upper bound* cannot beat
//! the null candidate — selecting nothing, the bar every candidate must
//! clear (`net > 0`) to enter the overlap fixed point. Because a
//! candidate with `ADV_agg ≤ 0` can never be selected (reductions only
//! lower nets, and unselected candidates contribute none), replacing its
//! score slot with `None` leaves the selected set — and therefore every
//! downstream byte — identical. DESIGN.md §16 carries the derivation and
//! the exactness proof.
//!
//! The bound (for a trigger at depth `k`, miss latency `L_cm`):
//!
//! ```text
//! ub_SCDH_mt = max(DIST_pl(trigger), k) / BW_seq-mt + Σ lat(path 0..k-1)
//! lb_SCDH_pt = optimize ? 1 : (k-1) + lat(root load)
//! ub_LT      = clamp(⌊ub_SCDH_mt − lb_SCDH_pt⌋, 0, L_cm)
//! lb_OH      = oh_per_inst · (optimize ? 1 : k)
//! ub_ADV     = DC_pt-cm·ub_LT − DC_trig·lb_OH
//! ```
//!
//! Admissibility (`ub_ADV ≥ ADV_agg` exactly scored): the main-thread
//! sequencing constraint is maximal at the root (`DIST_pl` of deeper
//! nodes only subtracts; the physical floor `k−d` is largest at `d=0`),
//! each SCDH step adds at most its instruction latency, the p-thread
//! height is at least its last instruction's sequencing slot plus
//! latency, and `⌊·⌋`/`clamp` are monotone. Optimization can only
//! shrink the executed body, so under `optimize` the p-thread bound
//! falls back to the universal minimum (one instruction, latency ≥ 1).

use crate::SelectionParams;
use preexec_isa::Pc;
use preexec_slice::SliceTree;

/// What screening did to one tree (or, summed, to a whole forest):
/// every non-root node is counted exactly once as pruned or surviving.
///
/// Mirrored into the metrics registry as the `screen.pruned` /
/// `screen.survivors` counters by the screened selection driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenStats {
    /// Candidates whose bound proved they cannot be selected (plus the
    /// statically illegal: unoptimized bodies over `max_pthread_len`).
    pub pruned: u64,
    /// Candidates passed to the exact ADVagg/SCDH scorer.
    pub survivors: u64,
}

impl ScreenStats {
    /// Accumulates another tree's counts.
    pub fn absorb(&mut self, other: &ScreenStats) {
        self.pruned += other.pruned;
        self.survivors += other.survivors;
    }

    /// Total candidates screened.
    pub fn candidates(&self) -> u64 {
        self.pruned + self.survivors
    }
}

/// Per-node upper bounds on `ADV_agg` for every candidate of `tree`,
/// indexed by node id. The root (node 0) is not a candidate; its slot is
/// `+∞` so it never reads as prunable.
///
/// One forward pass suffices for the latency fold because parent ids are
/// always smaller than child ids (children are appended after their
/// parents, see [`SliceTree`]).
pub fn advantage_upper_bounds(
    tree: &SliceTree,
    dc_trig_of: &dyn Fn(Pc) -> u64,
    params: &SelectionParams,
) -> Vec<f64> {
    let n = tree.len();
    // lat_to_root[id]: summed scdh latency of the path root..=id. For a
    // trigger at depth k, lat_to_root[parent] is exactly the latency sum
    // of its k-instruction main body (path depths 0..k-1).
    let mut lat_to_root = vec![0.0f64; n];
    for (id, node) in tree.iter() {
        let lat = node.inst.op.scdh_latency() as f64;
        lat_to_root[id] = match node.parent {
            Some(p) => lat_to_root[p] + lat,
            None => lat,
        };
    }

    let bw_mt = params.bw_seq_mt();
    let root_lat = tree.root().inst.op.scdh_latency() as f64;
    let oh_inst = params.oh_per_inst();
    let mut bounds = vec![f64::INFINITY; n];
    for (id, node) in tree.iter().skip(1) {
        let k = node.depth as f64;
        let parent = match node.parent {
            Some(p) => p,
            None => continue, // unreachable: only the root has no parent
        };
        let ub_mt = node.dist_pl().max(k) / bw_mt + lat_to_root[parent];
        let lb_pt = if params.optimize {
            1.0
        } else {
            (k - 1.0) + root_lat
        };
        let ub_lt = (ub_mt - lb_pt).floor().clamp(0.0, params.miss_latency);
        let lb_oh = oh_inst * if params.optimize { 1.0 } else { k };
        bounds[id] = node.dc_ptcm as f64 * ub_lt - dc_trig_of(node.pc) as f64 * lb_oh;
    }
    bounds
}

/// Screens every candidate of `tree`: returns a keep-mask indexed by
/// node id (`keep[0]`, the root, is always `false` — it is not a
/// candidate and is counted in neither bucket) plus the pruned/survivor
/// counts.
///
/// A node is pruned when it is statically illegal (optimization off and
/// the body, whose length equals the depth, exceeds `max_pthread_len` —
/// the exact scorer returns `None`) or when its advantage upper bound
/// cannot clear the null candidate. The bound comparison carries a
/// magnitude-scaled epsilon so floating-point drift between the bound
/// and the exact score can never prune a candidate whose exact
/// `ADV_agg` is positive.
pub fn screen_tree(
    tree: &SliceTree,
    dc_trig_of: &dyn Fn(Pc) -> u64,
    params: &SelectionParams,
) -> (Vec<bool>, ScreenStats) {
    let bounds = advantage_upper_bounds(tree, dc_trig_of, params);
    let mut keep = vec![false; tree.len()];
    let mut stats = ScreenStats::default();
    for (id, node) in tree.iter().skip(1) {
        let legal = params.optimize || (node.depth as usize) <= params.max_pthread_len;
        // Margin ~ 1e-9 of the terms entering the bound: both scores are
        // within machine epsilon of their real values, so a bound this
        // far below zero proves the exact score is negative too.
        let scale = 1.0
            + node.dc_ptcm as f64 * params.miss_latency
            + dc_trig_of(node.pc) as f64 * params.oh_per_inst();
        if legal && bounds[id] > -1e-9 * scale {
            keep[id] = true;
            stats.survivors += 1;
        } else {
            stats.pruned += 1;
        }
    }
    (keep, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::score_tree_nodes;
    use preexec_func::{run_trace, TraceConfig};
    use preexec_isa::assemble;
    use preexec_slice::{SliceForest, SliceForestBuilder};

    fn forest_for(src: &str) -> SliceForest {
        let p = assemble("t", src).unwrap();
        let mut b = SliceForestBuilder::new(1024, 32);
        run_trace(&p, &TraceConfig::default(), |d| b.observe(d));
        b.finish()
    }

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

    fn param_grid() -> Vec<SelectionParams> {
        let mut out = Vec::new();
        for optimize in [false, true] {
            for (ipc, lcm) in [(0.5, 78.0), (2.0, 70.0), (1.0, 8.0)] {
                out.push(SelectionParams {
                    ipc,
                    miss_latency: lcm,
                    optimize,
                    ..SelectionParams::default()
                });
            }
        }
        out.push(SelectionParams {
            optimize: false,
            ..SelectionParams::working_example()
        });
        out
    }

    /// The contract everything else rests on: for every node of every
    /// tree, the static bound dominates the exactly computed advantage.
    #[test]
    fn bound_is_admissible_on_real_trees() {
        let forest = forest_for(STREAM);
        for params in param_grid() {
            for (_, tree) in forest.trees() {
                let dc = |pc| forest.dc_trig(pc);
                let bounds = advantage_upper_bounds(tree, &dc, &params);
                let exact = score_tree_nodes(tree, &dc, &params);
                for (id, adv) in exact.iter().enumerate() {
                    if let Some(adv) = adv {
                        assert!(
                            bounds[id] >= adv.adv_agg - 1e-9,
                            "node {id}: bound {} < exact {} (optimize={})",
                            bounds[id],
                            adv.adv_agg,
                            params.optimize
                        );
                    }
                }
            }
        }
    }

    /// Pruned candidates are exactly those the selector can never pick:
    /// either the exact scorer rejects them outright or their exact
    /// advantage cannot clear the null candidate.
    #[test]
    fn pruned_candidates_never_score_positive() {
        let forest = forest_for(STREAM);
        for params in param_grid() {
            for (_, tree) in forest.trees() {
                let dc = |pc| forest.dc_trig(pc);
                let (keep, stats) = screen_tree(tree, &dc, &params);
                let exact = score_tree_nodes(tree, &dc, &params);
                assert_eq!(stats.candidates() as usize, tree.len() - 1);
                assert!(!keep[0], "the root is never a candidate");
                for (id, kept) in keep.iter().enumerate().skip(1) {
                    if !kept {
                        match &exact[id] {
                            None => {}
                            Some(adv) => assert!(
                                adv.adv_agg <= 0.0,
                                "pruned node {id} scores {}",
                                adv.adv_agg
                            ),
                        }
                    }
                }
            }
        }
    }

    /// Unoptimized bodies longer than `max_pthread_len` are statically
    /// illegal and must be pruned without consulting the bound.
    #[test]
    fn length_illegal_candidates_are_pruned() {
        let forest = forest_for(STREAM);
        let params = SelectionParams {
            ipc: 2.0,
            optimize: false,
            max_pthread_len: 2,
            ..SelectionParams::default()
        };
        for (_, tree) in forest.trees() {
            let dc = |pc| forest.dc_trig(pc);
            let (keep, _) = screen_tree(tree, &dc, &params);
            for (id, node) in tree.iter().skip(1) {
                if node.depth as usize > params.max_pthread_len {
                    assert!(!keep[id], "over-length node {id} kept");
                }
            }
        }
    }

    /// A pure-chain tree (single leaf): root load plus `depth` dependent
    /// induction addis, one slice, `DC_pt-cm = 1` everywhere.
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

    /// Candidates whose trigger launches far more often than it covers
    /// misses are exactly the ones the bound rejects: one covered miss
    /// buys at most `L_cm` cycles, which a hot enough trigger's summed
    /// overhead always exceeds.
    #[test]
    fn high_launch_cost_candidates_are_pruned() {
        let tree = chain_tree(3);
        let params = SelectionParams {
            ipc: 2.0,
            ..SelectionParams::default()
        };
        // Cheap triggers survive…
        let (keep, stats) = screen_tree(&tree, &|_| 1, &params);
        assert!(keep.iter().skip(1).any(|&k| k), "no survivors: {stats:?}");
        assert_eq!(stats.candidates(), 3);
        // …hot triggers covering a single miss cannot pay for themselves.
        let (keep, stats) = screen_tree(&tree, &|_| 1_000_000, &params);
        assert!(
            keep.iter().skip(1).all(|&k| !k),
            "hot trigger kept: {stats:?}"
        );
        assert_eq!(stats.survivors, 0);
        assert_eq!(stats.pruned, 3);
    }
}
