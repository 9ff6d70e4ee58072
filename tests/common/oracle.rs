//! Reference definitions of candidate scoring and of the tree selection
//! objective, written straight from the model's formulas (DESIGN.md §1,
//! after the paper's §3.1–3.2) to check `preexec_core` against.
//!
//! Nothing here calls `preexec_core`'s body builder, optimizer, SCDH,
//! advantage or solver. It reads the slice tree's annotations and the
//! parameter values, and uses `Advantage` only as a plain record to
//! compare against.
//!
//! - **Candidate.** The trigger is a node at depth `k ≥ 1`. Its body is
//!   the walk from the trigger's parent to the root: the nodes at depths
//!   `k−1, …, 0`, executed deepest first, so the node at depth `d` sits at
//!   body position `k−1−d`. A node's producer at depth `p` feeds it inside
//!   the body when `d < p < k`. A producer at or below the trigger
//!   (`p ≥ k`) is a live-in, available at time 0, and a recorded depth
//!   that is not deeper than the node (`p ≤ d`) names no producer.
//! - **SCDH.** `h(d) = max(SC(d), max over producers h(p)) + lat(d)`, and
//!   the height of the body is `h(0)`, the root load's. The p-thread
//!   sequences one instruction per cycle: `SC = position`. The main
//!   thread reaches the node `DIST_trig = DIST_pl(trigger) − DIST_pl(node)`
//!   instructions after the trigger, at least the `k − d` slice
//!   instructions between them, at `BW_seq-mt = (2·IPC + BW_seq) / 3`:
//!   `SC = max(DIST_trig, k − d) / BW_seq-mt`.
//! - **Advantage.** `LT = clamp(⌊SCDH_mt − SCDH_pt⌋, 0, L_cm)`,
//!   `OH = SIZE · (1 / BW_seq) · (BW_seq-mt / BW_seq)`,
//!   `ADVagg = DC_pt-cm · LT − DC_trig · OH`, and full coverage is
//!   `LT ≥ L_cm`. Without optimization `SIZE = k`, and a body longer than
//!   the length limit is no candidate.
//! - **Objective (§3.2).** A selected set `S` earns
//!   `Σ_{s∈S} ADVagg(s) − Σ_{c∈S} DC_pt-cm(c) · LT(a(c))`, where `a(c)` is
//!   `c`'s closest selected proper ancestor (no term when it has none):
//!   the misses a child pre-executes are already tolerated by the
//!   ancestor's p-thread up to the ancestor's per-miss `LT`.

use preexec_core::{Advantage, SelectionParams};
use preexec_slice::{NodeId, SliceTree};

/// The unoptimized score of the candidate triggered at `trigger`, or
/// `None` for the root and for a body longer than `max_pthread_len`.
pub fn score(
    tree: &SliceTree,
    trigger: NodeId,
    dc_trig: u64,
    params: &SelectionParams,
) -> Option<Advantage> {
    let k = tree.node(trigger).depth as usize;
    if k == 0 || k > params.max_pthread_len {
        return None;
    }
    // at_depth[d]: the body node at depth d.
    let mut at_depth = vec![0; k];
    let mut cur = tree.node(trigger).parent;
    while let Some(id) = cur {
        at_depth[tree.node(id).depth as usize] = id;
        cur = tree.node(id).parent;
    }
    let bw_mt = (2.0 * params.ipc + params.bw_seq) / 3.0;
    let dist_trig = tree.node(trigger).dist_pl();
    let mut h_pt = vec![0.0f64; k];
    let mut h_mt = vec![0.0f64; k];
    for d in (0..k).rev() {
        let node = tree.node(at_depth[d]);
        let mut in_pt = (k - 1 - d) as f64;
        let mut in_mt = (dist_trig - node.dist_pl()).max((k - d) as f64) / bw_mt;
        for &p in &node.dep_depths {
            let p = p as usize;
            if d < p && p < k {
                in_pt = in_pt.max(h_pt[p]);
                in_mt = in_mt.max(h_mt[p]);
            }
        }
        let lat = f64::from(node.inst.op.scdh_latency());
        h_pt[d] = in_pt + lat;
        h_mt[d] = in_mt + lat;
    }
    let (scdh_pt, scdh_mt) = (h_pt[0], h_mt[0]);
    let lt = (scdh_mt - scdh_pt).floor().clamp(0.0, params.miss_latency);
    let oh = k as f64 * ((1.0 / params.bw_seq) * (bw_mt / params.bw_seq));
    let lt_agg = tree.node(trigger).dc_ptcm as f64 * lt;
    let oh_agg = dc_trig as f64 * oh;
    Some(Advantage {
        scdh_pt,
        scdh_mt,
        lt,
        oh,
        lt_agg,
        oh_agg,
        adv_agg: lt_agg - oh_agg,
        full_coverage: lt >= params.miss_latency,
    })
}

/// The objective value of the selected set `selected` under the score
/// table `scores` (indexed by node id).
///
/// # Panics
///
/// Panics if a selected node has no score.
pub fn objective(tree: &SliceTree, scores: &[Option<Advantage>], selected: &[NodeId]) -> f64 {
    let adv = |n: NodeId| scores[n].expect("a selected node has a score");
    let mut total = 0.0;
    for &c in selected {
        total += adv(c).adv_agg;
        let mut cur = tree.node(c).parent;
        while let Some(a) = cur {
            if selected.contains(&a) {
                total -= tree.node(c).dc_ptcm as f64 * adv(a).lt;
                break;
            }
            cur = tree.node(a).parent;
        }
    }
    total
}

/// The largest objective value any set of scored candidates reaches.
///
/// A dynamic program over (node, closest selected ancestor): `best[v][j]`
/// is the most the subtree of `v` can add when the closest selected
/// ancestor above `v` sits at depth `j` (`j = 0`: none, since the root is
/// never a candidate). A node either stays out, passing `j` to its
/// children, or joins, earning its advantage less `DC_pt-cm(v) · LT` of
/// the ancestor at depth `j` and passing its own depth down. Children
/// have larger ids than their parents, so one reverse sweep fills the
/// table. The cost is O(nodes × depth).
pub fn exact_best(tree: &SliceTree, scores: &[Option<Advantage>]) -> f64 {
    let n = tree.len();
    let mut best: Vec<Vec<f64>> = vec![Vec::new(); n];
    // lt_at[j]: LT of the ancestor at depth j (index 0 unused: none).
    let mut lt_at: Vec<f64> = Vec::new();
    for v in (0..n).rev() {
        let node = tree.node(v);
        let d = node.depth as usize;
        lt_at.clear();
        lt_at.resize(d.max(1), 0.0);
        let mut cur = node.parent;
        while let Some(a) = cur {
            let ad = tree.node(a).depth as usize;
            if ad > 0 {
                lt_at[ad] = scores[a].map_or(0.0, |s| s.lt);
            }
            cur = tree.node(a).parent;
        }
        let children = |j: usize| -> f64 { node.children.iter().map(|&c| best[c][j]).sum() };
        let join = scores
            .get(v)
            .copied()
            .flatten()
            .filter(|_| d > 0)
            .map(|s| (s.adv_agg, node.dc_ptcm as f64, children(d)));
        let row: Vec<f64> = (0..d.max(1))
            .map(|j| {
                let skip = children(j);
                match join {
                    Some((adv, dc, below)) => skip.max(adv - dc * lt_at[j] + below),
                    None => skip,
                }
            })
            .collect();
        best[v] = row;
    }
    best[0][0]
}
