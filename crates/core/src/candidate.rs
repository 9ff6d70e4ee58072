//! Candidate construction and scoring: from a slice-tree node to a
//! p-thread body and its aggregate advantage.

use crate::advantage::advantage_of;
use crate::body::BodyBuf;
use crate::optimize::Optimizer;
use crate::scdh::{scdh_main_in, scdh_pthread_in};
use crate::{Advantage, Body, SelectionParams};
use preexec_slice::{NodeId, SliceTree};

/// Builds the body of the candidate static p-thread whose trigger is
/// `trigger` (a slice-tree node at depth ≥ 1).
///
/// The body consists of the instructions on the path *strictly between*
/// the trigger and the root, plus the root load itself, in execution order
/// (trigger-adjacent instruction first, problem load last) — the paper's
/// "walk from the node to the root". The trigger instruction itself is not
/// part of the body: it is executed by the main thread, and the p-thread's
/// live-ins are seeded from main-thread state when the trigger launches it
/// (working example, §3.1: the candidate triggered by `#04` has the
/// three-instruction body `#07 #08 #09`).
///
/// Dataflow: a producer deeper than the trigger is a live-in (dropped);
/// producers within the body become dependence edges. Main-thread trigger
/// distances come from the `DIST_pl` annotations
/// (`DIST_trig = DIST_pl(trigger) − DIST_pl(node)`), floored at the
/// physical minimum implied by the slice itself.
///
/// # Panics
///
/// Panics if `trigger` is the root (depth 0): the root is not a candidate.
pub fn candidate_body(tree: &SliceTree, trigger: NodeId) -> Body {
    let mut buf = BodyBuf::default();
    build_body(tree, trigger, &mut buf);
    buf.to_body()
}

/// The one body builder behind [`candidate_body`] and the scorer: fills
/// `buf` with the body of the candidate triggered at `trigger`.
///
/// Walking up from the trigger's parent visits depths `k−1, …, 0`, which
/// is execution order, so no root path is materialized: body position
/// `i` holds the node at depth `d = k−1−i`. A dependence depth names an
/// in-body producer only when it is deeper than the node and shallower
/// than the trigger; every other depth (deeper = live-in, and any depth
/// a hand-built tree may hold that is not deeper than its node) adds no
/// edge, so a dependence list of any shape builds a valid body.
///
/// # Panics
///
/// Panics if `trigger` is the root.
pub(crate) fn build_body(tree: &SliceTree, trigger: NodeId, buf: &mut BodyBuf) {
    let trig = tree.node(trigger);
    let k = trig.depth as usize; // trigger depth = body length
    assert!(k >= 1, "the root node is not a p-thread candidate");
    let trigger_dist = trig.dist_pl();
    buf.clear();
    let mut cur = trig.parent;
    let mut i = 0;
    while let Some(id) = cur {
        let node = tree.node(id);
        // Average distances can be slightly inconsistent across slices;
        // the main thread must sequence at least the k-d = i+1 slice
        // instructions between the trigger and this node.
        let mt_dist = (trigger_dist - node.dist_pl()).max((i + 1) as f64);
        buf.push(node.inst, mt_dist).extend(
            node.dep_depths
                .iter()
                .filter(|&&dd| (dd as usize) < k) // within body; deeper = live-in
                .map(|&dd| k - 1 - dd as usize)
                .filter(|&p| p < i), // guard against inconsistent annotations
        );
        cur = node.parent;
        i += 1;
    }
}

/// Scores candidates one after another in buffers that live as long as
/// the scorer: the body, the SCDH heights and the optimizer's work lists.
/// Once they have grown to the longest body, scoring a candidate
/// allocates nothing.
///
/// Scoring builds the main-thread body, takes its main-thread SCDH,
/// optimizes it in place into the body the p-thread executes (when
/// `params.optimize`), takes that body's p-thread SCDH and combines the
/// two into `ADV_agg` — the same functions [`candidate_body`],
/// [`crate::optimize_body`], [`crate::scdh::scdh`] and
/// [`crate::aggregate_advantage`] wrap.
#[derive(Debug, Default)]
pub(crate) struct CandidateScorer {
    body: BodyBuf,
    heights: Vec<f64>,
    optimizer: Optimizer,
}

impl CandidateScorer {
    /// Scores the candidate triggered at `trigger`, or returns `None`
    /// when it is illegal: longer than `params.max_pthread_len` after
    /// optimization.
    pub(crate) fn score(
        &mut self,
        tree: &SliceTree,
        trigger: NodeId,
        dc_trig: u64,
        params: &SelectionParams,
    ) -> Option<Advantage> {
        build_body(tree, trigger, &mut self.body);
        if !params.optimize && self.body.len() > params.max_pthread_len {
            return None;
        }
        let scdh_mt = scdh_main_in(self.body.insts(), &mut self.heights, params.bw_seq_mt());
        if params.optimize {
            self.optimizer.run(&mut self.body);
        }
        let len = self.body.len();
        if len > params.max_pthread_len {
            return None;
        }
        let scdh_pt = scdh_pthread_in(self.body.insts(), &mut self.heights);
        Some(advantage_of(
            params,
            scdh_pt,
            scdh_mt,
            len,
            dc_trig,
            tree.node(trigger).dc_ptcm,
        ))
    }

    /// The body the candidate triggered at `trigger` executes: the
    /// optimized body when `params.optimize`, else the main-thread body.
    pub(crate) fn exec_body(
        &mut self,
        tree: &SliceTree,
        trigger: NodeId,
        params: &SelectionParams,
    ) -> Body {
        build_body(tree, trigger, &mut self.body);
        if params.optimize {
            self.optimizer.run(&mut self.body);
        }
        self.body.to_body()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_isa::{Inst, Op, Pc, Reg};
    use preexec_slice::SliceEntry;

    /// Builds the single-path tree for the paper's left-hand slice:
    /// #09 <- #08 <- #07 <- #04 <- #11 <- #11 <- #11 with the paper's
    /// dynamic distances (iteration length 13 on the #04 path).
    fn paper_tree() -> SliceTree {
        let root = SliceEntry {
            pc: 9,
            inst: Inst::load(Op::Lw, Reg::new(8), Reg::new(7), 0),
            dist: 0,
            dep_positions: vec![1],
        };
        let mk = |pc: Pc, inst: Inst, dist: u64, deps: Vec<u32>| SliceEntry {
            pc,
            inst,
            dist,
            dep_positions: deps,
        };
        let slice = vec![
            root.clone(),
            mk(
                8,
                Inst::itype(Op::Addi, Reg::new(7), Reg::new(7), 4096),
                1,
                vec![2],
            ),
            mk(
                7,
                Inst::itype(Op::Sll, Reg::new(7), Reg::new(7), 2),
                2,
                vec![3],
            ),
            mk(
                4,
                Inst::load(Op::Lw, Reg::new(7), Reg::new(5), 4),
                4,
                vec![4],
            ),
            mk(
                11,
                Inst::itype(Op::Addi, Reg::new(5), Reg::new(5), 16),
                11,
                vec![5],
            ),
            mk(
                11,
                Inst::itype(Op::Addi, Reg::new(5), Reg::new(5), 16),
                24,
                vec![6],
            ),
            mk(
                11,
                Inst::itype(Op::Addi, Reg::new(5), Reg::new(5), 16),
                37,
                vec![],
            ),
        ];
        let mut t = SliceTree::new(9, root.inst);
        t.insert_slice(&slice);
        t
    }

    #[test]
    fn candidate_shapes_match_figure_2() {
        let t = paper_tree();
        // Node ids along the path: 0=#09, 1=#08, 2=#07, 3=#04, 4..6=#11.
        // Candidate 1 (trigger #08): body = [#09], size 1.
        let b1 = candidate_body(&t, 1);
        assert_eq!(b1.len(), 1);
        assert_eq!(b1.insts()[0].inst.op, Op::Lw);
        // Candidate 3 (trigger #04): body = [#07, #08, #09], size 3.
        let b3 = candidate_body(&t, 3);
        assert_eq!(b3.len(), 3);
        assert_eq!(b3.to_insts()[0].to_string(), "sll r7, r7, 2");
        assert_eq!(b3.to_insts()[2].to_string(), "lw r8, 0(r7)");
        // Candidate 5 (trigger second #11): body includes one #11 copy.
        let b5 = candidate_body(&t, 5);
        assert_eq!(b5.len(), 5);
        assert_eq!(b5.to_insts()[0].to_string(), "addi r5, r5, 16");
        assert_eq!(b5.to_insts()[1].to_string(), "lw r7, 4(r5)");
    }

    #[test]
    fn body_dataflow_is_a_chain_here() {
        let t = paper_tree();
        let b = candidate_body(&t, 4); // trigger first #11: [#04,#07,#08,#09]
        assert_eq!(b.len(), 4);
        for (i, bi) in b.insts().iter().enumerate() {
            if i == 0 {
                assert!(bi.deps.is_empty()); // #04 reads live-in r5
            } else {
                assert_eq!(bi.deps, vec![i - 1]);
            }
        }
    }

    #[test]
    fn main_thread_distances_subtract_dist_pl() {
        let t = paper_tree();
        let b = candidate_body(&t, 4); // trigger dist 11
        let dists: Vec<f64> = b.insts().iter().map(|bi| bi.mt_dist).collect();
        // #04 at 11-4=7, #07 at 9, #08 at 10, #09 at 11.
        assert_eq!(dists, vec![7.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    fn physical_floor_applies() {
        // Distances that would go negative are floored at slice spacing.
        let root = SliceEntry {
            pc: 1,
            inst: Inst::load(Op::Ld, Reg::new(2), Reg::new(1), 0),
            dist: 0,
            dep_positions: vec![1],
        };
        let near = SliceEntry {
            pc: 0,
            inst: Inst::itype(Op::Addi, Reg::new(1), Reg::new(1), 8),
            dist: 1,
            dep_positions: vec![],
        };
        let mut t = SliceTree::new(1, root.inst);
        t.insert_slice(&[root, near]);
        let b = candidate_body(&t, 1);
        assert!(b.insts()[0].mt_dist >= 1.0);
    }

    #[test]
    #[should_panic(expected = "not a p-thread candidate")]
    fn root_is_not_a_candidate() {
        let t = paper_tree();
        let _ = candidate_body(&t, 0);
    }
}
