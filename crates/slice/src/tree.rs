//! The slice tree (paper §3.2): all backward slices of one static load's
//! misses, merged by shared root-side structure.
//!
//! Every insert runs one path walk over a root-first slice, read one
//! depth at a time through `SlicePath`: a materialized `&[SliceEntry]`
//! ([`SliceTree::insert_slice`]) or the traversal's buffers (the forest
//! builder). The walk reads each depth's PC and distance, and asks for
//! an entry's dependence positions only when it keeps them: when it
//! creates that entry's node, and for the root while the root's
//! `dep_depths` are still empty. So every non-root node keeps the
//! positions of the slice that created it, and the root keeps the first
//! non-empty positions any slice gave it.

use crate::SliceEntry;
use preexec_isa::{Inst, Pc};
use std::fmt;

/// Index of a node within its [`SliceTree`]. The root is always node 0.
pub type NodeId = usize;

/// A root-first backward slice as the tree walk reads it, one depth at a
/// time (depth 0 is the root, the problem load). Implemented by
/// materialized slices and by the traversal's buffers, so both insert
/// through the same walk.
pub(crate) trait SlicePath {
    /// Number of entries (≥ 1 for a real slice).
    fn len(&self) -> usize;
    /// Static PC of the entry at `depth`.
    fn pc(&self, depth: usize) -> Pc;
    /// The instruction at `depth`.
    fn inst(&self, depth: usize) -> Inst;
    /// Dynamic-instruction distance from the root to the entry at `depth`.
    fn dist(&self, depth: usize) -> u64;
    /// Depths of the in-slice producers of the entry at `depth`, ascending.
    fn dep_positions(&self, depth: usize) -> Vec<u32>;
}

impl SlicePath for [SliceEntry] {
    fn len(&self) -> usize {
        <[SliceEntry]>::len(self)
    }

    fn pc(&self, depth: usize) -> Pc {
        self[depth].pc
    }

    fn inst(&self, depth: usize) -> Inst {
        self[depth].inst
    }

    fn dist(&self, depth: usize) -> u64 {
        self[depth].dist
    }

    fn dep_positions(&self, depth: usize) -> Vec<u32> {
        self[depth].dep_positions.clone()
    }
}

/// One node of a slice tree.
///
/// A node at depth `d` identifies the static p-thread whose **trigger** is
/// this node's instruction and whose **body** is the chain of instructions
/// from depth `d-1` up to the root (the problem load), in that order —
/// exactly the paper's "walk from the node to the root".
#[derive(Debug, Clone)]
pub struct SliceNode {
    /// Static PC of this slice instruction.
    pub pc: Pc,
    /// The instruction itself.
    pub inst: Inst,
    /// Depth in the tree (root = 0).
    pub depth: u32,
    /// Parent node (toward the root); `None` for the root.
    pub parent: Option<NodeId>,
    /// Children (extensions of the slice by one earlier instruction).
    pub children: Vec<NodeId>,
    /// `DC_pt-cm`: dynamic miss computations whose slice passes through
    /// this node — the number of misses the node's p-thread pre-executes.
    pub dc_ptcm: u64,
    /// Depths (within the path through this node) of the in-slice
    /// producers of this instruction's source values. Producers deeper
    /// than a candidate's trigger are treated as external (live-in) by the
    /// advantage model.
    pub dep_depths: Vec<u32>,
    dist_sum: u64,
}

impl SliceNode {
    /// `DIST_pl`: the average dynamic-instruction distance from this
    /// instruction to the root load, over the slices through this node.
    /// Any `DIST_trig` is recovered by subtracting a deeper node's
    /// `DIST_pl` from the trigger's (paper §3.2).
    pub fn dist_pl(&self) -> f64 {
        if self.dc_ptcm == 0 {
            0.0
        } else {
            self.dist_sum as f64 / self.dc_ptcm as f64
        }
    }
}

/// The slice tree for a single static problem load.
///
/// Built by inserting root-first backward slices (see
/// [`crate::SliceWindow::slice_latest`]); slices sharing a prefix of static
/// PCs share nodes, which is what makes p-thread overlap explicit: *"a
/// parent-child relationship is the only possible source of overlap
/// between two p-threads"*.
#[derive(Debug, Clone)]
pub struct SliceTree {
    root_pc: Pc,
    nodes: Vec<SliceNode>,
}

impl SliceTree {
    /// Creates a tree for the problem load `root_pc`/`root_inst`.
    pub fn new(root_pc: Pc, root_inst: Inst) -> SliceTree {
        SliceTree {
            root_pc,
            nodes: vec![SliceNode {
                pc: root_pc,
                inst: root_inst,
                depth: 0,
                parent: None,
                children: Vec::new(),
                dc_ptcm: 0,
                dep_depths: Vec::new(),
                dist_sum: 0,
            }],
        }
    }

    /// The PC of the problem load at the root.
    pub fn root_pc(&self) -> Pc {
        self.root_pc
    }

    /// The root node.
    pub fn root(&self) -> &SliceNode {
        &self.nodes[0]
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &SliceNode {
        &self.nodes[id]
    }

    /// Number of nodes (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree holds only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Iterates over `(id, node)` pairs in insertion order (root first).
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &SliceNode)> {
        self.nodes.iter().enumerate()
    }

    /// Ids of all leaf nodes (each leaf identifies one maximal slice).
    pub fn leaves(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.children.is_empty())
            .map(|(i, _)| i)
            .collect()
    }

    /// The path from the root down to `id`, inclusive, ordered root-first.
    pub fn path_from_root(&self, id: NodeId) -> Vec<NodeId> {
        let mut path = Vec::with_capacity(self.nodes[id].depth as usize + 1);
        let mut cur = Some(id);
        while let Some(n) = cur {
            path.push(n);
            cur = self.nodes[n].parent;
        }
        path.reverse();
        path
    }

    /// Whether `anc` is a (possibly indirect) ancestor of `desc` — i.e.
    /// whether the two corresponding p-threads overlap, with `anc` the
    /// shorter parent p-thread.
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        let mut cur = self.nodes[desc].parent;
        while let Some(n) = cur {
            if n == anc {
                return true;
            }
            cur = self.nodes[n].parent;
        }
        false
    }

    /// Inserts one dynamic backward slice (root-first, as produced by
    /// [`crate::SliceWindow::slice_latest`]), updating `DC_pt-cm` and
    /// `DIST_pl` statistics along its path.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty or its root PC does not match the tree.
    pub fn insert_slice(&mut self, slice: &[SliceEntry]) {
        self.insert_path(slice);
    }

    /// The one path walk behind every insert: follows (or creates) the
    /// child matching each depth's PC and adds the depth's distance.
    /// Dependence positions are read only where they are kept — when a
    /// node is created, and for the root while its `dep_depths` are empty
    /// (so the root keeps the first non-empty positions it sees).
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty or its root PC does not match the tree.
    pub(crate) fn insert_path<P: SlicePath + ?Sized>(&mut self, slice: &P) {
        assert!(slice.len() > 0, "inserting empty slice");
        assert_eq!(slice.pc(0), self.root_pc, "slice root mismatch");
        self.nodes[0].dc_ptcm += 1;
        if self.nodes[0].dep_depths.is_empty() {
            self.nodes[0].dep_depths = slice.dep_positions(0);
        }
        let mut cur: NodeId = 0;
        for depth in 1..slice.len() {
            let pc = slice.pc(depth);
            let child = self.nodes[cur]
                .children
                .iter()
                .copied()
                .find(|&c| self.nodes[c].pc == pc);
            let child = match child {
                Some(c) => c,
                None => {
                    let id = self.nodes.len();
                    self.nodes.push(SliceNode {
                        pc,
                        inst: slice.inst(depth),
                        depth: depth as u32,
                        parent: Some(cur),
                        children: Vec::new(),
                        dc_ptcm: 0,
                        dep_depths: slice.dep_positions(depth),
                        dist_sum: 0,
                    });
                    self.nodes[cur].children.push(id);
                    id
                }
            };
            self.nodes[child].dc_ptcm += 1;
            self.nodes[child].dist_sum += slice.dist(depth);
            cur = child;
        }
    }

    /// The raw distance sum backing [`SliceNode::dist_pl`] (serialization).
    pub(crate) fn dist_sum(&self, id: NodeId) -> u64 {
        self.nodes[id].dist_sum
    }

    /// Appends a fully-specified node (deserialization). The parent must
    /// already exist.
    ///
    /// # Panics
    ///
    /// Panics if the parent id is out of range.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push_node_raw(
        &mut self,
        pc: Pc,
        inst: Inst,
        parent: NodeId,
        dc_ptcm: u64,
        dist_sum: u64,
        dep_depths: Vec<u32>,
    ) -> NodeId {
        let depth = self.nodes[parent].depth + 1;
        let id = self.nodes.len();
        self.nodes.push(SliceNode {
            pc,
            inst,
            depth,
            parent: Some(parent),
            children: Vec::new(),
            dc_ptcm,
            dep_depths,
            dist_sum,
        });
        self.nodes[parent].children.push(id);
        id
    }

    /// Sets the root's statistics (deserialization).
    pub(crate) fn set_root_stats(&mut self, dc_ptcm: u64, dep_depths: Vec<u32>) {
        self.nodes[0].dc_ptcm = dc_ptcm;
        self.nodes[0].dep_depths = dep_depths;
    }

    /// Checks the paper's structural invariant: a parent's `DC_pt-cm` is at
    /// least the sum of its children's (equality when every slice through
    /// the parent extends to a child; truncated slices may stop early).
    pub fn check_invariants(&self) -> bool {
        self.nodes.iter().all(|n| {
            let child_sum: u64 = n.children.iter().map(|&c| self.nodes[c].dc_ptcm).sum();
            child_sum <= n.dc_ptcm
        })
    }
}

impl fmt::Display for SliceTree {
    /// Pretty-prints the tree, one node per line, indented by depth —
    /// the textual analogue of the paper's Figure 3.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn walk(tree: &SliceTree, id: NodeId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let n = &tree.nodes[id];
            writeln!(
                f,
                "{:indent$}#{:02} {} [dc_ptcm={} dist_pl={:.1}]",
                "",
                n.pc,
                n.inst,
                n.dc_ptcm,
                n.dist_pl(),
                indent = n.depth as usize * 2
            )?;
            for &c in &n.children {
                walk(tree, c, f)?;
            }
            Ok(())
        }
        walk(self, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_isa::{Op, Reg};

    fn entry(pc: Pc, dist: u64, deps: Vec<u32>) -> SliceEntry {
        SliceEntry {
            pc,
            inst: Inst::itype(Op::Addi, Reg::new(1), Reg::new(1), 1),
            dist,
            dep_positions: deps,
        }
    }

    fn root_entry(deps: Vec<u32>) -> SliceEntry {
        SliceEntry {
            pc: 9,
            inst: Inst::load(Op::Lw, Reg::new(8), Reg::new(7), 0),
            dist: 0,
            dep_positions: deps,
        }
    }

    fn tree_with(slices: &[Vec<SliceEntry>]) -> SliceTree {
        let root = &slices[0][0];
        let mut t = SliceTree::new(root.pc, root.inst);
        for s in slices {
            t.insert_slice(s);
        }
        t
    }

    #[test]
    fn single_slice_makes_a_path() {
        let t = tree_with(&[vec![
            root_entry(vec![1]),
            entry(8, 1, vec![2]),
            entry(7, 2, vec![3]),
        ]]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.root().dc_ptcm, 1);
        assert_eq!(t.leaves(), vec![2]);
        assert_eq!(t.path_from_root(2), vec![0, 1, 2]);
    }

    #[test]
    fn shared_prefix_shares_nodes() {
        // Two slices agree on #08 then diverge (#04 vs #06) — Figure 3.
        let s1 = vec![
            root_entry(vec![1]),
            entry(8, 1, vec![2]),
            entry(4, 2, vec![]),
        ];
        let s2 = vec![
            root_entry(vec![1]),
            entry(8, 1, vec![2]),
            entry(6, 2, vec![]),
        ];
        let t = tree_with(&[s1.clone(), s1, s2]);
        assert_eq!(t.len(), 4); // root, #08, #04, #06
        assert_eq!(t.root().dc_ptcm, 3);
        let shared = t.node(1);
        assert_eq!(shared.pc, 8);
        assert_eq!(shared.dc_ptcm, 3);
        assert_eq!(shared.children.len(), 2);
        // Parent DC equals sum of children DCs (2 + 1).
        assert!(t.check_invariants());
        let d4 = t.node(2);
        let d6 = t.node(3);
        assert_eq!(d4.dc_ptcm + d6.dc_ptcm, shared.dc_ptcm);
    }

    #[test]
    fn root_takes_the_first_non_empty_positions_and_nodes_their_first() {
        let t = tree_with(&[
            vec![root_entry(vec![]), entry(8, 1, vec![])],
            vec![
                root_entry(vec![1]),
                entry(8, 1, vec![2]),
                entry(7, 2, vec![]),
            ],
            vec![
                root_entry(vec![1, 2]),
                entry(8, 2, vec![2]),
                entry(6, 3, vec![]),
            ],
        ]);
        assert_eq!(t.root().dep_depths, vec![1]);
        assert_eq!(t.node(1).dep_depths, Vec::<u32>::new());
    }

    #[test]
    fn dist_pl_averages() {
        let s1 = vec![root_entry(vec![1]), entry(8, 2, vec![])];
        let s2 = vec![root_entry(vec![1]), entry(8, 4, vec![])];
        let t = tree_with(&[s1, s2]);
        assert!((t.node(1).dist_pl() - 3.0).abs() < 1e-12);
        assert_eq!(t.root().dist_pl(), 0.0);
    }

    #[test]
    fn truncated_slice_keeps_invariant() {
        let long = vec![
            root_entry(vec![1]),
            entry(8, 1, vec![2]),
            entry(7, 2, vec![]),
        ];
        let short = vec![root_entry(vec![1]), entry(8, 1, vec![])];
        let t = tree_with(&[long, short]);
        // Node #08 has dc=2 but its only child #07 has dc=1.
        assert!(t.check_invariants());
        assert_eq!(t.node(1).dc_ptcm, 2);
        assert_eq!(t.node(2).dc_ptcm, 1);
    }

    #[test]
    fn ancestor_query() {
        let t = tree_with(&[vec![
            root_entry(vec![1]),
            entry(8, 1, vec![2]),
            entry(7, 2, vec![]),
        ]]);
        assert!(t.is_ancestor(0, 2));
        assert!(t.is_ancestor(1, 2));
        assert!(!t.is_ancestor(2, 1));
        assert!(!t.is_ancestor(2, 0));
    }

    #[test]
    fn same_pc_at_different_depths_distinct() {
        // Induction unrolling: #11 appears twice along one path.
        let s = vec![
            root_entry(vec![1]),
            entry(11, 2, vec![2]),
            entry(11, 14, vec![3]),
            entry(11, 26, vec![]),
        ];
        let t = tree_with(&[s]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.node(1).pc, 11);
        assert_eq!(t.node(2).pc, 11);
        assert_eq!(t.node(2).depth, 2);
    }

    #[test]
    #[should_panic(expected = "root mismatch")]
    fn wrong_root_rejected() {
        let mut t = SliceTree::new(9, Inst::load(Op::Lw, Reg::new(8), Reg::new(7), 0));
        t.insert_slice(&[entry(3, 0, vec![])]);
    }

    #[test]
    fn display_is_indented() {
        let t = tree_with(&[vec![root_entry(vec![1]), entry(8, 1, vec![])]]);
        let s = t.to_string();
        assert!(s.contains("#09"));
        assert!(s.contains("  #08")); // depth-1 indent
    }
}
