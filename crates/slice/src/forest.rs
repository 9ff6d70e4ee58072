//! The slice forest: one slice tree per static problem load, plus the
//! global trigger statistics (`DC_trig`) the advantage model needs.
//!
//! [`SliceForestBuilder`] is the windowed path: at every L2-miss load it
//! runs the backward-slice traversal into buffers it keeps and walks the
//! result straight into the load's tree, so a slice allocates only the
//! tree nodes it creates. [`ForestBank`] is the accumulator both paths
//! share; the on-demand path inserts materialized slices into it. Counts
//! are dense by PC while a trace runs; the finished [`SliceForest`]
//! keeps them as sorted `(pc, count)` pairs, so a forest read from a
//! file never sizes an allocation by a PC it read.

use crate::window::Traversal;
use crate::{SliceEntry, SliceError, SliceTree, SliceWindow};
use preexec_func::DynInst;
use preexec_isa::{Inst, Pc};
use std::collections::BTreeMap;

/// The accumulating half of a [`SliceForest`]: the trees, the per-PC
/// execution counts (`DC_trig`), and the measured-instruction total.
///
/// Every forest producer fills one of these — the windowed builder and
/// the on-demand re-execution path, which counts during the trace and
/// inserts each slice as it is re-extracted.
/// Trees are independent per problem load, so only the per-load order of
/// [`insert`](Self::insert) calls shapes the result.
#[derive(Debug, Default)]
pub struct ForestBank {
    trees: BTreeMap<Pc, SliceTree>,
    exec_counts: Vec<u64>,
    observed: u64,
}

impl ForestBank {
    /// An empty bank.
    pub fn new() -> ForestBank {
        ForestBank::default()
    }

    /// Counts one measured dynamic instruction at `pc`.
    pub fn count(&mut self, pc: Pc) {
        self.observed += 1;
        let pc = pc as usize;
        if pc >= self.exec_counts.len() {
            self.exec_counts.resize(pc + 1, 0);
        }
        self.exec_counts[pc] += 1;
    }

    /// Folds one miss slice into the tree of the problem load `root_pc`
    /// (created on its first slice).
    pub fn insert(&mut self, root_pc: Pc, root_inst: Inst, slice: &[SliceEntry]) {
        self.tree(root_pc, root_inst).insert_slice(slice);
    }

    /// The tree of the problem load `root_pc`, created on first use.
    fn tree(&mut self, root_pc: Pc, root_inst: Inst) -> &mut SliceTree {
        self.trees
            .entry(root_pc)
            .or_insert_with(|| SliceTree::new(root_pc, root_inst))
    }

    /// Finishes, producing the forest.
    pub fn finish(self) -> SliceForest {
        SliceForest {
            exec_counts: self.count_pairs(),
            trees: self.trees,
            sample_insts: self.observed,
        }
    }

    /// Lends the forest built so far to `f`: the trees move out of the
    /// bank for the call and back after it, so no tree is copied; only
    /// the sorted `(pc, count)` pairs are built.
    fn lend<R>(&mut self, f: impl FnOnce(&SliceForest) -> R) -> R {
        let forest = SliceForest {
            exec_counts: self.count_pairs(),
            trees: std::mem::take(&mut self.trees),
            sample_insts: self.observed,
        };
        let value = f(&forest);
        self.trees = forest.trees;
        value
    }

    /// The nonzero counts as `(pc, count)` pairs, ascending by PC.
    fn count_pairs(&self) -> Vec<(Pc, u64)> {
        self.exec_counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(pc, &c)| (pc as Pc, c))
            .collect()
    }
}

/// Builds a [`SliceForest`] from a dynamic instruction stream.
///
/// Feed every traced instruction to [`observe`](Self::observe) (typically
/// as the sink of [`preexec_func::run_trace`]); the builder maintains the
/// slicing window and, at every L2-miss load, runs the backward-slice
/// traversal into buffers it reuses and walks the result straight into
/// the load's tree. No slice is materialized: a slice allocates only the
/// tree nodes it creates.
#[derive(Debug)]
pub struct SliceForestBuilder {
    window: SliceWindow,
    max_slice_len: usize,
    slice: Traversal,
    bank: ForestBank,
}

impl SliceForestBuilder {
    /// Creates a builder with the given slicing `scope` (window length,
    /// paper default 1024) and `max_slice_len` (the longest stored slice,
    /// which bounds candidate p-thread length before optimization).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(scope: usize, max_slice_len: usize) -> SliceForestBuilder {
        match SliceForestBuilder::try_new(scope, max_slice_len) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// Returns [`SliceError::ZeroScope`] or [`SliceError::ZeroMaxSliceLen`]
    /// when the corresponding parameter is zero.
    pub fn try_new(scope: usize, max_slice_len: usize) -> Result<SliceForestBuilder, SliceError> {
        if max_slice_len == 0 {
            return Err(SliceError::ZeroMaxSliceLen);
        }
        Ok(SliceForestBuilder {
            window: SliceWindow::try_new(scope)?,
            max_slice_len,
            slice: Traversal::with_capacity(max_slice_len),
            bank: ForestBank::new(),
        })
    }

    /// Observes a warm-up instruction: it enters the slicing window (so
    /// slices taken early in the measured region can reach back through
    /// it) but is not counted in `DC_trig` statistics and triggers no
    /// slicing even if it misses.
    pub fn observe_warmup(&mut self, d: &DynInst) {
        self.window.push(d);
    }

    /// Observes one traced dynamic instruction.
    pub fn observe(&mut self, d: &DynInst) {
        self.bank.count(d.pc);
        self.window.push(d);
        if d.is_l2_miss_load() {
            self.window
                .traverse_latest(self.max_slice_len, &mut self.slice)
                .expect("window holds the load just pushed");
            self.bank.tree(d.pc, d.inst).insert_path(&self.slice);
        }
    }

    /// Lends the forest built so far to `f` without copying it: what
    /// [`finish`](Self::finish) would return at this point, borrowed for
    /// the call. The builder goes on where it stopped.
    pub fn lend_forest<R>(&mut self, f: impl FnOnce(&SliceForest) -> R) -> R {
        self.bank.lend(f)
    }

    /// Finishes, producing the forest.
    pub fn finish(self) -> SliceForest {
        self.bank.finish()
    }
}

/// The complete slicing product for one program sample: a slice tree per
/// static problem load, per-PC dynamic execution counts (`DC_trig` for any
/// prospective trigger), and the sample length.
#[derive(Debug, Clone)]
pub struct SliceForest {
    trees: BTreeMap<Pc, SliceTree>,
    /// `(pc, count)` for every PC with a nonzero count, ascending by PC.
    /// Sparse, so a PC read from a slice file never sizes an allocation.
    exec_counts: Vec<(Pc, u64)>,
    sample_insts: u64,
}

impl SliceForest {
    /// The slice tree for the problem load at `pc`, if that load missed.
    pub fn tree(&self, pc: Pc) -> Option<&SliceTree> {
        self.trees.get(&pc)
    }

    /// Iterates over `(problem load PC, tree)` in PC order.
    pub fn trees(&self) -> impl Iterator<Item = (Pc, &SliceTree)> {
        self.trees.iter().map(|(&pc, t)| (pc, t))
    }

    /// Number of problem loads (trees).
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// `DC_trig` for the static instruction at `pc`: its dynamic execution
    /// count over the sample.
    pub fn dc_trig(&self, pc: Pc) -> u64 {
        self.exec_counts
            .binary_search_by_key(&pc, |&(p, _)| p)
            .map_or(0, |i| self.exec_counts[i].1)
    }

    /// Total dynamic instructions in the sample (the "on" phases).
    pub fn sample_insts(&self) -> u64 {
        self.sample_insts
    }

    /// Total L2 misses captured across all trees.
    pub fn total_misses(&self) -> u64 {
        self.trees.values().map(|t| t.root().dc_ptcm).sum()
    }

    /// Iterates over `(pc, execution count)` for every PC with a nonzero
    /// count (serialization).
    pub fn exec_counts(&self) -> impl Iterator<Item = (Pc, u64)> + '_ {
        self.exec_counts.iter().copied()
    }

    /// Reassembles a forest from its parts (deserialization). The counts
    /// may come in any order; for a PC listed more than once the last
    /// count wins, and zero counts are dropped.
    pub fn from_parts(
        trees: Vec<SliceTree>,
        mut exec_counts: Vec<(Pc, u64)>,
        sample_insts: u64,
    ) -> SliceForest {
        // A stable sort keeps each PC's duplicates in input order, and
        // `dedup_by` hands each later one over to the kept earlier one.
        exec_counts.sort_by_key(|&(pc, _)| pc);
        exec_counts.dedup_by(|later, kept| {
            let dup = later.0 == kept.0;
            if dup {
                kept.1 = later.1;
            }
            dup
        });
        exec_counts.retain(|&(_, c)| c > 0);
        SliceForest {
            trees: trees.into_iter().map(|t| (t.root_pc(), t)).collect(),
            exec_counts,
            sample_insts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_func::{run_trace, TraceConfig};
    use preexec_isa::assemble;

    /// Streams two independent loads over fresh memory so both miss.
    fn forest_for(src: &str) -> SliceForest {
        let p = assemble("t", src).unwrap();
        let mut b = SliceForestBuilder::new(1024, 32);
        run_trace(&p, &TraceConfig::default(), |d| b.observe(d));
        b.finish()
    }

    #[test]
    fn one_tree_per_problem_load() {
        let f = forest_for(
            "li r1, 0x100000\n li r5, 0x900000\n li r2, 0\n li r3, 256\n\
             top: bge r2, r3, done\n\
             ld r4, 0(r1)\n ld r6, 0(r5)\n\
             addi r1, r1, 64\n addi r5, r5, 64\n addi r2, r2, 1\n j top\n\
             done: halt",
        );
        assert_eq!(f.num_trees(), 2);
        let t1 = f.tree(5).unwrap();
        let t2 = f.tree(6).unwrap();
        assert_eq!(t1.root().dc_ptcm, 256);
        assert_eq!(t2.root().dc_ptcm, 256);
        assert_eq!(f.total_misses(), 512);
    }

    #[test]
    fn dc_trig_counts_all_instructions() {
        let f = forest_for(
            "li r1, 0x100000\n li r2, 0\n li r3, 10\n\
             top: bge r2, r3, done\n ld r4, 0(r1)\n addi r1, r1, 64\n addi r2, r2, 1\n j top\n\
             done: halt",
        );
        assert_eq!(f.dc_trig(0), 1); // li executes once
        assert_eq!(f.dc_trig(3), 11); // bge: 10 in-loop + final
        assert_eq!(f.dc_trig(5), 10); // induction addi
        assert_eq!(f.dc_trig(99), 0); // never-executed PC
    }

    #[test]
    fn root_takes_positions_from_the_first_slice_that_has_them() {
        // The base register's first producer lies beyond a scope of 8,
        // every later one (the `addi` four back) within it.
        let p = assemble(
            "t",
            "li r1, 0x100000\n li r2, 0\n li r3, 8\n nop\n nop\n nop\n nop\n nop\n nop\n\
             top: bge r2, r3, done\n ld r4, 0(r1)\n addi r1, r1, 64\n addi r2, r2, 1\n j top\n\
             done: halt",
        )
        .unwrap();
        let mut b = SliceForestBuilder::new(8, 32);
        run_trace(&p, &TraceConfig::default(), |d| b.observe(d));
        let f = b.finish();
        let t = f.tree(10).unwrap();
        assert_eq!(t.root().dc_ptcm, 8);
        assert_eq!(t.root().dep_depths, vec![1]);
    }

    #[test]
    fn hits_produce_no_tree() {
        // Re-loading the same line: one miss then hits.
        let f = forest_for(
            "li r1, 0x100000\n li r2, 0\n li r3, 10\n\
             top: bge r2, r3, done\n ld r4, 0(r1)\n addi r2, r2, 1\n j top\n\
             done: halt",
        );
        let t = f.tree(4).unwrap();
        assert_eq!(t.root().dc_ptcm, 1); // only the cold miss
    }

    #[test]
    fn from_parts_sorts_keeps_the_last_duplicate_and_drops_zeros() {
        let counts = vec![(7, 3), (2, 5), (7, 4), (9, 0), (2, 0), (1, 1)];
        let f = SliceForest::from_parts(Vec::new(), counts, 10);
        assert_eq!(f.exec_counts().collect::<Vec<_>>(), [(1, 1), (7, 4)]);
        assert_eq!(f.dc_trig(7), 4);
        assert_eq!(f.dc_trig(2), 0);
        assert_eq!(f.dc_trig(Pc::MAX), 0);
    }

    #[test]
    fn a_lent_forest_is_the_prefix_forest_and_lending_changes_nothing() {
        let p = assemble(
            "t",
            "li r1, 0x100000\n li r5, 0x900000\n li r2, 0\n li r3, 64\n\
             top: bge r2, r3, done\n\
             ld r4, 0(r1)\n ld r6, 0(r5)\n\
             addi r1, r1, 64\n addi r5, r5, 64\n addi r2, r2, 1\n j top\n\
             done: halt",
        )
        .unwrap();
        let mut stream = Vec::new();
        run_trace(&p, &TraceConfig::default(), |d| stream.push(*d));
        let build = |n: usize| {
            let mut b = SliceForestBuilder::new(1024, 32);
            stream[..n].iter().for_each(|d| b.observe(d));
            b
        };
        let half = stream.len() / 2;
        let mut lent = build(half);
        let text = lent.lend_forest(crate::write_forest);
        assert_eq!(text, crate::write_forest(&build(half).finish()));
        assert_eq!(lent.lend_forest(SliceForest::num_trees), 2);
        stream[half..].iter().for_each(|d| lent.observe(d));
        assert_eq!(
            crate::write_forest(&lent.finish()),
            crate::write_forest(&build(stream.len()).finish())
        );
    }

    #[test]
    fn sample_insts_counts_everything() {
        let f = forest_for("li r1, 1\n halt");
        assert_eq!(f.sample_insts(), 2);
    }

    #[test]
    fn try_new_returns_typed_errors() {
        use crate::SliceError;
        assert!(matches!(
            SliceForestBuilder::try_new(1024, 0),
            Err(SliceError::ZeroMaxSliceLen)
        ));
        assert!(matches!(
            SliceForestBuilder::try_new(0, 32),
            Err(SliceError::ZeroScope)
        ));
        assert!(SliceForestBuilder::try_new(1024, 32).is_ok());
    }

    #[test]
    fn induction_chain_in_tree() {
        let f = forest_for(
            "li r1, 0x100000\n li r2, 0\n li r3, 64\n\
             top: bge r2, r3, done\n ld r4, 0(r1)\n addi r1, r1, 64\n addi r2, r2, 1\n j top\n\
             done: halt",
        );
        let t = f.tree(4).unwrap();
        assert!(t.check_invariants());
        // The dominant path below the root is the addi (pc 5) chain.
        let root = t.root();
        assert!(!root.children.is_empty());
        let first_child = t.node(root.children[0]);
        // The steady-state child is the induction addi; `li` appears only
        // for the first (cold-start) miss.
        assert!(first_child.pc == 5 || first_child.pc == 0);
        let deep_leaf = t
            .leaves()
            .into_iter()
            .map(|l| t.node(l).depth)
            .max()
            .unwrap();
        assert!(deep_leaf > 4, "induction unrolling should go deep");
    }
}
