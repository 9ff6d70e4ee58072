//! The slice forest: one slice tree per static problem load, plus the
//! global trigger statistics (`DC_trig`) the advantage model needs.

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
        self.trees
            .entry(root_pc)
            .or_insert_with(|| SliceTree::new(root_pc, root_inst))
            .insert_slice(slice);
    }

    /// Finishes, producing the forest.
    pub fn finish(self) -> SliceForest {
        SliceForest {
            trees: self.trees,
            exec_counts: self.exec_counts,
            sample_insts: self.observed,
        }
    }
}

/// Builds a [`SliceForest`] from a dynamic instruction stream.
///
/// Feed every traced instruction to [`observe`](Self::observe) (typically
/// as the sink of [`preexec_func::run_trace`]); the builder maintains the
/// slicing window, extracts a backward slice at every L2-miss load, and
/// folds it straight into its tree.
#[derive(Debug)]
pub struct SliceForestBuilder {
    window: SliceWindow,
    max_slice_len: usize,
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
            let slice = self.window.slice_latest(self.max_slice_len);
            self.bank.insert(d.pc, d.inst, &slice);
        }
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
    exec_counts: Vec<u64>,
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
        self.exec_counts.get(pc as usize).copied().unwrap_or(0)
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
        self.exec_counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(pc, &c)| (pc as Pc, c))
    }

    /// Reassembles a forest from its parts (deserialization).
    pub fn from_parts(
        trees: Vec<SliceTree>,
        exec_counts: Vec<(Pc, u64)>,
        sample_insts: u64,
    ) -> SliceForest {
        let mut counts = Vec::new();
        for (pc, c) in exec_counts {
            let pc = pc as usize;
            if pc >= counts.len() {
                counts.resize(pc + 1, 0);
            }
            counts[pc] = c;
        }
        SliceForest {
            trees: trees.into_iter().map(|t| (t.root_pc(), t)).collect(),
            exec_counts: counts,
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
