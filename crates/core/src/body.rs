//! P-thread bodies as small dataflow graphs.

use preexec_isa::Inst;

/// One instruction of a p-thread body, with its intra-body dataflow.
#[derive(Debug, Clone, PartialEq)]
pub struct BodyInst {
    /// The instruction.
    pub inst: Inst,
    /// Indices (within the body, always smaller than this instruction's
    /// own index) of the producers of this instruction's in-body source
    /// values. Sources without an entry are *live-ins*: seed values copied
    /// from the main thread at launch, available immediately.
    pub deps: Vec<usize>,
    /// The instruction's dynamic distance from the trigger in the **main
    /// thread** (`DIST_trig`), used for the main-thread SCDH. Distances
    /// are averages and therefore fractional.
    pub mt_dist: f64,
}

/// A p-thread body: instructions in execution order (trigger-adjacent
/// first, the targeted problem load last), each with producer links.
///
/// The body is what the SCDH model evaluates, what the optimizer rewrites,
/// and what (stripped to bare instructions) the timing simulator injects.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Body {
    insts: Vec<BodyInst>,
}

impl Body {
    /// Creates a body from instructions with dataflow.
    ///
    /// # Panics
    ///
    /// Panics if any dependence points forward (producers must precede
    /// consumers) or out of range.
    pub fn new(insts: Vec<BodyInst>) -> Body {
        for (i, bi) in insts.iter().enumerate() {
            for &d in &bi.deps {
                assert!(
                    d < i,
                    "body dep {d} of instruction {i} not strictly earlier"
                );
            }
        }
        Body { insts }
    }

    /// Number of instructions (`SIZE_pt`).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instructions with their dataflow.
    pub fn insts(&self) -> &[BodyInst] {
        &self.insts
    }

    /// The bare instruction sequence (for injection/execution).
    pub fn to_insts(&self) -> Vec<Inst> {
        self.insts.iter().map(|b| b.inst).collect()
    }

    /// Index of the final (targeted load) instruction.
    ///
    /// # Panics
    ///
    /// Panics if the body is empty.
    pub fn root(&self) -> usize {
        assert!(!self.insts.is_empty(), "empty body has no root");
        self.insts.len() - 1
    }

    /// The indices of instructions that consume instruction `i`'s result.
    pub fn consumers(&self, i: usize) -> Vec<usize> {
        self.insts
            .iter()
            .enumerate()
            .filter(|(_, b)| b.deps.contains(&i))
            .map(|(j, _)| j)
            .collect()
    }

    /// Mutable access for the optimizer (crate-internal).
    pub(crate) fn insts_mut(&mut self) -> &mut Vec<BodyInst> {
        &mut self.insts
    }
}

impl FromIterator<BodyInst> for Body {
    fn from_iter<T: IntoIterator<Item = BodyInst>>(iter: T) -> Body {
        Body::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_isa::{Op, Reg};

    fn bi(inst: Inst, deps: Vec<usize>, mt_dist: f64) -> BodyInst {
        BodyInst {
            inst,
            deps,
            mt_dist,
        }
    }

    fn chain() -> Body {
        // addi r1,r1,8 ; addi r1,r1,8 ; ld r2,0(r1)
        let a = Inst::itype(Op::Addi, Reg::new(1), Reg::new(1), 8);
        let l = Inst::load(Op::Ld, Reg::new(2), Reg::new(1), 0);
        Body::new(vec![
            bi(a, vec![], 0.0),
            bi(a, vec![0], 12.0),
            bi(l, vec![1], 24.0),
        ])
    }

    #[test]
    fn construction_and_accessors() {
        let b = chain();
        assert_eq!(b.len(), 3);
        assert_eq!(b.root(), 2);
        assert_eq!(b.to_insts().len(), 3);
        assert!(!b.is_empty());
    }

    #[test]
    fn consumers() {
        let b = chain();
        assert_eq!(b.consumers(0), vec![1]);
        assert_eq!(b.consumers(1), vec![2]);
        assert!(b.consumers(2).is_empty());
    }

    #[test]
    #[should_panic(expected = "not strictly earlier")]
    fn forward_dep_rejected() {
        let a = Inst::itype(Op::Addi, Reg::new(1), Reg::new(1), 8);
        let _ = Body::new(vec![bi(a, vec![0], 0.0)]);
    }

    #[test]
    #[should_panic(expected = "empty body")]
    fn empty_root_panics() {
        let _ = Body::default().root();
    }
}
