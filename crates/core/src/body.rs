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
}

/// A body held in buffers that outlive it, so that scoring one candidate
/// after another allocates nothing once the buffers have grown.
///
/// `insts[..len]` is the body. The elements past `len` are spares, kept
/// only for the capacity of their `deps` lists: refilling the buffer
/// overwrites elements in place, and dead-code elimination swaps removed
/// instructions past the end instead of dropping them. The lists keep any
/// shape a slice tree gives them (any length, duplicates included), as
/// [`crate::candidate_body`] always has.
#[derive(Debug, Default)]
pub(crate) struct BodyBuf {
    insts: Vec<BodyInst>,
    len: usize,
}

impl BodyBuf {
    /// Empties the body, keeping every buffer.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends an instruction with an empty dependence list and returns
    /// the list to fill.
    pub(crate) fn push(&mut self, inst: Inst, mt_dist: f64) -> &mut Vec<usize> {
        if self.len == self.insts.len() {
            self.insts.push(BodyInst {
                inst,
                deps: Vec::new(),
                mt_dist,
            });
        } else {
            let spare = &mut self.insts[self.len];
            spare.inst = inst;
            spare.mt_dist = mt_dist;
            spare.deps.clear();
        }
        self.len += 1;
        &mut self.insts[self.len - 1].deps
    }

    /// Replaces the body with a copy of `insts`.
    pub(crate) fn copy_from(&mut self, insts: &[BodyInst]) {
        self.clear();
        for bi in insts {
            self.push(bi.inst, bi.mt_dist).extend_from_slice(&bi.deps);
        }
    }

    /// Number of instructions.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The instructions with their dataflow.
    pub(crate) fn insts(&self) -> &[BodyInst] {
        &self.insts[..self.len]
    }

    /// Mutable access for the optimizer, which rewrites in place.
    pub(crate) fn insts_mut(&mut self) -> &mut [BodyInst] {
        &mut self.insts[..self.len]
    }

    /// Shortens the body to its first `len` instructions; the rest stay
    /// as spares.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// An owned copy of the body.
    pub(crate) fn to_body(&self) -> Body {
        Body {
            insts: self.insts().to_vec(),
        }
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
    #[should_panic(expected = "not strictly earlier")]
    fn forward_dep_rejected() {
        let a = Inst::itype(Op::Addi, Reg::new(1), Reg::new(1), 8);
        let _ = Body::new(vec![bi(a, vec![0], 0.0)]);
    }

    #[test]
    fn buffer_reuses_its_elements() {
        let b = chain();
        let mut buf = BodyBuf::default();
        buf.copy_from(b.insts());
        assert_eq!(buf.to_body(), b);
        buf.truncate(1);
        assert_eq!(buf.insts(), &b.insts()[..1]);
        // Refilling overwrites the spares: no stale dependence survives.
        buf.clear();
        buf.push(b.insts()[0].inst, 1.0);
        buf.push(b.insts()[1].inst, 2.0).push(0);
        assert_eq!(buf.len(), 2);
        assert!(buf.insts()[0].deps.is_empty());
        assert_eq!(buf.insts()[1].deps, vec![0]);
        assert_eq!(buf.insts()[1].mt_dist, 2.0);
    }

    #[test]
    #[should_panic(expected = "empty body")]
    fn empty_root_panics() {
        let _ = Body::default().root();
    }
}
