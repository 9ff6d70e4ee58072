//! Dynamic instruction records — the unit of the execution trace.

use preexec_isa::{Inst, Pc};
use preexec_mem::MemLevel;

/// One retired dynamic instruction.
///
/// This is the record the tracer hands to its sink for every instruction
/// it executes. It carries everything the backward
/// slicer and the statistics collector need: the static identity (`pc`,
/// `inst`), the dynamic sequence number (`seq`, counted over emitted
/// instructions), and for memory operations, the effective address and the
/// hierarchy level that serviced the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInst {
    /// Position in the emitted dynamic instruction stream (0-based).
    pub seq: u64,
    /// Static PC of the instruction.
    pub pc: Pc,
    /// The static instruction itself (copied for sink convenience).
    pub inst: Inst,
    /// Effective address, for loads and stores.
    pub addr: Option<u64>,
    /// Which level serviced the access, for loads and stores.
    pub level: Option<MemLevel>,
    /// For conditional branches: whether the branch was taken.
    pub taken: bool,
    /// The value written to the destination register, if any (used by
    /// p-thread seed-value extraction and by debugging tools).
    pub result: i64,
}

impl DynInst {
    /// Whether this record is a load that missed the L2.
    pub fn is_l2_miss_load(&self) -> bool {
        self.inst.op.is_load() && self.level == Some(MemLevel::Memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_isa::{Op, Reg};

    #[test]
    fn l2_miss_predicate() {
        let load = Inst::load(Op::Ld, Reg::new(1), Reg::new(2), 0);
        let mut d = DynInst {
            seq: 0,
            pc: 0,
            inst: load,
            addr: Some(0x100),
            level: Some(MemLevel::Memory),
            taken: false,
            result: 0,
        };
        assert!(d.is_l2_miss_load());
        d.level = Some(MemLevel::L2);
        assert!(!d.is_l2_miss_load());
        d.inst = Inst::store(Op::Sd, Reg::new(1), Reg::new(2), 0);
        d.level = Some(MemLevel::Memory);
        assert!(!d.is_l2_miss_load()); // stores never count
    }
}
