//! Instructions: opcode plus operands, with def/use extraction.

use crate::{Op, OpClass, Pc, Reg};
use std::fmt;

/// A PERI instruction.
///
/// One fixed shape covers every opcode; fields that a given opcode does not
/// use are `None`/zero. Use the shape-specific constructors
/// ([`Inst::rtype`], [`Inst::itype`], [`Inst::load`], [`Inst::store`],
/// [`Inst::branch`], …) rather than building the struct by hand — they
/// enforce the operand shape each opcode expects.
///
/// # Example
///
/// ```
/// use preexec_isa::{Inst, Op, Reg};
///
/// // addi r7, r7, #drugs   (instruction #08 from the paper's Figure 1)
/// let i = Inst::itype(Op::Addi, Reg::new(7), Reg::new(7), 4096);
/// assert_eq!(i.def(), Some(Reg::new(7)));
/// assert_eq!(i.uses().collect::<Vec<_>>(), vec![Reg::new(7)]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// The opcode.
    pub op: Op,
    /// Destination register, if the instruction writes one.
    pub rd: Option<Reg>,
    /// First source register (the base register for memory ops).
    pub rs1: Option<Reg>,
    /// Second source register (the stored value for stores; the right-hand
    /// comparand for branches).
    pub rs2: Option<Reg>,
    /// Immediate operand or memory-offset, if any.
    pub imm: i64,
    /// Branch or jump target (an instruction index), if any.
    pub target: Option<Pc>,
}

impl Inst {
    /// Three-register ALU instruction: `op rd, rs, rt`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not an ALU-class opcode taking two register sources.
    pub fn rtype(op: Op, rd: Reg, rs: Reg, rt: Reg) -> Inst {
        assert!(
            matches!(
                op,
                Op::Add
                    | Op::Sub
                    | Op::And
                    | Op::Or
                    | Op::Xor
                    | Op::Nor
                    | Op::Sllv
                    | Op::Srlv
                    | Op::Slt
                    | Op::Sltu
                    | Op::Mul
            ),
            "{op} is not a three-register ALU opcode"
        );
        Inst {
            op,
            rd: Some(rd),
            rs1: Some(rs),
            rs2: Some(rt),
            imm: 0,
            target: None,
        }
    }

    /// Immediate ALU instruction: `op rd, rs, imm`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not an immediate ALU opcode.
    pub fn itype(op: Op, rd: Reg, rs: Reg, imm: i64) -> Inst {
        assert!(
            matches!(
                op,
                Op::Addi | Op::Andi | Op::Ori | Op::Xori | Op::Sll | Op::Srl | Op::Sra | Op::Slti
            ),
            "{op} is not an immediate ALU opcode"
        );
        Inst {
            op,
            rd: Some(rd),
            rs1: Some(rs),
            rs2: None,
            imm,
            target: None,
        }
    }

    /// Load instruction: `op rd, offset(base)`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a load.
    pub fn load(op: Op, rd: Reg, base: Reg, offset: i64) -> Inst {
        assert!(op.is_load(), "{op} is not a load");
        Inst {
            op,
            rd: Some(rd),
            rs1: Some(base),
            rs2: None,
            imm: offset,
            target: None,
        }
    }

    /// Store instruction: `op value, offset(base)`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a store.
    pub fn store(op: Op, value: Reg, base: Reg, offset: i64) -> Inst {
        assert!(op.is_store(), "{op} is not a store");
        Inst {
            op,
            rd: None,
            rs1: Some(base),
            rs2: Some(value),
            imm: offset,
            target: None,
        }
    }

    /// Conditional branch: `op rs, rt, target`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a conditional branch.
    pub fn branch(op: Op, rs: Reg, rt: Reg, target: Pc) -> Inst {
        assert!(op.is_branch(), "{op} is not a conditional branch");
        Inst {
            op,
            rd: None,
            rs1: Some(rs),
            rs2: Some(rt),
            imm: 0,
            target: Some(target),
        }
    }

    /// Direct jump: `j target` or `jal target`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is neither `J` nor `Jal`.
    pub fn jump(op: Op, target: Pc) -> Inst {
        assert!(matches!(op, Op::J | Op::Jal), "{op} is not a direct jump");
        let rd = if op == Op::Jal { Some(Reg::LINK) } else { None };
        Inst {
            op,
            rd,
            rs1: None,
            rs2: None,
            imm: 0,
            target: Some(target),
        }
    }

    /// Indirect jump: `jr rs`.
    pub fn jr(rs: Reg) -> Inst {
        Inst {
            op: Op::Jr,
            rd: None,
            rs1: Some(rs),
            rs2: None,
            imm: 0,
            target: None,
        }
    }

    /// Load immediate: `li rd, imm`.
    pub fn li(rd: Reg, imm: i64) -> Inst {
        Inst {
            op: Op::Li,
            rd: Some(rd),
            rs1: None,
            rs2: None,
            imm,
            target: None,
        }
    }

    /// Register move: `mov rd, rs`.
    pub fn mov(rd: Reg, rs: Reg) -> Inst {
        Inst {
            op: Op::Mov,
            rd: Some(rd),
            rs1: Some(rs),
            rs2: None,
            imm: 0,
            target: None,
        }
    }

    /// `nop`.
    pub fn nop() -> Inst {
        Inst {
            op: Op::Nop,
            rd: None,
            rs1: None,
            rs2: None,
            imm: 0,
            target: None,
        }
    }

    /// `halt`.
    pub fn halt() -> Inst {
        Inst {
            op: Op::Halt,
            rd: None,
            rs1: None,
            rs2: None,
            imm: 0,
            target: None,
        }
    }

    /// The register this instruction defines, if any.
    ///
    /// Writes to the hardwired-zero register are architectural no-ops and
    /// reported as `None`, so dependence tracking never chains through `r0`.
    #[inline]
    pub fn def(&self) -> Option<Reg> {
        match self.rd {
            Some(r) if !r.is_zero() => Some(r),
            _ => None,
        }
    }

    /// Iterates over the registers this instruction reads.
    ///
    /// The hardwired-zero register is excluded: it always reads as zero and
    /// never creates a data dependence.
    pub fn uses(&self) -> impl Iterator<Item = Reg> + '_ {
        [self.rs1, self.rs2]
            .into_iter()
            .flatten()
            .filter(|r| !r.is_zero())
    }

    /// The opcode's class (convenience for `self.op.class()`).
    #[inline]
    pub fn class(&self) -> OpClass {
        self.op.class()
    }
}

impl fmt::Display for Inst {
    /// Disassembles the instruction in assembler syntax, e.g.
    /// `lw r8, 0(r7)` or `bge r4, r1, 14`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.op.mnemonic();
        match self.op.class() {
            OpClass::Load => write!(
                f,
                "{m} {}, {}({})",
                self.rd.expect("load has rd"),
                self.imm,
                self.rs1.expect("load has base")
            ),
            OpClass::Store => write!(
                f,
                "{m} {}, {}({})",
                self.rs2.expect("store has value"),
                self.imm,
                self.rs1.expect("store has base")
            ),
            OpClass::Branch => write!(
                f,
                "{m} {}, {}, {}",
                self.rs1.expect("branch has rs"),
                self.rs2.expect("branch has rt"),
                self.target.expect("branch has target")
            ),
            OpClass::Jump => match self.op {
                Op::Jr => write!(f, "{m} {}", self.rs1.expect("jr has rs")),
                _ => write!(f, "{m} {}", self.target.expect("jump has target")),
            },
            OpClass::Other => f.write_str(m),
            _ => match self.op {
                Op::Li => write!(f, "{m} {}, {}", self.rd.expect("li has rd"), self.imm),
                Op::Mov => write!(
                    f,
                    "{m} {}, {}",
                    self.rd.expect("mov has rd"),
                    self.rs1.expect("mov has rs")
                ),
                Op::Add
                | Op::Sub
                | Op::And
                | Op::Or
                | Op::Xor
                | Op::Nor
                | Op::Sllv
                | Op::Srlv
                | Op::Slt
                | Op::Sltu
                | Op::Mul => write!(
                    f,
                    "{m} {}, {}, {}",
                    self.rd.expect("rtype has rd"),
                    self.rs1.expect("rtype has rs"),
                    self.rs2.expect("rtype has rt")
                ),
                _ => write!(
                    f,
                    "{m} {}, {}, {}",
                    self.rd.expect("itype has rd"),
                    self.rs1.expect("itype has rs"),
                    self.imm
                ),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_use_alu() {
        let i = Inst::rtype(Op::Add, Reg::new(9), Reg::new(9), Reg::new(8));
        assert_eq!(i.def(), Some(Reg::new(9)));
        let uses: Vec<Reg> = i.uses().collect();
        assert_eq!(uses, vec![Reg::new(9), Reg::new(8)]);
    }

    #[test]
    fn def_use_load_store() {
        let l = Inst::load(Op::Lw, Reg::new(8), Reg::new(7), 0);
        assert_eq!(l.def(), Some(Reg::new(8)));
        assert_eq!(l.uses().collect::<Vec<_>>(), vec![Reg::new(7)]);

        let s = Inst::store(Op::Sw, Reg::new(8), Reg::new(7), 4);
        assert_eq!(s.def(), None);
        assert_eq!(s.uses().collect::<Vec<_>>(), vec![Reg::new(7), Reg::new(8)]);
    }

    #[test]
    fn zero_register_creates_no_deps() {
        let i = Inst::rtype(Op::Add, Reg::ZERO, Reg::ZERO, Reg::new(3));
        assert_eq!(i.def(), None);
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![Reg::new(3)]);
    }

    #[test]
    fn jal_defines_link() {
        let i = Inst::jump(Op::Jal, 42);
        assert_eq!(i.def(), Some(Reg::LINK));
        assert_eq!(i.target, Some(42));
    }

    #[test]
    fn branch_operands() {
        let i = Inst::branch(Op::Bge, Reg::new(4), Reg::new(1), 14);
        assert_eq!(i.def(), None);
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![Reg::new(4), Reg::new(1)]);
        assert_eq!(i.target, Some(14));
    }

    #[test]
    fn display_matches_assembler_syntax() {
        assert_eq!(
            Inst::load(Op::Lw, Reg::new(8), Reg::new(7), 0).to_string(),
            "lw r8, 0(r7)"
        );
        assert_eq!(
            Inst::store(Op::Sd, Reg::new(2), Reg::new(3), -8).to_string(),
            "sd r2, -8(r3)"
        );
        assert_eq!(
            Inst::branch(Op::Beq, Reg::new(6), Reg::new(2), 11).to_string(),
            "beq r6, r2, 11"
        );
        assert_eq!(Inst::jump(Op::J, 0).to_string(), "j 0");
        assert_eq!(Inst::jr(Reg::new(31)).to_string(), "jr r31");
        assert_eq!(Inst::li(Reg::new(4), -3).to_string(), "li r4, -3");
        assert_eq!(
            Inst::mov(Reg::new(4), Reg::new(5)).to_string(),
            "mov r4, r5"
        );
        assert_eq!(
            Inst::itype(Op::Sll, Reg::new(7), Reg::new(7), 2).to_string(),
            "sll r7, r7, 2"
        );
        assert_eq!(Inst::nop().to_string(), "nop");
        assert_eq!(Inst::halt().to_string(), "halt");
    }

    #[test]
    #[should_panic(expected = "not a load")]
    fn load_ctor_validates() {
        let _ = Inst::load(Op::Sw, Reg::new(1), Reg::new(2), 0);
    }

    #[test]
    #[should_panic(expected = "not a conditional branch")]
    fn branch_ctor_validates() {
        let _ = Inst::branch(Op::J, Reg::new(1), Reg::new(2), 0);
    }
}
