//! Pure operation semantics, shared by the functional simulator, the
//! timing simulator's execution stage, and the p-thread interpreter.
//!
//! Each operation has a fallible form (`try_alu`, `try_branch_taken`) that
//! returns a typed [`ExecError`] on a class mismatch — the form speculative
//! paths (the p-thread sandbox) must use — and an infallible fast-path
//! wrapper (`alu`, `branch_taken`) for callers that have already matched on
//! the opcode class.

use crate::ExecError;
use preexec_isa::Op;

/// Computes the result of an ALU operation.
///
/// `a` is the first source (`rs1`), `b` the second (`rs2` for r-type ops),
/// and `imm` the immediate (i-type ops). Exactly one of `b`/`imm` is
/// meaningful per opcode; passing zero for the unused one is conventional.
///
/// # Errors
///
/// Returns [`ExecError::NotAlu`] if `op` is not an ALU-class opcode.
#[inline]
pub fn try_alu(op: Op, a: i64, b: i64, imm: i64) -> Result<i64, ExecError> {
    use Op::*;
    Ok(match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        Nor => !(a | b),
        Sllv => ((a as u64) << (b as u64 & 63)) as i64,
        Srlv => ((a as u64) >> (b as u64 & 63)) as i64,
        Slt => (a < b) as i64,
        Sltu => ((a as u64) < (b as u64)) as i64,
        Mul => a.wrapping_mul(b),
        Addi => a.wrapping_add(imm),
        Andi => a & imm,
        Ori => a | imm,
        Xori => a ^ imm,
        Sll => ((a as u64) << (imm as u64 & 63)) as i64,
        Srl => ((a as u64) >> (imm as u64 & 63)) as i64,
        Sra => a >> (imm as u64 & 63),
        Slti => (a < imm) as i64,
        Li => imm,
        Mov => a,
        _ => return Err(ExecError::NotAlu(op)),
    })
}

/// Infallible [`try_alu`] for callers that already matched the class.
///
/// # Panics
///
/// Panics if `op` is not an ALU-class opcode.
#[inline]
pub fn alu(op: Op, a: i64, b: i64, imm: i64) -> i64 {
    match try_alu(op, a, b, imm) {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// Evaluates a conditional branch: does `op` with sources `a`, `b` take?
///
/// # Errors
///
/// Returns [`ExecError::NotBranch`] if `op` is not a conditional branch.
#[inline]
pub fn try_branch_taken(op: Op, a: i64, b: i64) -> Result<bool, ExecError> {
    use Op::*;
    Ok(match op {
        Beq => a == b,
        Bne => a != b,
        Blt => a < b,
        Bge => a >= b,
        Ble => a <= b,
        Bgt => a > b,
        _ => return Err(ExecError::NotBranch(op)),
    })
}

/// Infallible [`try_branch_taken`] for callers that already matched the
/// class.
///
/// # Panics
///
/// Panics if `op` is not a conditional branch.
#[inline]
pub fn branch_taken(op: Op, a: i64, b: i64) -> bool {
    match try_branch_taken(op, a, b) {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// Computes the effective address of a memory operation.
#[inline]
pub fn effective_address(base: i64, offset: i64) -> u64 {
    base.wrapping_add(offset) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        assert_eq!(alu(Op::Add, 2, 3, 0), 5);
        assert_eq!(alu(Op::Sub, 2, 3, 0), -1);
        assert_eq!(alu(Op::Mul, -4, 3, 0), -12);
        assert_eq!(alu(Op::Add, i64::MAX, 1, 0), i64::MIN); // wrapping
    }

    #[test]
    fn logic() {
        assert_eq!(alu(Op::And, 0b1100, 0b1010, 0), 0b1000);
        assert_eq!(alu(Op::Or, 0b1100, 0b1010, 0), 0b1110);
        assert_eq!(alu(Op::Xor, 0b1100, 0b1010, 0), 0b0110);
        assert_eq!(alu(Op::Nor, 0, 0, 0), -1);
    }

    #[test]
    fn shifts() {
        assert_eq!(alu(Op::Sll, 1, 0, 4), 16);
        assert_eq!(alu(Op::Srl, -1, 0, 60), 15); // logical
        assert_eq!(alu(Op::Sra, -16, 0, 2), -4); // arithmetic
        assert_eq!(alu(Op::Sllv, 1, 5, 0), 32);
        assert_eq!(alu(Op::Sll, 1, 0, 64), 1); // shift amount mod 64
    }

    #[test]
    fn comparisons() {
        assert_eq!(alu(Op::Slt, -1, 1, 0), 1);
        assert_eq!(alu(Op::Sltu, -1, 1, 0), 0); // unsigned: -1 is huge
        assert_eq!(alu(Op::Slti, 3, 0, 5), 1);
    }

    #[test]
    fn moves() {
        assert_eq!(alu(Op::Li, 0, 0, 42), 42);
        assert_eq!(alu(Op::Mov, 7, 0, 0), 7);
    }

    #[test]
    fn branches() {
        assert!(branch_taken(Op::Beq, 1, 1));
        assert!(!branch_taken(Op::Beq, 1, 2));
        assert!(branch_taken(Op::Bne, 1, 2));
        assert!(branch_taken(Op::Blt, -5, 0));
        assert!(branch_taken(Op::Bge, 0, 0));
        assert!(branch_taken(Op::Ble, 0, 0));
        assert!(branch_taken(Op::Bgt, 1, 0));
        assert!(!branch_taken(Op::Bgt, 0, 0));
    }

    #[test]
    fn addressing() {
        assert_eq!(effective_address(0x1000, 8), 0x1008);
        assert_eq!(effective_address(0x1000, -8), 0xff8);
    }

    #[test]
    #[should_panic(expected = "not an ALU opcode")]
    fn alu_rejects_non_alu() {
        let _ = alu(Op::Lw, 0, 0, 0);
    }

    #[test]
    #[should_panic(expected = "not a conditional branch")]
    fn branch_rejects_non_branch() {
        let _ = branch_taken(Op::J, 0, 0);
    }

    #[test]
    fn try_forms_return_typed_errors() {
        assert_eq!(try_alu(Op::Lw, 0, 0, 0), Err(ExecError::NotAlu(Op::Lw)));
        assert_eq!(
            try_branch_taken(Op::J, 0, 0),
            Err(ExecError::NotBranch(Op::J))
        );
        assert_eq!(try_alu(Op::Add, 2, 3, 0), Ok(5));
        assert_eq!(try_branch_taken(Op::Beq, 1, 1), Ok(true));
    }
}
