//! Pure operation semantics, shared by the functional simulator's CPU and
//! the timing simulator's p-thread injection.
//!
//! Every operation reports a misused opcode instead of panicking:
//! [`try_alu`] and [`try_branch_taken`] return a typed [`ExecError`], and
//! [`load_value`] returns `None` for an opcode that is not a load. The main
//! thread turns these into errors, a p-thread into a squash.

use crate::ExecError;
use preexec_isa::Op;
use preexec_mem::MemBus;

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

/// Computes the effective address of a memory operation.
#[inline]
pub fn effective_address(base: i64, offset: i64) -> u64 {
    base.wrapping_add(offset) as u64
}

/// Reads the value a load `op` returns from `addr`: the bytes of its
/// width, sign- or zero-extended to 64 bits.
///
/// Returns `None` if `op` is not a load.
#[inline]
pub fn load_value<M: MemBus + ?Sized>(mem: &M, op: Op, addr: u64) -> Option<i64> {
    Some(match op {
        Op::Lb => mem.read_u8(addr) as i8 as i64,
        Op::Lbu => mem.read_u8(addr) as i64,
        Op::Lw => mem.read_u32(addr) as i32 as i64,
        Op::Ld => mem.read_u64(addr) as i64,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_mem::Memory;

    #[test]
    fn arithmetic() {
        assert_eq!(try_alu(Op::Add, 2, 3, 0), Ok(5));
        assert_eq!(try_alu(Op::Sub, 2, 3, 0), Ok(-1));
        assert_eq!(try_alu(Op::Mul, -4, 3, 0), Ok(-12));
        assert_eq!(try_alu(Op::Add, i64::MAX, 1, 0), Ok(i64::MIN)); // wrapping
    }

    #[test]
    fn logic() {
        assert_eq!(try_alu(Op::And, 0b1100, 0b1010, 0), Ok(0b1000));
        assert_eq!(try_alu(Op::Or, 0b1100, 0b1010, 0), Ok(0b1110));
        assert_eq!(try_alu(Op::Xor, 0b1100, 0b1010, 0), Ok(0b0110));
        assert_eq!(try_alu(Op::Nor, 0, 0, 0), Ok(-1));
    }

    #[test]
    fn shifts() {
        assert_eq!(try_alu(Op::Sll, 1, 0, 4), Ok(16));
        assert_eq!(try_alu(Op::Srl, -1, 0, 60), Ok(15)); // logical
        assert_eq!(try_alu(Op::Sra, -16, 0, 2), Ok(-4)); // arithmetic
        assert_eq!(try_alu(Op::Sllv, 1, 5, 0), Ok(32));
        assert_eq!(try_alu(Op::Sll, 1, 0, 64), Ok(1)); // shift amount mod 64
    }

    #[test]
    fn comparisons() {
        assert_eq!(try_alu(Op::Slt, -1, 1, 0), Ok(1));
        assert_eq!(try_alu(Op::Sltu, -1, 1, 0), Ok(0)); // unsigned: -1 is huge
        assert_eq!(try_alu(Op::Slti, 3, 0, 5), Ok(1));
    }

    #[test]
    fn moves() {
        assert_eq!(try_alu(Op::Li, 0, 0, 42), Ok(42));
        assert_eq!(try_alu(Op::Mov, 7, 0, 0), Ok(7));
    }

    #[test]
    fn branches() {
        assert_eq!(try_branch_taken(Op::Beq, 1, 1), Ok(true));
        assert_eq!(try_branch_taken(Op::Beq, 1, 2), Ok(false));
        assert_eq!(try_branch_taken(Op::Bne, 1, 2), Ok(true));
        assert_eq!(try_branch_taken(Op::Blt, -5, 0), Ok(true));
        assert_eq!(try_branch_taken(Op::Bge, 0, 0), Ok(true));
        assert_eq!(try_branch_taken(Op::Ble, 0, 0), Ok(true));
        assert_eq!(try_branch_taken(Op::Bgt, 1, 0), Ok(true));
        assert_eq!(try_branch_taken(Op::Bgt, 0, 0), Ok(false));
    }

    #[test]
    fn addressing() {
        assert_eq!(effective_address(0x1000, 8), 0x1008);
        assert_eq!(effective_address(0x1000, -8), 0xff8);
    }

    #[test]
    fn try_forms_return_typed_errors() {
        assert_eq!(try_alu(Op::Lw, 0, 0, 0), Err(ExecError::NotAlu(Op::Lw)));
        assert_eq!(
            try_branch_taken(Op::J, 0, 0),
            Err(ExecError::NotBranch(Op::J))
        );
        assert_eq!(load_value(&Memory::new(), Op::Sd, 0), None);
    }
}
