//! Opcodes and opcode classification.

use std::fmt;

/// A PERI opcode.
///
/// The set follows the paper's Figure-1 listing (`lw`, `sll`, `addi`, `beq`,
/// `bge`, `j`, …) extended with the handful of operations the synthetic
/// workloads need (`mul`, logical ops, byte/doubleword memory ops).
///
/// Loads and stores come in three widths: byte (`Lb`/`Sb`), 32-bit word
/// (`Lw`/`Sw`, sign-extending), and 64-bit doubleword (`Ld`/`Sd`).
/// Registers are 64-bit throughout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    // Three-register ALU.
    /// `add rd, rs, rt` — `rd = rs + rt` (wrapping).
    Add,
    /// `sub rd, rs, rt` — `rd = rs - rt` (wrapping).
    Sub,
    /// `and rd, rs, rt` — bitwise AND.
    And,
    /// `or rd, rs, rt` — bitwise OR.
    Or,
    /// `xor rd, rs, rt` — bitwise XOR.
    Xor,
    /// `nor rd, rs, rt` — bitwise NOR.
    Nor,
    /// `sllv rd, rs, rt` — shift left logical by register amount (mod 64).
    Sllv,
    /// `srlv rd, rs, rt` — shift right logical by register amount (mod 64).
    Srlv,
    /// `slt rd, rs, rt` — `rd = (rs < rt) as signed`.
    Slt,
    /// `sltu rd, rs, rt` — `rd = (rs < rt) as unsigned`.
    Sltu,
    /// `mul rd, rs, rt` — low 64 bits of the signed product.
    Mul,

    // Immediate ALU.
    /// `addi rd, rs, imm` — `rd = rs + imm` (wrapping).
    Addi,
    /// `andi rd, rs, imm` — bitwise AND with immediate.
    Andi,
    /// `ori rd, rs, imm` — bitwise OR with immediate.
    Ori,
    /// `xori rd, rs, imm` — bitwise XOR with immediate.
    Xori,
    /// `sll rd, rs, imm` — shift left logical by immediate (mod 64).
    Sll,
    /// `srl rd, rs, imm` — shift right logical by immediate (mod 64).
    Srl,
    /// `sra rd, rs, imm` — shift right arithmetic by immediate (mod 64).
    Sra,
    /// `slti rd, rs, imm` — `rd = (rs < imm) as signed`.
    Slti,
    /// `li rd, imm` — load immediate.
    Li,
    /// `mov rd, rs` — register move (target of register-move elimination).
    Mov,

    // Memory.
    /// `lb rd, imm(rs)` — load sign-extended byte.
    Lb,
    /// `lbu rd, imm(rs)` — load zero-extended byte.
    Lbu,
    /// `lw rd, imm(rs)` — load sign-extended 32-bit word.
    Lw,
    /// `ld rd, imm(rs)` — load 64-bit doubleword.
    Ld,
    /// `sb rt, imm(rs)` — store low byte of `rt`.
    Sb,
    /// `sw rt, imm(rs)` — store low 32 bits of `rt`.
    Sw,
    /// `sd rt, imm(rs)` — store 64-bit `rt`.
    Sd,

    // Control.
    /// `beq rs, rt, target` — branch if equal.
    Beq,
    /// `bne rs, rt, target` — branch if not equal.
    Bne,
    /// `blt rs, rt, target` — branch if signed less-than.
    Blt,
    /// `bge rs, rt, target` — branch if signed greater-or-equal.
    Bge,
    /// `ble rs, rt, target` — branch if signed less-or-equal.
    Ble,
    /// `bgt rs, rt, target` — branch if signed greater-than.
    Bgt,
    /// `j target` — unconditional jump.
    J,
    /// `jal target` — jump and link (`r31 = pc + 1`).
    Jal,
    /// `jr rs` — jump to register.
    Jr,

    // Misc.
    /// `nop` — no operation.
    Nop,
    /// `halt` — stop the program.
    Halt,
}

/// Coarse classification of an opcode, used by the slicer, the SCDH model
/// and the timing simulator's scheduling logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer ALU operation (including `li`/`mov`).
    IntAlu,
    /// Integer multiply (longer latency).
    IntMul,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional jump (direct or indirect).
    Jump,
    /// `nop`/`halt`.
    Other,
}

impl Op {
    /// The opcode's class.
    ///
    /// ```
    /// use preexec_isa::{Op, OpClass};
    /// assert_eq!(Op::Lw.class(), OpClass::Load);
    /// assert_eq!(Op::Beq.class(), OpClass::Branch);
    /// ```
    pub fn class(self) -> OpClass {
        use Op::*;
        match self {
            Add | Sub | And | Or | Xor | Nor | Sllv | Srlv | Slt | Sltu | Addi | Andi | Ori
            | Xori | Sll | Srl | Sra | Slti | Li | Mov => OpClass::IntAlu,
            Mul => OpClass::IntMul,
            Lb | Lbu | Lw | Ld => OpClass::Load,
            Sb | Sw | Sd => OpClass::Store,
            Beq | Bne | Blt | Bge | Ble | Bgt => OpClass::Branch,
            J | Jal | Jr => OpClass::Jump,
            Nop | Halt => OpClass::Other,
        }
    }

    /// Whether this opcode reads memory.
    #[inline]
    pub fn is_load(self) -> bool {
        self.class() == OpClass::Load
    }

    /// Whether this opcode writes memory.
    #[inline]
    pub fn is_store(self) -> bool {
        self.class() == OpClass::Store
    }

    /// Whether this opcode is a conditional branch.
    #[inline]
    pub fn is_branch(self) -> bool {
        self.class() == OpClass::Branch
    }

    /// Access width in bytes for memory operations, `None` otherwise.
    pub fn mem_width(self) -> Option<u8> {
        use Op::*;
        match self {
            Lb | Lbu | Sb => Some(1),
            Lw | Sw => Some(4),
            Ld | Sd => Some(8),
            _ => None,
        }
    }

    /// Nominal execution latency in cycles, excluding any memory access.
    ///
    /// These are the unit latencies assumed by the paper's working example
    /// (all ops 1 cycle) except integer multiply, which is modeled at 3
    /// cycles as in the timing simulator. Loads add address generation plus
    /// cache access on top of this in the timing model; the SCDH analytical
    /// model uses [`Op::scdh_latency`] instead.
    pub fn exec_latency(self) -> u32 {
        match self.class() {
            OpClass::IntMul => 3,
            _ => 1,
        }
    }

    /// Latency used by the sequencing-constrained dataflow-height model.
    ///
    /// The paper's working example assumes unit latency for every operation
    /// (§3.1: "All operations have unit latency"); cache-miss latency is
    /// added separately by the model for the targeted load.
    pub fn scdh_latency(self) -> u32 {
        match self.class() {
            OpClass::IntMul => 3,
            _ => 1,
        }
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        use Op::*;
        match self {
            Add => "add",
            Sub => "sub",
            And => "and",
            Or => "or",
            Xor => "xor",
            Nor => "nor",
            Sllv => "sllv",
            Srlv => "srlv",
            Slt => "slt",
            Sltu => "sltu",
            Mul => "mul",
            Addi => "addi",
            Andi => "andi",
            Ori => "ori",
            Xori => "xori",
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            Slti => "slti",
            Li => "li",
            Mov => "mov",
            Lb => "lb",
            Lbu => "lbu",
            Lw => "lw",
            Ld => "ld",
            Sb => "sb",
            Sw => "sw",
            Sd => "sd",
            Beq => "beq",
            Bne => "bne",
            Blt => "blt",
            Bge => "bge",
            Ble => "ble",
            Bgt => "bgt",
            J => "j",
            Jal => "jal",
            Jr => "jr",
            Nop => "nop",
            Halt => "halt",
        }
    }

    /// Parses a mnemonic back into an opcode.
    pub fn from_mnemonic(s: &str) -> Option<Op> {
        use Op::*;
        Some(match s {
            "add" => Add,
            "sub" => Sub,
            "and" => And,
            "or" => Or,
            "xor" => Xor,
            "nor" => Nor,
            "sllv" => Sllv,
            "srlv" => Srlv,
            "slt" => Slt,
            "sltu" => Sltu,
            "mul" => Mul,
            "addi" => Addi,
            "andi" => Andi,
            "ori" => Ori,
            "xori" => Xori,
            "sll" => Sll,
            "srl" => Srl,
            "sra" => Sra,
            "slti" => Slti,
            "li" => Li,
            "mov" => Mov,
            "lb" => Lb,
            "lbu" => Lbu,
            "lw" => Lw,
            "ld" => Ld,
            "sb" => Sb,
            "sw" => Sw,
            "sd" => Sd,
            "beq" => Beq,
            "bne" => Bne,
            "blt" => Blt,
            "bge" => Bge,
            "ble" => Ble,
            "bgt" => Bgt,
            "j" => J,
            "jal" => Jal,
            "jr" => Jr,
            "nop" => Nop,
            "halt" => Halt,
            _ => return None,
        })
    }

    /// All opcodes, for exhaustive property tests.
    pub fn all() -> &'static [Op] {
        use Op::*;
        &[
            Add, Sub, And, Or, Xor, Nor, Sllv, Srlv, Slt, Sltu, Mul, Addi, Andi, Ori, Xori, Sll,
            Srl, Sra, Slti, Li, Mov, Lb, Lbu, Lw, Ld, Sb, Sw, Sd, Beq, Bne, Blt, Bge, Ble, Bgt, J,
            Jal, Jr, Nop, Halt,
        ]
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonic_round_trip() {
        for &op in Op::all() {
            assert_eq!(Op::from_mnemonic(op.mnemonic()), Some(op), "{op:?}");
        }
    }

    #[test]
    fn unknown_mnemonic() {
        assert_eq!(Op::from_mnemonic("frobnicate"), None);
        assert_eq!(Op::from_mnemonic(""), None);
    }

    #[test]
    fn classes() {
        assert_eq!(Op::Add.class(), OpClass::IntAlu);
        assert_eq!(Op::Mul.class(), OpClass::IntMul);
        assert_eq!(Op::Ld.class(), OpClass::Load);
        assert_eq!(Op::Sd.class(), OpClass::Store);
        assert_eq!(Op::Bne.class(), OpClass::Branch);
        assert_eq!(Op::Jr.class(), OpClass::Jump);
        assert_eq!(Op::Halt.class(), OpClass::Other);
    }

    #[test]
    fn memory_widths() {
        assert_eq!(Op::Lb.mem_width(), Some(1));
        assert_eq!(Op::Lw.mem_width(), Some(4));
        assert_eq!(Op::Sd.mem_width(), Some(8));
        assert_eq!(Op::Add.mem_width(), None);
    }

    #[test]
    fn control_predicates() {
        assert!(!Op::J.is_branch());
        assert!(Op::Bge.is_branch());
    }

    #[test]
    fn latencies() {
        assert_eq!(Op::Add.exec_latency(), 1);
        assert_eq!(Op::Mul.exec_latency(), 3);
        for &op in Op::all() {
            assert!(op.exec_latency() >= 1);
            assert!(op.scdh_latency() >= 1);
        }
    }
}
