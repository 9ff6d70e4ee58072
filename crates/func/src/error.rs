//! Typed errors for functional execution.
//!
//! Pre-execution is speculative by construction: p-threads run ahead of
//! the committed program on possibly-stale state, so every fault that the
//! interpreter can encounter must be representable as a value rather than
//! a panic. `ExecError` is that representation for the functional layer;
//! the timing simulator maps these same faults to squashes (see
//! `preexec_timing`).

use preexec_isa::{Op, Pc};
use std::error::Error;
use std::fmt;

/// A fault raised by the functional execution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// An ALU evaluation was requested for a non-ALU opcode.
    NotAlu(Op),
    /// A branch evaluation was requested for a non-branch opcode.
    NotBranch(Op),
    /// A halted CPU was stepped.
    CpuHalted,
    /// An instruction's encoding is inconsistent with its opcode class
    /// (e.g. an ALU op without a destination register).
    Malformed {
        /// PC of the offending instruction.
        pc: Pc,
        /// What was missing or inconsistent.
        reason: &'static str,
    },
    /// The architectural step budget was exhausted before the program
    /// halted (watchdog).
    StepBudgetExhausted {
        /// The configured budget that ran out.
        budget: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::NotAlu(op) => write!(f, "{op} is not an ALU opcode"),
            ExecError::NotBranch(op) => write!(f, "{op} is not a conditional branch"),
            ExecError::CpuHalted => write!(f, "stepping a halted CPU"),
            ExecError::Malformed { pc, reason } => {
                write!(f, "malformed instruction at pc {pc}: {reason}")
            }
            ExecError::StepBudgetExhausted { budget } => {
                write!(
                    f,
                    "step budget of {budget} exhausted before halt (watchdog)"
                )
            }
        }
    }
}

impl Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_fault() {
        assert!(ExecError::NotAlu(Op::Lw).to_string().contains("not an ALU"));
        assert!(ExecError::NotBranch(Op::J)
            .to_string()
            .contains("not a conditional branch"));
        assert!(ExecError::CpuHalted.to_string().contains("halted"));
        assert!(ExecError::Malformed {
            pc: 3,
            reason: "no rd"
        }
        .to_string()
        .contains("pc 3"));
        assert!(ExecError::StepBudgetExhausted { budget: 10 }
            .to_string()
            .contains("watchdog"));
    }
}
