//! PERI — the **P**re-**E**xecution **RI**SC instruction set.
//!
//! This crate defines the small RISC ISA used throughout the pre-execution
//! thread-selection framework: registers, opcodes, instructions, programs
//! (code plus initialized data), a text assembler, a programmatic builder,
//! and a disassembler.
//!
//! The ISA is modeled on the MIPS/Alpha-flavored listing in Figure 1 of
//! Roth & Sohi, *A Quantitative Framework for Automated Pre-Execution
//! Thread Selection* (2002). It is deliberately simple: 32 architectural
//! registers (plus 32 assembler temporaries available to generated p-thread
//! bodies), a load/store architecture, and instruction-index program
//! counters. Everything downstream — the functional simulator, the slicer,
//! the aggregate-advantage model and the timing simulator — consumes these
//! types.
//!
//! # Example
//!
//! ```
//! use preexec_isa::assemble;
//!
//! let program = assemble(
//!     "sum_loop",
//!     r#"
//!         li   r4, 0          # i = 0
//!         li   r9, 0          # sum = 0
//!     loop:
//!         bge  r4, r1, done
//!         ld   r8, 0(r5)      # load element
//!         add  r9, r9, r8
//!         addi r5, r5, 8
//!         addi r4, r4, 1
//!         j    loop
//!     done:
//!         halt
//!     "#,
//! ).unwrap();
//! assert_eq!(program.len(), 9);
//! ```

#![forbid(unsafe_code)]

pub mod asm;
pub mod builder;
pub mod error;
pub mod inst;
pub mod op;
pub mod program;
pub mod reg;

pub use asm::{assemble, AsmError};
pub use builder::{BuildError, ProgramBuilder};
pub use error::IsaError;
pub use inst::Inst;
pub use op::{Op, OpClass};
pub use program::{DataSegment, Program};
pub use reg::Reg;

/// A program counter: the index of an instruction within a [`Program`].
///
/// PERI programs address instructions by index rather than by byte address;
/// one instruction occupies one PC slot. This keeps every downstream
/// component (tracer, slicer, slice tree, timing simulator) free of
/// instruction-encoding concerns without losing anything the framework
/// cares about.
pub type Pc = u32;
