//! Programs: an instruction sequence plus initialized data segments.

use crate::{Inst, Pc};
use std::fmt;

/// A contiguous block of initialized memory, loaded before execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSegment {
    /// Base byte address of the segment.
    pub base: u64,
    /// The segment's initial contents.
    pub bytes: Vec<u8>,
}

impl DataSegment {
    /// Creates a segment at `base` with the given contents.
    pub fn new(base: u64, bytes: Vec<u8>) -> DataSegment {
        DataSegment { base, bytes }
    }

    /// The exclusive end address of the segment.
    pub fn end(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }
}

/// A complete PERI program: code, initialized data, and an entry point.
///
/// Instructions are addressed by index ([`Pc`]); execution starts at
/// [`Program::entry`] and ends when a `halt` retires (or when the driver's
/// instruction budget runs out).
///
/// # Example
///
/// ```
/// use preexec_isa::{Inst, Program, Reg};
///
/// let mut p = Program::new("tiny");
/// p.push(Inst::li(Reg::new(1), 7));
/// p.push(Inst::halt());
/// p.add_data(0x1000, vec![1, 2, 3, 4]);
/// assert_eq!(p.len(), 2);
/// assert_eq!(p.data_segments()[0].end(), 0x1004);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    name: String,
    insts: Vec<Inst>,
    data: Vec<DataSegment>,
}

impl Program {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>) -> Program {
        Program {
            name: name.into(),
            insts: Vec::new(),
            data: Vec::new(),
        }
    }

    /// The program's name (used in experiment reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The entry PC: execution starts at the first instruction.
    pub fn entry(&self) -> Pc {
        0
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Appends an instruction, returning its PC.
    pub fn push(&mut self, inst: Inst) -> Pc {
        let pc = self.insts.len() as Pc;
        self.insts.push(inst);
        pc
    }

    /// The instruction at `pc`, or `None` if out of range.
    #[inline]
    pub fn get(&self, pc: Pc) -> Option<&Inst> {
        self.insts.get(pc as usize)
    }

    /// The instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[inline]
    pub fn inst(&self, pc: Pc) -> &Inst {
        &self.insts[pc as usize]
    }

    /// All instructions in PC order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Adds an initialized data segment.
    ///
    /// Segments may not overlap; this is validated here so that loaders can
    /// apply them in any order.
    ///
    /// # Panics
    ///
    /// Panics if the new segment overlaps an existing one.
    pub fn add_data(&mut self, base: u64, bytes: Vec<u8>) {
        let new = DataSegment::new(base, bytes);
        for seg in &self.data {
            let overlap = new.base < seg.end() && seg.base < new.end();
            assert!(
                !overlap,
                "data segment [{:#x},{:#x}) overlaps existing [{:#x},{:#x})",
                new.base,
                new.end(),
                seg.base,
                seg.end()
            );
        }
        self.data.push(new);
    }

    /// The program's initialized data segments.
    pub fn data_segments(&self) -> &[DataSegment] {
        &self.data
    }

    /// Validates internal consistency: every branch/jump target is in range.
    ///
    /// # Errors
    ///
    /// Returns the PC of the first instruction with an out-of-range target.
    pub fn validate(&self) -> Result<(), Pc> {
        for (pc, inst) in self.insts.iter().enumerate() {
            if let Some(t) = inst.target {
                if (t as usize) >= self.insts.len() {
                    return Err(pc as Pc);
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    /// Disassembles the whole program, one instruction per line with PCs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "; program `{}` ({} instructions)",
            self.name,
            self.insts.len()
        )?;
        for (pc, inst) in self.insts.iter().enumerate() {
            writeln!(f, "#{pc:02}: {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Op, Reg};

    fn two_inst_program() -> Program {
        let mut p = Program::new("t");
        p.push(Inst::li(Reg::new(1), 1));
        p.push(Inst::halt());
        p
    }

    #[test]
    fn push_returns_sequential_pcs() {
        let mut p = Program::new("t");
        assert_eq!(p.push(Inst::nop()), 0);
        assert_eq!(p.push(Inst::nop()), 1);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn get_and_inst() {
        let p = two_inst_program();
        assert_eq!(p.get(0).unwrap().op, Op::Li);
        assert_eq!(p.inst(1).op, Op::Halt);
        assert!(p.get(2).is_none());
    }

    #[test]
    fn validate_catches_bad_target() {
        let mut p = two_inst_program();
        p.push(Inst::jump(Op::J, 99));
        assert_eq!(p.validate(), Err(2));
    }

    #[test]
    fn validate_ok() {
        let mut p = two_inst_program();
        p.push(Inst::jump(Op::J, 0));
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_data_rejected() {
        let mut p = Program::new("t");
        p.add_data(0x100, vec![0; 16]);
        p.add_data(0x108, vec![0; 16]);
    }

    #[test]
    fn adjacent_data_ok() {
        let mut p = Program::new("t");
        p.add_data(0x100, vec![0; 16]);
        p.add_data(0x110, vec![0; 16]);
        assert_eq!(p.data_segments().len(), 2);
    }

    #[test]
    fn display_includes_pcs() {
        let p = two_inst_program();
        let text = p.to_string();
        assert!(text.contains("#00: li r1, 1"));
        assert!(text.contains("#01: halt"));
    }
}
