//! The architectural CPU: register state plus a single-step interpreter.

use crate::{exec, ExecError};
use preexec_isa::reg::NUM_REGS;
use preexec_isa::{Inst, Op, OpClass, Pc, Program, Reg};
use preexec_mem::MemBus;

/// The architectural outcome of stepping one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// PC of the instruction that executed.
    pub pc: Pc,
    /// The instruction that executed.
    pub inst: Inst,
    /// Effective address, for memory operations.
    pub addr: Option<u64>,
    /// Whether a conditional branch was taken.
    pub taken: bool,
    /// Value written to the destination register (0 if none).
    pub result: i64,
    /// Whether the instruction was `halt`.
    pub halted: bool,
}

/// Architectural CPU state: 64 registers (32 architectural + 32 merge
/// temporaries) and a program counter.
///
/// The CPU interprets one instruction per [`Cpu::try_step`] against a
/// [`MemBus`], usually a [`Memory`](preexec_mem::Memory). It performs no
/// timing and no cache classification — the tracer layers those on top.
///
/// # Example
///
/// ```
/// use preexec_func::Cpu;
/// use preexec_isa::assemble;
/// use preexec_mem::Memory;
///
/// let p = assemble("t", "li r1, 2\nli r2, 3\nadd r3, r1, r2\nhalt").unwrap();
/// let mut cpu = Cpu::new(&p);
/// let mut mem = Memory::new();
/// while !cpu.halted() {
///     cpu.try_step(&p, &mut mem).unwrap();
/// }
/// assert_eq!(cpu.reg(preexec_isa::Reg::new(3)), 5);
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [i64; NUM_REGS],
    pc: Pc,
    halted: bool,
}

impl Cpu {
    /// Creates a CPU positioned at the program's entry with zeroed registers.
    pub fn new(program: &Program) -> Cpu {
        Cpu {
            regs: [0; NUM_REGS],
            pc: program.entry(),
            halted: false,
        }
    }

    /// The current PC.
    pub fn pc(&self) -> Pc {
        self.pc
    }

    /// Whether a `halt` has retired (or the PC ran off the end of the code).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Reads a register. `r0` always reads zero.
    #[inline]
    pub fn reg(&self, r: Reg) -> i64 {
        self.regs[r.index()]
    }

    /// Writes a register. Writes to `r0` are discarded.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: i64) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// A snapshot of the full register file — used to seed p-thread
    /// contexts with main-thread values at launch.
    pub fn snapshot_regs(&self) -> [i64; NUM_REGS] {
        self.regs
    }

    /// Executes the instruction at the current PC, returning a typed error
    /// instead of panicking on a halted CPU or a malformed instruction.
    ///
    /// Memory operations read/write `mem` architecturally; the caller is
    /// responsible for any cache classification (see the tracer). The bus
    /// is generic so the normal tracer (backed by [`preexec_mem::Memory`])
    /// and the checkpoint replayer (backed by a copy-on-write overlay)
    /// execute exactly the same interpreter — determinism of replay
    /// cannot drift from the interpreter it replays.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::CpuHalted`] if the CPU has already halted, and
    /// [`ExecError::Malformed`] if the instruction's operands are
    /// inconsistent with its opcode class (which cannot happen for
    /// instructions built through [`preexec_isa`]'s constructors, but can
    /// for hand-assembled or corrupted ones).
    pub fn try_step<M: MemBus>(
        &mut self,
        program: &Program,
        mem: &mut M,
    ) -> Result<StepOutcome, ExecError> {
        if self.halted {
            return Err(ExecError::CpuHalted);
        }
        let pc = self.pc;
        let malformed = |reason| ExecError::Malformed { pc, reason };
        let inst = match program.get(pc) {
            Some(i) => *i,
            None => {
                // Running off the end of the code behaves as halt.
                self.halted = true;
                return Ok(StepOutcome {
                    pc,
                    inst: Inst::halt(),
                    addr: None,
                    taken: false,
                    result: 0,
                    halted: true,
                });
            }
        };

        let mut next_pc = pc + 1;
        let mut addr = None;
        let mut taken = false;
        let mut result = 0i64;

        match inst.class() {
            OpClass::IntAlu | OpClass::IntMul => {
                let a = inst.rs1.map_or(0, |r| self.reg(r));
                let b = inst.rs2.map_or(0, |r| self.reg(r));
                result = exec::try_alu(inst.op, a, b, inst.imm)?;
                let rd = inst.rd.ok_or(malformed("ALU op without rd"))?;
                self.set_reg(rd, result);
            }
            OpClass::Load => {
                let base = self.reg(inst.rs1.ok_or(malformed("load without base"))?);
                let ea = exec::effective_address(base, inst.imm);
                addr = Some(ea);
                result =
                    exec::load_value(mem, inst.op, ea).ok_or(malformed("unknown load width"))?;
                let rd = inst.rd.ok_or(malformed("load without rd"))?;
                self.set_reg(rd, result);
            }
            OpClass::Store => {
                let base = self.reg(inst.rs1.ok_or(malformed("store without base"))?);
                let value = self.reg(inst.rs2.ok_or(malformed("store without value"))?);
                let ea = exec::effective_address(base, inst.imm);
                addr = Some(ea);
                match inst.op {
                    Op::Sb => mem.write_u8(ea, value as u8),
                    Op::Sw => mem.write_u32(ea, value as u32),
                    Op::Sd => mem.write_u64(ea, value as u64),
                    _ => return Err(malformed("unknown store width")),
                }
            }
            OpClass::Branch => {
                let a = self.reg(inst.rs1.ok_or(malformed("branch without rs"))?);
                let b = self.reg(inst.rs2.ok_or(malformed("branch without rt"))?);
                taken = exec::try_branch_taken(inst.op, a, b)?;
                if taken {
                    next_pc = inst.target.ok_or(malformed("branch without target"))?;
                }
            }
            OpClass::Jump => match inst.op {
                Op::J => next_pc = inst.target.ok_or(malformed("jump without target"))?,
                Op::Jal => {
                    result = (pc + 1) as i64;
                    self.set_reg(Reg::LINK, result);
                    next_pc = inst.target.ok_or(malformed("jump without target"))?;
                }
                Op::Jr => {
                    next_pc = self.reg(inst.rs1.ok_or(malformed("jr without rs"))?) as Pc;
                }
                _ => return Err(malformed("unknown jump form")),
            },
            OpClass::Other => {
                if inst.op == Op::Halt {
                    self.halted = true;
                }
            }
        }

        self.pc = next_pc;
        Ok(StepOutcome {
            pc,
            inst,
            addr,
            taken,
            result,
            halted: self.halted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_isa::assemble;
    use preexec_mem::Memory;

    /// Runs `p` to completion from its initial memory image.
    fn run_program(p: &Program) -> (Cpu, Memory<'_>) {
        let mut cpu = Cpu::new(p);
        let mut mem = Memory::from_program(p);
        let mut steps = 0;
        while !cpu.halted() {
            cpu.try_step(p, &mut mem).unwrap();
            steps += 1;
            assert!(steps < 100_000, "runaway program");
        }
        (cpu, mem)
    }

    fn run(src: &str) -> Cpu {
        run_program(&assemble("t", src).unwrap()).0
    }

    #[test]
    fn arithmetic_program() {
        let cpu = run("li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt");
        assert_eq!(cpu.reg(Reg::new(3)), 42);
    }

    #[test]
    fn loop_with_branch() {
        let cpu = run("li r1, 10\nli r2, 0\nli r3, 0\n\
             top: bge r2, r1, done\n add r3, r3, r2\n addi r2, r2, 1\n j top\n\
             done: halt");
        assert_eq!(cpu.reg(Reg::new(3)), 45); // 0+1+...+9
    }

    #[test]
    fn loads_and_stores() {
        let p = assemble(
            "t",
            "li r1, 0x100\nli r2, -1\nsd r2, 0(r1)\nld r3, 0(r1)\n\
             sw r2, 8(r1)\nlw r4, 8(r1)\nsb r2, 16(r1)\nlbu r5, 16(r1)\nlb r6, 16(r1)\nhalt",
        )
        .unwrap();
        let (cpu, mem) = run_program(&p);
        assert_eq!(cpu.reg(Reg::new(3)), -1);
        assert_eq!(cpu.reg(Reg::new(4)), -1); // lw sign-extends
        assert_eq!(cpu.reg(Reg::new(5)), 255); // lbu zero-extends
        assert_eq!(cpu.reg(Reg::new(6)), -1); // lb sign-extends
        assert_eq!(mem.read_u64(0x100), u64::MAX);
    }

    #[test]
    fn a_run_holds_only_the_granules_it_stores_to() {
        // Two pages of data, read from end to end: nothing is held.
        let mut p = assemble(
            "t",
            "li r1, 0x10000\nli r2, 0x12000\nli r3, 0\n\
             top: bge r1, r2, done\n ld r4, 0(r1)\n add r3, r3, r4\n addi r1, r1, 8\n j top\n\
             done: halt",
        )
        .unwrap();
        p.add_data(0x10000, (0..8192).map(|i| (i % 7) as u8).collect());
        let (cpu, mem) = run_program(&p);
        assert!(cpu.reg(Reg::new(3)) != 0);
        assert_eq!(mem.written_bytes(), 0);

        // One store into the data holds its granule and a bitmap of the
        // segment's 1 024 granules, not a copy of its page.
        let mut p = assemble(
            "t",
            "li r1, 0x10ff8\nli r2, 7\nsd r2, 0(r1)\nld r3, 8(r1)\nhalt",
        )
        .unwrap();
        p.add_data(0x10000, vec![9; 8192]);
        let (cpu, mem) = run_program(&p);
        assert!(mem.written_bytes() > 0);
        assert!(mem.written_bytes() < 512, "{} bytes", mem.written_bytes());
        assert_eq!(mem.read_u64(0x10ff8), 7);
        assert_eq!(cpu.reg(Reg::new(3)), 0x0909_0909_0909_0909);
    }

    #[test]
    fn jal_and_jr() {
        let cpu = run("jal sub\n li r2, 99\n halt\n\
             sub: li r1, 5\n jr r31");
        assert_eq!(cpu.reg(Reg::new(1)), 5);
        assert_eq!(cpu.reg(Reg::new(2)), 99); // returned and continued
    }

    #[test]
    fn r0_stays_zero() {
        let cpu = run("li r0, 7\nadd r0, r0, r0\nhalt");
        assert_eq!(cpu.reg(Reg::ZERO), 0);
    }

    #[test]
    fn running_off_the_end_halts() {
        let p = assemble("t", "nop").unwrap();
        let mut cpu = Cpu::new(&p);
        let mut mem = Memory::new();
        cpu.try_step(&p, &mut mem).unwrap();
        let out = cpu.try_step(&p, &mut mem).unwrap();
        assert!(out.halted);
        assert!(cpu.halted());
    }

    #[test]
    fn step_outcome_reports_address() {
        let p = assemble("t", "li r1, 0x40\nld r2, 8(r1)\nhalt").unwrap();
        let mut cpu = Cpu::new(&p);
        let mut mem = Memory::new();
        cpu.try_step(&p, &mut mem).unwrap();
        let out = cpu.try_step(&p, &mut mem).unwrap();
        assert_eq!(out.addr, Some(0x48));
    }

    #[test]
    fn branch_taken_flag() {
        let p = assemble("t", "li r1, 1\nbeq r1, r1, 3\nnop\nhalt").unwrap();
        let mut cpu = Cpu::new(&p);
        let mut mem = Memory::new();
        cpu.try_step(&p, &mut mem).unwrap();
        let out = cpu.try_step(&p, &mut mem).unwrap();
        assert!(out.taken);
        assert_eq!(cpu.pc(), 3);
    }

    #[test]
    fn try_step_reports_halted_as_error() {
        let p = assemble("t", "halt").unwrap();
        let mut cpu = Cpu::new(&p);
        let mut mem = Memory::new();
        assert!(cpu.try_step(&p, &mut mem).is_ok());
        assert_eq!(cpu.try_step(&p, &mut mem), Err(ExecError::CpuHalted));
        // The error is sticky but side-effect free: state is unchanged.
        assert!(cpu.halted());
    }
}
