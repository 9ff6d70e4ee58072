//! The sandboxed p-thread interpreter.
//!
//! P-threads are speculative by construction (paper §2): they race ahead
//! of the main thread on registers seeded from possibly-stale state, so a
//! p-thread body must be able to compute bad addresses, execute corrupted
//! instructions, or spin through an oversized slice *without disturbing
//! the committed program*. This module provides the architectural
//! reference for that contract: a p-thread executes against a private
//! register file and a private store buffer, never writes memory, and any
//! fault **squashes** the p-thread — terminating it with a
//! [`SquashReason`] — rather than propagating a panic.
//!
//! The timing simulator (`preexec_timing`) enforces the same contract in
//! its launch path and reuses [`SquashReason`] for its squash accounting.

use crate::exec;
use preexec_isa::reg::NUM_REGS;
use preexec_isa::{Inst, Op, OpClass};
use preexec_mem::Memory;
use std::collections::HashMap;
use std::fmt;

/// P-thread loads beyond this address are treated as wild speculative
/// addresses and squash the p-thread (a 48-bit virtual address space,
/// matching common 64-bit implementations). The architectural memory is
/// sparse and would accept any address; the guard exists so that a
/// poisoned pointer chase is *counted* as a fault instead of silently
/// fetching zeros forever.
pub const PTHREAD_ADDR_LIMIT: u64 = 1 << 48;

/// Why a speculative p-thread was squashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SquashReason {
    /// A body instruction's opcode does not belong to the class its
    /// encoding claims (e.g. a load opcode in an ALU slot).
    InvalidOpcode,
    /// A body instruction's operands are inconsistent (missing width,
    /// missing register) — typically a corrupted slice file.
    Malformed,
    /// A load computed an address outside the speculative address space
    /// ([`PTHREAD_ADDR_LIMIT`]) — typically a poisoned live-in register.
    BadAddress,
    /// The per-launch step watchdog ran out before the body finished.
    BudgetExhausted,
}

impl fmt::Display for SquashReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SquashReason::InvalidOpcode => "invalid opcode",
            SquashReason::Malformed => "malformed instruction",
            SquashReason::BadAddress => "out-of-range address",
            SquashReason::BudgetExhausted => "step budget exhausted",
        };
        f.write_str(s)
    }
}

/// How a sandboxed p-thread run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PThreadOutcome {
    /// The body ran to its end.
    Completed,
    /// The body was squashed at `at` (body index) for `reason`.
    Squashed {
        /// Index of the faulting body instruction.
        at: usize,
        /// The fault class.
        reason: SquashReason,
    },
}

/// The result of a sandboxed p-thread run.
#[derive(Debug, Clone)]
pub struct PThreadRun {
    /// Completion or squash.
    pub outcome: PThreadOutcome,
    /// Body instructions actually executed.
    pub executed: usize,
    /// Addresses the body's loads touched, in order — the prefetch
    /// candidates a launch would have generated.
    pub load_addrs: Vec<u64>,
    /// Final private register file.
    pub regs: [i64; NUM_REGS],
}

impl PThreadRun {
    /// The squash reason, if the run did not complete.
    pub fn squash_reason(&self) -> Option<SquashReason> {
        match self.outcome {
            PThreadOutcome::Completed => None,
            PThreadOutcome::Squashed { reason, .. } => Some(reason),
        }
    }
}

/// Executes a p-thread `body` in a sandbox: private registers seeded from
/// `seed_regs`, read-only architectural memory, stores buffered privately,
/// control-flow inert, and every fault converted into a squash.
///
/// `step_budget` is the per-launch watchdog: a body longer than the budget
/// is squashed with [`SquashReason::BudgetExhausted`] once the budget is
/// spent. This function never panics and always terminates.
pub fn run_pthread(
    body: &[Inst],
    seed_regs: &[i64; NUM_REGS],
    mem: &Memory<'_>,
    step_budget: usize,
) -> PThreadRun {
    let mut regs = *seed_regs;
    let mut store_buffer: HashMap<u64, (i64, u8)> = HashMap::new();
    let mut load_addrs = Vec::new();

    for (i, inst) in body.iter().enumerate() {
        if i >= step_budget {
            return PThreadRun {
                outcome: PThreadOutcome::Squashed {
                    at: i,
                    reason: SquashReason::BudgetExhausted,
                },
                executed: i,
                load_addrs,
                regs,
            };
        }
        let squash =
            |at, reason, executed, load_addrs: &Vec<u64>, regs: &[i64; NUM_REGS]| PThreadRun {
                outcome: PThreadOutcome::Squashed { at, reason },
                executed,
                load_addrs: load_addrs.clone(),
                regs: *regs,
            };
        let a = inst.rs1.map_or(0, |r| regs[r.index()]);
        let b = inst.rs2.map_or(0, |r| regs[r.index()]);
        let mut result = 0i64;
        let mut writes_def = true;
        match inst.class() {
            OpClass::IntAlu | OpClass::IntMul => match exec::try_alu(inst.op, a, b, inst.imm) {
                Ok(v) => result = v,
                Err(_) => return squash(i, SquashReason::InvalidOpcode, i, &load_addrs, &regs),
            },
            OpClass::Load => {
                let addr = exec::effective_address(a, inst.imm);
                if addr >= PTHREAD_ADDR_LIMIT {
                    return squash(i, SquashReason::BadAddress, i, &load_addrs, &regs);
                }
                let Some(width) = inst.op.mem_width() else {
                    return squash(i, SquashReason::Malformed, i, &load_addrs, &regs);
                };
                load_addrs.push(addr);
                result = match store_buffer.get(&addr) {
                    Some(&(v, w)) if w == width => v,
                    _ => match inst.op {
                        Op::Lb => mem.read_u8(addr) as i8 as i64,
                        Op::Lbu => mem.read_u8(addr) as i64,
                        Op::Lw => mem.read_u32(addr) as i32 as i64,
                        Op::Ld => mem.read_u64(addr) as i64,
                        _ => return squash(i, SquashReason::Malformed, i, &load_addrs, &regs),
                    },
                };
            }
            OpClass::Store => {
                // Speculative: buffered privately, never written to memory.
                let addr = exec::effective_address(a, inst.imm);
                let Some(width) = inst.op.mem_width() else {
                    return squash(i, SquashReason::Malformed, i, &load_addrs, &regs);
                };
                store_buffer.insert(addr, (b, width));
                writes_def = false;
            }
            // Bodies are control-less; control flow is inert (including
            // jal's link write — the sandbox must not disturb seeded state
            // it did not compute).
            OpClass::Branch | OpClass::Jump | OpClass::Other => writes_def = false,
        }
        if writes_def {
            if let Some(def) = inst.def() {
                regs[def.index()] = result;
            }
        }
    }

    PThreadRun {
        outcome: PThreadOutcome::Completed,
        executed: body.len(),
        load_addrs,
        regs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_isa::Reg;

    fn seed() -> [i64; NUM_REGS] {
        let mut r = [0i64; NUM_REGS];
        r[1] = 0x1000;
        r
    }

    #[test]
    fn completes_and_reports_load_addrs() {
        let body = vec![
            Inst::itype(Op::Addi, Reg::new(1), Reg::new(1), 8),
            Inst::load(Op::Ld, Reg::new(2), Reg::new(1), 0),
        ];
        let run = run_pthread(&body, &seed(), &Memory::new(), 64);
        assert_eq!(run.outcome, PThreadOutcome::Completed);
        assert_eq!(run.load_addrs, vec![0x1008]);
        assert_eq!(run.executed, 2);
    }

    #[test]
    fn stores_stay_private() {
        let mut mem = Memory::new();
        mem.write_u64(0x1000, 7);
        let body = vec![
            Inst::store(Op::Sd, Reg::new(1), Reg::new(1), 0), // sd r1 -> 0(r1)
            Inst::load(Op::Ld, Reg::new(2), Reg::new(1), 0),
        ];
        let run = run_pthread(&body, &seed(), &mem, 64);
        assert_eq!(run.outcome, PThreadOutcome::Completed);
        // The load forwarded the speculative store...
        assert_eq!(run.regs[2], 0x1000);
        // ...but architectural memory is untouched.
        assert_eq!(mem.read_u64(0x1000), 7);
    }

    #[test]
    fn wild_address_squashes() {
        let mut r = seed();
        r[1] = -1; // poisoned live-in: address 0xffff_ffff_ffff_ffff
        let body = vec![Inst::load(Op::Ld, Reg::new(2), Reg::new(1), 0)];
        let run = run_pthread(&body, &r, &Memory::new(), 64);
        assert_eq!(run.squash_reason(), Some(SquashReason::BadAddress));
        assert!(run.load_addrs.is_empty());
    }

    #[test]
    fn budget_squashes_oversized_bodies() {
        let body = vec![Inst::itype(Op::Addi, Reg::new(1), Reg::new(1), 1); 100];
        let run = run_pthread(&body, &seed(), &Memory::new(), 10);
        assert_eq!(run.squash_reason(), Some(SquashReason::BudgetExhausted));
        assert_eq!(run.executed, 10);
    }

    #[test]
    fn control_flow_is_inert() {
        let body = vec![
            Inst::branch(Op::Beq, Reg::new(1), Reg::new(1), 0),
            Inst::jump(Op::J, 0),
            Inst::itype(Op::Addi, Reg::new(3), Reg::new(1), 1),
        ];
        let run = run_pthread(&body, &seed(), &Memory::new(), 64);
        assert_eq!(run.outcome, PThreadOutcome::Completed);
        assert_eq!(run.regs[3], 0x1001); // fell straight through
    }
}
