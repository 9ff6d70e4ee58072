//! Property-based test: p-thread optimization preserves semantics.
//!
//! The optimizer's contract (§3.3) is that the optimized body is
//! "functionally equivalent to the actual sub-slice": in particular it
//! must compute the **same final address** for the targeted load given
//! the same live-in register values and memory, since that address is the
//! prefetch the p-thread exists to issue. This suite generates random
//! straight-line bodies (shaped like real slices: dependent ALU chains,
//! loads, store-load round trips), executes the original and optimized
//! versions on random register files over deterministic memory, and
//! compares the final load's effective address.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec::core::{optimize_body, Body, BodyInst};
use preexec::isa::{Inst, Op, Reg};
use proptest::prelude::*;
use std::collections::HashMap;

/// Deterministic "memory": the value at any address is a hash of it, so
/// loads are reproducible without a real memory image.
fn mem_value(addr: u64) -> i64 {
    let x = addr
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(23)
        .wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    (x >> 1) as i64
}

/// Executes a body on `regs`, returning the final instruction's effective
/// address (if it is a memory op) and the final register file.
///
/// Store-to-load forwarding is *dep-edge based*, mirroring the system's
/// semantics: a load's value comes from an in-body store only when the
/// slicer recorded that dependence (dep edge to a store); otherwise the
/// load reads the deterministic background memory. The optimizer maintains
/// dep edges through its rewrites, so this is exactly the contract it
/// preserves.
fn execute(body: &Body, mut regs: [i64; 64]) -> (Option<u64>, [i64; 64]) {
    let mut store_val: Vec<Option<i64>> = vec![None; body.len()];
    let mut last_addr = None;
    for (i, bi) in body.insts().iter().enumerate() {
        let inst = bi.inst;
        let a = inst.rs1.map_or(0, |r| regs[r.index()]);
        let b = inst.rs2.map_or(0, |r| regs[r.index()]);
        last_addr = None;
        match inst.op {
            Op::Ld => {
                let addr = a.wrapping_add(inst.imm) as u64;
                last_addr = Some(addr);
                let feeding_store = bi
                    .deps
                    .iter()
                    .copied()
                    .find(|&d| body.insts()[d].inst.op == Op::Sd);
                let v = match feeding_store {
                    Some(j) => store_val[j].expect("store executed before load"),
                    None => mem_value(addr),
                };
                regs[inst.rd.unwrap().index()] = v;
            }
            Op::Sd => {
                let addr = a.wrapping_add(inst.imm) as u64;
                last_addr = Some(addr);
                store_val[i] = Some(b);
            }
            _ => {
                let v = preexec::func::exec::try_alu(inst.op, a, b, inst.imm).unwrap();
                if let Some(rd) = inst.rd {
                    if !rd.is_zero() {
                        regs[rd.index()] = v;
                    }
                }
            }
        }
    }
    (last_addr, regs)
}

/// Recomputes intra-body dependence edges the way the slicer would:
/// register last-writer links, plus store→load links for loads whose
/// (base-producer, offset) provably matches an earlier store.
fn with_deps(insts: Vec<Inst>) -> Body {
    let mut last_writer: HashMap<Reg, usize> = HashMap::new();
    let mut body = Vec::with_capacity(insts.len());
    for (i, inst) in insts.into_iter().enumerate() {
        let mut deps: Vec<usize> = inst
            .uses()
            .filter_map(|r| last_writer.get(&r).copied())
            .collect();
        if inst.op == Op::Ld {
            // Find the latest matching store with an untouched base.
            let base = inst.rs1.unwrap();
            let base_dep = last_writer.get(&base).copied();
            for (j, prev) in body.iter().enumerate().rev() {
                let prev: &BodyInst = prev;
                if prev.inst.op == Op::Sd
                    && prev.inst.imm == inst.imm
                    && prev.inst.rs1 == Some(base)
                {
                    let prev_base_dep = prev
                        .inst
                        .uses()
                        .filter_map(|r| {
                            if r == base {
                                // recompute what the store's base dep was
                                body[..j].iter().rposition(|b| b.inst.def() == Some(base))
                            } else {
                                None
                            }
                        })
                        .next();
                    if prev_base_dep == base_dep {
                        deps.push(j);
                    }
                    break;
                }
            }
        }
        deps.sort_unstable();
        deps.dedup();
        if let Some(def) = inst.def() {
            last_writer.insert(def, i);
        }
        body.push(BodyInst {
            inst,
            deps,
            mt_dist: i as f64 * 3.0,
        });
    }
    Body::new(body)
}

/// Strategy: one random body instruction referencing registers r1..r8.
fn inst_strategy() -> impl Strategy<Value = Inst> {
    let reg = || (1u8..8).prop_map(Reg::new);
    prop_oneof![
        (reg(), reg(), -64i64..64).prop_map(|(rd, rs, imm)| Inst::itype(Op::Addi, rd, rs, imm)),
        (reg(), reg(), reg()).prop_map(|(rd, rs, rt)| Inst::rtype(Op::Add, rd, rs, rt)),
        (reg(), reg(), 0i64..4).prop_map(|(rd, rs, sh)| Inst::itype(Op::Sll, rd, rs, sh)),
        (reg(), -512i64..512).prop_map(|(rd, imm)| Inst::li(rd, imm)),
        (reg(), reg()).prop_map(|(rd, rs)| Inst::mov(rd, rs)),
        (reg(), reg(), prop::sample::select(vec![0i64, 8, 16]))
            .prop_map(|(rd, base, off)| Inst::load(Op::Ld, rd, base, off)),
        (reg(), reg(), prop::sample::select(vec![0i64, 8, 16]))
            .prop_map(|(val, base, off)| Inst::store(Op::Sd, val, base, off)),
    ]
}

/// Strategy: a whole body ending in a load (the problem-load target).
fn body_strategy() -> impl Strategy<Value = Body> {
    (
        prop::collection::vec(inst_strategy(), 0..14),
        (1u8..8),
        (1u8..8),
    )
        .prop_map(|(mut insts, rd, base)| {
            insts.push(Inst::load(Op::Ld, Reg::new(rd), Reg::new(base), 0));
            with_deps(insts)
        })
}

fn seed_regs(seed: i64) -> [i64; 64] {
    let mut regs = [0i64; 64];
    let mut x = seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(7);
    for r in regs.iter_mut().skip(1) {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Keep addresses in a sane positive range.
        *r = (x >> 33).abs() % (1 << 20);
    }
    regs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The optimized body computes the same final (prefetch) address.
    #[test]
    fn optimization_preserves_target_address(body in body_strategy(), seed in 0i64..1000) {
        let optimized = optimize_body(&body);
        prop_assert!(optimized.len() <= body.len(), "optimizer grew the body");
        prop_assert!(!optimized.is_empty());
        let regs = seed_regs(seed);
        let (addr_a, _) = execute(&body, regs);
        let (addr_b, _) = execute(&optimized, regs);
        prop_assert_eq!(addr_a, addr_b, "target address changed:\n{:?}\n=>\n{:?}", body.to_insts(), optimized.to_insts());
    }

    /// The optimized body loads the same final value.
    #[test]
    fn optimization_preserves_target_value(body in body_strategy(), seed in 0i64..1000) {
        let optimized = optimize_body(&body);
        let regs = seed_regs(seed);
        let rd = body.insts().last().unwrap().inst.rd;
        let (_, regs_a) = execute(&body, regs);
        let (_, regs_b) = execute(&optimized, regs);
        if let Some(rd) = rd {
            prop_assert_eq!(regs_a[rd.index()], regs_b[rd.index()]);
        }
    }

    /// Optimization is idempotent.
    #[test]
    fn optimization_is_idempotent(body in body_strategy()) {
        let once = optimize_body(&body);
        let twice = optimize_body(&once);
        prop_assert_eq!(once.len(), twice.len());
    }
}
