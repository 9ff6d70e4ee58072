//! P-thread optimization (§3.3): localized rewriting of a body into a
//! shorter, functionally equivalent sequence.
//!
//! "Since p-threads are control-less, traditional control-flow and
//! iterative data-flow analyses are replaced by a simple linear scan...
//! We have found that store-load pair elimination and constant folding
//! capture most p-thread optimization opportunities." Register-move
//! elimination is included as the paper's third (low-impact) pass.
//!
//! All rewrites preserve architectural register semantics — the optimized
//! body is executed verbatim by the timing simulator — so every rewrite
//! checks that no intervening instruction redefines a register it extends
//! the live range of.

use crate::body::BodyBuf;
use crate::{Body, BodyInst};
use preexec_isa::{Inst, Op, Reg};

/// Optimizes a p-thread body, returning the rewritten (never longer) body.
///
/// Applies constant folding (collapsing `addi`/`li` chains, including into
/// load/store offsets — the paper's Figure-2 example folds two
/// `addi r5, r5, #16` into one `addi r5, r5, #32`), store–load pair
/// elimination (a doubleword load fed by an in-body doubleword store to
/// the same address becomes a register move), register-move elimination,
/// and dead-code elimination, iterated to a fixed point.
///
/// The targeted load (the body's last instruction) is always preserved.
pub fn optimize_body(body: &Body) -> Body {
    let mut buf = BodyBuf::default();
    buf.copy_from(body.insts());
    Optimizer::default().run(&mut buf);
    buf.to_body()
}

/// The optimizer behind [`optimize_body`] and the candidate scorer: it
/// rewrites a [`BodyBuf`] in place and keeps dead-code elimination's work
/// lists between bodies, so optimizing allocates nothing once they have
/// grown.
#[derive(Debug, Default)]
pub(crate) struct Optimizer {
    live: Vec<bool>,
    remap: Vec<usize>,
    work: Vec<usize>,
}

impl Optimizer {
    /// Rewrites `body` in place to a fixed point.
    pub(crate) fn run(&mut self, body: &mut BodyBuf) {
        if body.len() == 0 {
            return;
        }
        // Each pass performs at most one rewrite per call; iterate to
        // fixpoint with a generous safety bound (every rewrite strictly
        // reduces either instruction count or chain length, so this
        // terminates well inside).
        for _ in 0..(4 * body.len() + 8) {
            let changed = fold_constants(body.insts_mut())
                || eliminate_store_load(body.insts_mut())
                || eliminate_moves(body.insts_mut())
                || self.dce(body);
            if !changed {
                break;
            }
        }
    }

    /// Dead-code elimination: drops instructions whose results the
    /// targeted load does not transitively depend on. Returns whether
    /// anything was removed. Live instructions move down in order by
    /// swaps, so the removed ones end up past the new end as spares.
    fn dce(&mut self, body: &mut BodyBuf) -> bool {
        let insts = body.insts_mut();
        let n = insts.len();
        let root = n - 1;
        self.live.clear();
        self.live.resize(n, false);
        self.work.clear();
        self.work.push(root);
        self.live[root] = true;
        while let Some(i) = self.work.pop() {
            for &d in &insts[i].deps {
                if !self.live[d] {
                    self.live[d] = true;
                    self.work.push(d);
                }
            }
        }
        if self.live.iter().all(|&l| l) {
            return false;
        }
        // Compact, remapping dep indices.
        self.remap.clear();
        self.remap.resize(n, usize::MAX);
        let mut next = 0;
        for i in 0..n {
            if self.live[i] {
                self.remap[i] = next;
                insts.swap(next, i);
                next += 1;
            }
        }
        for bi in &mut insts[..next] {
            for d in &mut bi.deps {
                *d = self.remap[*d];
            }
        }
        body.truncate(next);
        true
    }
}

/// The register an instruction defines (including writes to `r0`, which
/// still "define" for liveness purposes — they cannot, since `def()`
/// filters them; use the raw `rd`).
fn defines(inst: &Inst) -> Option<Reg> {
    inst.def()
}

/// Whether any instruction strictly between positions `from` and `to`
/// (exclusive on both ends) defines `reg`.
fn redefined_between(insts: &[BodyInst], reg: Reg, from: usize, to: usize) -> bool {
    insts[from + 1..to]
        .iter()
        .any(|bi| defines(&bi.inst) == Some(reg))
}

/// Whether any instruction before position `to` (exclusive) defines `reg`.
fn redefined_before(insts: &[BodyInst], reg: Reg, to: usize) -> bool {
    insts[..to].iter().any(|bi| defines(&bi.inst) == Some(reg))
}

/// Whether position `i` is the only consumer of position `j`'s result
/// through a dep edge (`i` itself must consume it).
fn sole_consumer(insts: &[BodyInst], j: usize, i: usize) -> bool {
    insts[i].deps.contains(&j)
        && insts
            .iter()
            .enumerate()
            .all(|(c, bi)| c == i || !bi.deps.contains(&j))
}

/// One step of constant folding. Returns whether a rewrite happened.
fn fold_constants(insts: &mut [BodyInst]) -> bool {
    let root = insts.len() - 1;
    for i in 0..insts.len() {
        let (op_i, rs1_i, rs2_i) = {
            let inst = &insts[i].inst;
            (inst.op, inst.rs1, inst.rs2)
        };
        // The consumer must address through rs1: addi chains, or the base
        // register of a load/store.
        let folds_rs1 = matches!(op_i, Op::Addi) || op_i.is_load() || op_i.is_store();
        if !folds_rs1 {
            continue;
        }
        let Some(base) = rs1_i else { continue };
        // Find the in-body producer of rs1.
        let Some(&j) = insts[i]
            .deps
            .iter()
            .find(|&&d| defines(&insts[d].inst) == Some(base))
        else {
            continue;
        };
        let op_j = insts[j].inst.op;
        if !matches!(op_j, Op::Addi | Op::Li) {
            continue;
        }
        // For stores, the producer must feed the base, not the value.
        if op_i.is_store() && rs2_i == Some(base) {
            continue;
        }
        // j's result must be consumed only by i (otherwise folding would
        // leave other consumers without their producer).
        if !sole_consumer(insts, j, i) || j == root {
            continue;
        }
        // After folding, i reads j's source at i's position: nothing may
        // redefine it in between.
        if op_j == Op::Addi {
            let src = insts[j].inst.rs1.expect("addi has rs1");
            if redefined_between(insts, src, j, i) {
                continue;
            }
            let add = insts[j].inst.imm;
            let (before, from_i) = insts.split_at_mut(i);
            let bi = &mut from_i[0];
            bi.inst.rs1 = Some(src);
            bi.inst.imm = bi.inst.imm.wrapping_add(add);
            bi.deps.retain(|&d| d != j);
            bi.deps.extend_from_slice(&before[j].deps);
            bi.deps.sort_unstable();
            bi.deps.dedup();
        } else {
            // Li: the base becomes an absolute constant -> base r0.
            let add = insts[j].inst.imm;
            let bi = &mut insts[i];
            if bi.inst.op == Op::Addi {
                bi.inst = Inst::li(
                    bi.inst.rd.expect("addi has rd"),
                    add.wrapping_add(bi.inst.imm),
                );
                bi.deps.retain(|&d| d != j);
            } else {
                bi.inst.rs1 = Some(Reg::ZERO);
                bi.inst.imm = bi.inst.imm.wrapping_add(add);
                bi.deps.retain(|&d| d != j);
            }
        }
        return true;
    }
    false
}

/// One step of store–load pair elimination. Returns whether a rewrite
/// happened.
///
/// Only doubleword pairs (`sd`/`ld`) are eliminated: narrower pairs would
/// require modeling sub-register extraction, which the ISA's `mov` cannot
/// express.
fn eliminate_store_load(insts: &mut [BodyInst]) -> bool {
    let root = insts.len() - 1;
    for i in 0..insts.len() {
        if i == root || insts[i].inst.op != Op::Ld {
            continue;
        }
        // Find a store among i's deps (the slicer records the feeding
        // store as a dependence of in-body loads).
        let Some(&s) = insts[i].deps.iter().find(|&&d| insts[d].inst.op == Op::Sd) else {
            continue;
        };
        let (load_inst, store_inst) = (insts[i].inst, insts[s].inst);
        if load_inst.imm != store_inst.imm {
            continue;
        }
        let load_base = load_inst.rs1.expect("load has base");
        let store_base = store_inst.rs1.expect("store has base");
        // Same-address check, statically: identical base producer (or the
        // same never-redefined live-in base register) and identical offset.
        let load_base_dep = insts[i]
            .deps
            .iter()
            .copied()
            .find(|&d| defines(&insts[d].inst) == Some(load_base));
        let store_base_dep = insts[s]
            .deps
            .iter()
            .copied()
            .find(|&d| defines(&insts[d].inst) == Some(store_base));
        let same_base = match (load_base_dep, store_base_dep) {
            (Some(a), Some(b)) => a == b,
            (None, None) => load_base == store_base && !redefined_before(insts, load_base, i),
            _ => false,
        };
        if !same_base {
            continue;
        }
        // The stored value register must still hold its value at i.
        let value = store_inst.rs2.expect("store has value");
        let value_dep = insts[s]
            .deps
            .iter()
            .copied()
            .find(|&d| defines(&insts[d].inst) == Some(value));
        let value_ok = match value_dep {
            Some(v) => !redefined_between(insts, value, v, i),
            None => !redefined_before(insts, value, i),
        };
        if !value_ok {
            continue;
        }
        let rd = load_inst.rd.expect("load has rd");
        let bi = &mut insts[i];
        bi.inst = Inst::mov(rd, value);
        bi.deps.clear();
        bi.deps.extend(value_dep);
        return true;
    }
    false
}

/// One step of register-move elimination. Returns whether a rewrite
/// happened.
fn eliminate_moves(insts: &mut [BodyInst]) -> bool {
    let root = insts.len() - 1;
    for m in 0..insts.len() {
        if m == root || insts[m].inst.op != Op::Mov {
            continue;
        }
        let src = insts[m].inst.rs1.expect("mov has rs");
        let dst = insts[m].inst.rd.expect("mov has rd");
        let src_dep = insts[m].deps.first().copied();
        let consumes = |bi: &BodyInst| bi.deps.contains(&m);
        if !insts.iter().any(consumes) {
            continue; // DCE will take it
        }
        // Every consumer must be rewritable: src must not be redefined
        // between the mov (or its producer) and the consumer.
        let all_ok = insts
            .iter()
            .enumerate()
            .all(|(c, bi)| !consumes(bi) || !redefined_between(insts, src, m, c));
        if !all_ok {
            continue;
        }
        for bi in insts.iter_mut().filter(|bi| consumes(bi)) {
            if bi.inst.rs1 == Some(dst) {
                bi.inst.rs1 = Some(src);
            }
            if bi.inst.rs2 == Some(dst) {
                bi.inst.rs2 = Some(src);
            }
            bi.deps.retain(|&d| d != m);
            bi.deps.extend(src_dep);
            bi.deps.sort_unstable();
            bi.deps.dedup();
        }
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bi(inst: Inst, deps: Vec<usize>) -> BodyInst {
        BodyInst {
            inst,
            deps,
            mt_dist: 0.0,
        }
    }

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    #[test]
    fn paper_example_addi_folding() {
        // addi r5,r5,16 ; addi r5,r5,16 ; lw-chain -> addi r5,r5,32.
        let b = Body::new(vec![
            bi(Inst::itype(Op::Addi, r(5), r(5), 16), vec![]),
            bi(Inst::itype(Op::Addi, r(5), r(5), 16), vec![0]),
            bi(Inst::load(Op::Lw, r(7), r(5), 4), vec![1]),
            bi(Inst::itype(Op::Sll, r(7), r(7), 2), vec![2]),
            bi(Inst::itype(Op::Addi, r(7), r(7), 4096), vec![3]),
            bi(Inst::load(Op::Lw, r(8), r(7), 0), vec![4]),
        ]);
        let o = optimize_body(&b);
        // The two addi r5 fold; addi r7,+4096 folds into the root's offset;
        // and (addi r5,+32) then folds into the lw r7 offset.
        let text: Vec<String> = o.to_insts().iter().map(|i| i.to_string()).collect();
        assert!(o.len() < b.len(), "{text:?}");
        assert!(
            text.iter().any(|t| t.contains("36(r5)")),
            "folded offset expected: {text:?}"
        );
        assert!(
            text.last().unwrap().contains("4096(r7)"),
            "root offset folding expected: {text:?}"
        );
    }

    #[test]
    fn folding_blocked_by_intervening_redefinition() {
        // addi r5,r1,16 ; (redefine r1, live) ; addi r6,r5,4: folding the
        // first addi into the second would read the *new* r1 — illegal.
        // The redefinition is kept live by feeding the address computation.
        let b = Body::new(vec![
            bi(Inst::itype(Op::Addi, r(5), r(1), 16), vec![]),
            bi(Inst::itype(Op::Addi, r(1), r(1), 1), vec![]),
            bi(Inst::itype(Op::Addi, r(6), r(5), 4), vec![0]),
            bi(Inst::rtype(Op::Add, r(8), r(6), r(1)), vec![1, 2]),
            bi(Inst::load(Op::Ld, r(7), r(8), 0), vec![3]),
        ]);
        let o = optimize_body(&b);
        let text: Vec<String> = o.to_insts().iter().map(|i| i.to_string()).collect();
        assert!(
            text.iter().any(|t| t.starts_with("addi r5, r1, 16")),
            "the r1-based addi must survive: {text:?}"
        );
        assert!(
            text.iter().any(|t| t.starts_with("addi r6, r5, 4")),
            "folding across the r1 redefinition must be blocked: {text:?}"
        );
    }

    #[test]
    fn folding_blocked_by_multiple_consumers() {
        // addi r5,r5,16 feeds two loads: cannot fold into either.
        let b = Body::new(vec![
            bi(Inst::itype(Op::Addi, r(5), r(5), 16), vec![]),
            bi(Inst::load(Op::Ld, r(6), r(5), 0), vec![0]),
            bi(Inst::rtype(Op::Add, r(7), r(6), r(5)), vec![0, 1]),
            bi(Inst::load(Op::Ld, r(8), r(7), 0), vec![2]),
        ]);
        let o = optimize_body(&b);
        assert_eq!(o.len(), 4);
    }

    #[test]
    fn li_fold_into_absolute_load() {
        let b = Body::new(vec![
            bi(Inst::li(r(1), 0x1000), vec![]),
            bi(Inst::load(Op::Ld, r(2), r(1), 8), vec![0]),
        ]);
        let o = optimize_body(&b);
        assert_eq!(o.len(), 1);
        assert_eq!(o.to_insts()[0].to_string(), "ld r2, 4104(r0)");
    }

    #[test]
    fn store_load_pair_eliminated() {
        // sd r2, 0(r1) ; ld r3, 0(r1) ; ld r4, 0(r3): the middle load
        // becomes mov r3, r2 and the store goes dead.
        let b = Body::new(vec![
            bi(Inst::li(r(2), 0x8000), vec![]),
            bi(Inst::store(Op::Sd, r(2), r(1), 0), vec![0]),
            bi(Inst::load(Op::Ld, r(3), r(1), 0), vec![1]),
            bi(Inst::load(Op::Ld, r(4), r(3), 0), vec![2]),
        ]);
        let o = optimize_body(&b);
        let text: Vec<String> = o.to_insts().iter().map(|i| i.to_string()).collect();
        assert!(
            !text.iter().any(|t| t.starts_with("sd")),
            "store dead: {text:?}"
        );
        assert!(
            !text.iter().any(|t| t.starts_with("ld r3")),
            "load gone: {text:?}"
        );
        // After mov-elimination + li folding the whole thing can collapse
        // to a single absolute load.
        assert_eq!(text.last().unwrap(), "ld r4, 32768(r0)");
    }

    #[test]
    fn store_load_different_offsets_kept() {
        let b = Body::new(vec![
            bi(Inst::store(Op::Sd, r(2), r(1), 0), vec![]),
            bi(Inst::load(Op::Ld, r(3), r(1), 8), vec![0]),
            bi(Inst::load(Op::Ld, r(4), r(3), 0), vec![1]),
        ]);
        let o = optimize_body(&b);
        assert!(o.to_insts().iter().any(|i| i.op == Op::Sd));
    }

    #[test]
    fn narrow_store_load_pairs_not_eliminated() {
        let b = Body::new(vec![
            bi(Inst::store(Op::Sw, r(2), r(1), 0), vec![]),
            bi(Inst::load(Op::Lw, r(3), r(1), 0), vec![0]),
            bi(Inst::load(Op::Ld, r(4), r(3), 0), vec![1]),
        ]);
        let o = optimize_body(&b);
        assert_eq!(o.len(), 3);
    }

    #[test]
    fn mov_elimination() {
        let b = Body::new(vec![
            bi(Inst::itype(Op::Addi, r(1), r(1), 8), vec![]),
            bi(Inst::mov(r(2), r(1)), vec![0]),
            bi(Inst::load(Op::Ld, r(3), r(2), 0), vec![1]),
        ]);
        let o = optimize_body(&b);
        let text: Vec<String> = o.to_insts().iter().map(|i| i.to_string()).collect();
        assert!(!text.iter().any(|t| t.starts_with("mov")), "{text:?}");
        // And then the addi folds into the load.
        assert_eq!(text.last().unwrap(), "ld r3, 8(r1)");
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn mov_blocked_by_source_redefinition() {
        // The addi is live (feeds the add), so it cannot be DCE'd away,
        // and it redefines the mov's source between mov and consumer.
        let b = Body::new(vec![
            bi(Inst::mov(r(2), r(1)), vec![]),
            bi(Inst::itype(Op::Addi, r(1), r(1), 1), vec![]),
            bi(Inst::rtype(Op::Add, r(5), r(2), r(1)), vec![0, 1]),
            bi(Inst::load(Op::Ld, r(3), r(5), 0), vec![2]),
        ]);
        let o = optimize_body(&b);
        assert!(o.to_insts().iter().any(|i| i.op == Op::Mov));
    }

    #[test]
    fn dce_removes_unreachable() {
        let b = Body::new(vec![
            bi(Inst::itype(Op::Addi, r(9), r(9), 1), vec![]), // dead
            bi(Inst::itype(Op::Addi, r(1), r(1), 8), vec![]),
            bi(Inst::load(Op::Ld, r(3), r(1), 0), vec![1]),
        ]);
        let o = optimize_body(&b);
        assert!(o.len() <= 2);
        assert!(o.to_insts().iter().all(|i| i.rd != Some(r(9))));
    }

    #[test]
    fn root_always_survives() {
        let b = Body::new(vec![bi(Inst::load(Op::Ld, r(3), r(1), 0), vec![])]);
        let o = optimize_body(&b);
        assert_eq!(o.len(), 1);
        assert!(o.to_insts()[0].op.is_load());
    }

    #[test]
    fn optimization_never_grows_body() {
        let b = Body::new(vec![
            bi(Inst::itype(Op::Addi, r(5), r(5), 16), vec![]),
            bi(Inst::itype(Op::Addi, r(5), r(5), 16), vec![0]),
            bi(Inst::itype(Op::Addi, r(5), r(5), 16), vec![1]),
            bi(Inst::load(Op::Ld, r(8), r(5), 0), vec![2]),
        ]);
        let o = optimize_body(&b);
        assert!(o.len() <= b.len());
        assert_eq!(o.len(), 1); // everything folds into the load offset
        assert_eq!(o.to_insts()[0].to_string(), "ld r8, 48(r5)");
    }

    #[test]
    fn empty_body_is_noop() {
        assert_eq!(optimize_body(&Body::default()).len(), 0);
    }
}
