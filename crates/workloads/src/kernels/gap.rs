//! `gap` analogue: dereferencing a pointer array over a shuffled heap.
//!
//! SPEC's `gap` (group theory) walks bags/lists of heap objects. The
//! pointer array itself is scanned sequentially (prefetch-friendly), but
//! the objects it points to are scattered — their loads miss and defy
//! stride prediction, while their addresses are one sequential load away:
//! induction-unrolled p-threads cover them well.

use crate::util::{table_bytes, Lcg};
use crate::InputSet;
use preexec_isa::{Program, ProgramBuilder, Reg};

/// Objects for train: 256 K × 32 B = 8 MB arena.
const TRAIN_OBJECTS: usize = 256 * 1024;
/// Dereferences for train.
const TRAIN_ITERS: i64 = 80_000;

/// Builds the kernel for `input`.
pub fn build(input: InputSet) -> Program {
    let objects = input.scale(TRAIN_OBJECTS, 0.0625);
    let iters = match input {
        InputSet::Test => TRAIN_ITERS / 8,
        _ => TRAIN_ITERS,
    };
    let mut rng = Lcg::new(0x6761_7000 ^ input.seed()); // "gap"
    let arena_base = super::table_base(0);
    let ptr_base = super::table_base(1);

    // Shuffled object order: pointer i references a random object.
    let mut order: Vec<u64> = (0..objects as u64).collect();
    for i in (1..objects).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    let ptrs: Vec<u64> = (0..iters as usize)
        .map(|i| arena_base + order[i % objects] * 32)
        .collect();
    let arena: Vec<u8> = (0..objects * 32).map(|_| rng.below(256) as u8).collect();

    let mut b = ProgramBuilder::new("gap");
    let (pp, i, n, p, v, w, acc) = (
        Reg::new(1),
        Reg::new(2),
        Reg::new(3),
        Reg::new(4),
        Reg::new(5),
        Reg::new(6),
        Reg::new(9),
    );
    b.li(pp, ptr_base as i64);
    b.li(i, 0);
    b.li(n, iters);
    b.label("top");
    b.bge(i, n, "done");
    b.ld(p, 0, pp); // pointer (sequential scan, prefetch-friendly)
    b.ld(v, 0, p); // the problem load: object field
    b.ld(w, 8, p); // same object, usually same line
    b.add(acc, acc, v);
    b.add(acc, acc, w);
    b.sd(acc, 16, p); // write a field back
    b.addi(pp, pp, 8);
    b.addi(i, i, 1);
    b.j("top");
    b.label("done");
    b.halt();
    b.data(arena_base, arena);
    b.data(ptr_base, table_bytes(&ptrs));
    b.build().expect("gap kernel builds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_func::{run_trace, TraceConfig};

    #[test]
    fn builds_and_validates() {
        for input in InputSet::all() {
            assert_eq!(build(input).validate(), Ok(()));
        }
    }

    #[test]
    fn object_loads_miss_pointer_array_mostly_hits() {
        let p = build(InputSet::Train);
        let cfg = TraceConfig {
            max_steps: 400_000,
            ..TraceConfig::default()
        };
        let stats = run_trace(&p, &cfg, |_| {});
        assert!(stats.l2_misses > 5_000);
        // Problem load is the object dereference (`ld r5, 0(r4)`).
        let top = stats.problem_loads()[0];
        assert_eq!(p.inst(top.0).to_string(), "ld r5, 0(r4)");
        // The pointer-array load misses at most once per line (8 ptrs).
        let ptr_site = stats
            .load_sites
            .iter()
            .find(|(&pc, _)| p.inst(pc).to_string() == "ld r4, 0(r1)")
            .map(|(_, s)| *s)
            .expect("pointer load site");
        assert!(ptr_site.l2_misses * 4 < ptr_site.execs);
    }
}
