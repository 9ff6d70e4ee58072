//! `vortex` analogue: multi-level object-database indirection.
//!
//! SPEC's `vortex` is an object database whose lookups traverse several
//! levels of mapping tables before reaching the object. Each level's
//! address depends on the previous level's loaded value, so covering the
//! deepest load requires a p-thread long enough to carry the whole chain —
//! `vortex` is the paper's example of a benchmark that keeps benefiting
//! from relaxed length constraints (Figure 4).

use crate::util::{table_bytes, Lcg};
use crate::InputSet;
use preexec_isa::{Program, ProgramBuilder, Reg};

/// Index table for train: 128 K entries (1 MB).
const TRAIN_INDEX: usize = 128 * 1024;
/// Object table for train: 64 K lines = 4 MB.
const TRAIN_OBJECTS: usize = 64 * 1024;
/// Field table for train: 64 K lines = 4 MB.
const TRAIN_FIELDS: usize = 64 * 1024;
/// Lookups for train.
const TRAIN_ITERS: i64 = 45_000;

/// Builds the kernel for `input`.
pub fn build(input: InputSet) -> Program {
    let n_index = input.scale(TRAIN_INDEX, 0.125);
    let n_obj = input.scale(TRAIN_OBJECTS, 0.125);
    let n_fld = input.scale(TRAIN_FIELDS, 0.125);
    let iters = match input {
        InputSet::Test => TRAIN_ITERS / 8,
        _ => TRAIN_ITERS,
    };
    let mut rng = Lcg::new(0x766f_7274 ^ input.seed()); // "vort"
    let idx_base = super::table_base(0);
    let obj_base = super::table_base(1);
    let fld_base = super::table_base(2);

    let index: Vec<u64> = (0..n_index).map(|_| rng.below(n_obj as u64)).collect();
    // Object lines: first doubleword holds a field id.
    let mut objects = vec![0u64; n_obj * 8];
    for i in 0..n_obj {
        objects[i * 8] = rng.below(n_fld as u64);
        objects[i * 8 + 1] = rng.below(1 << 30);
    }
    let fields: Vec<u8> = (0..n_fld * 64).map(|_| rng.below(256) as u8).collect();

    let mut b = ProgramBuilder::new("vortex");
    let (ib, ob, fb, i, n, s, k1, k2, h, a, o, q, f, acc) = (
        Reg::new(1),
        Reg::new(2),
        Reg::new(3),
        Reg::new(4),
        Reg::new(5),
        Reg::new(6),
        Reg::new(7),
        Reg::new(8),
        Reg::new(9),
        Reg::new(10),
        Reg::new(11),
        Reg::new(12),
        Reg::new(13),
        Reg::new(14),
    );
    b.li(ib, idx_base as i64);
    b.li(ob, obj_base as i64);
    b.li(fb, fld_base as i64);
    b.li(i, 0);
    b.li(n, iters);
    b.li(s, 0x452821e638d01377u64 as i64);
    b.li(k1, 6364136223846793005u64 as i64);
    b.li(k2, 1442695040888963407u64 as i64);
    b.label("top");
    b.bge(i, n, "done");
    // Level 0: a random key into the index table.
    b.mul(s, s, k1);
    b.add(s, s, k2);
    b.srl(h, s, 33);
    b.andi(h, h, (n_index - 1) as i64);
    b.sll(a, h, 3);
    b.add(a, a, ib);
    b.ld(o, 0, a); // level-1 load: object id
                   // Level 1 -> 2: object line.
    b.sll(a, o, 6);
    b.add(a, a, ob);
    b.ld(q, 0, a); // level-2 load: field id
    b.ld(f, 8, a); // same line: a payload word
    b.add(acc, acc, f);
    // Level 2 -> 3: field line (the deepest problem load).
    b.sll(a, q, 6);
    b.add(a, a, fb);
    b.ld(f, 0, a); // level-3 load
    b.add(acc, acc, f);
    b.addi(i, i, 1);
    b.j("top");
    b.label("done");
    b.halt();
    b.data(idx_base, table_bytes(&index));
    b.data(obj_base, table_bytes(&objects));
    b.data(fld_base, fields);
    b.build().expect("vortex kernel builds")
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
    fn three_levels_of_misses() {
        let p = build(InputSet::Train);
        let cfg = TraceConfig {
            max_steps: 600_000,
            ..TraceConfig::default()
        };
        let stats = run_trace(&p, &cfg, |_| {});
        assert!(stats.l2_misses > 8_000, "misses {}", stats.l2_misses);
        // Both the object and field loads must be significant miss sites.
        let sites = stats.problem_loads();
        assert!(sites.len() >= 2, "expected multi-level misses: {sites:?}");
    }
}
