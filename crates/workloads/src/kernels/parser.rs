//! `parser` analogue: hash-bucket lookups followed by short linked-list
//! walks.
//!
//! SPEC's `parser` does dictionary lookups: a hash (pure ALU) selects a
//! bucket, then a short chain of nodes is compared. The bucket-head load
//! is fully computable ahead; the chain nodes are serialized behind it.
//! The paper lists `parser` among the scope-sensitive programs: the hash
//! computation sits far from the loads it feeds.

use crate::util::{table_bytes, Lcg};
use crate::InputSet;
use preexec_isa::{Program, ProgramBuilder, Reg};

/// Buckets for train: 64 K heads (512 KB head table).
const TRAIN_BUCKETS: usize = 64 * 1024;
/// Nodes for train: 192 K × 32 B = 6 MB arena.
const TRAIN_NODES: usize = 192 * 1024;
/// Lookups for train.
const TRAIN_ITERS: i64 = 40_000;

/// Builds the kernel for `input`.
pub fn build(input: InputSet) -> Program {
    let buckets = input.scale(TRAIN_BUCKETS, 0.125);
    let nodes = input.scale(TRAIN_NODES, 0.125);
    let iters = match input {
        InputSet::Test => TRAIN_ITERS / 8,
        _ => TRAIN_ITERS,
    };
    let mut rng = Lcg::new(0x7061_7273 ^ input.seed()); // "pars"
    let heads_base = super::table_base(0);
    let arena_base = super::table_base(1);

    // Scatter nodes over the arena and chain them into buckets.
    let mut order: Vec<u64> = (0..nodes as u64).collect();
    for i in (1..nodes).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    let mut heads = vec![0u64; buckets];
    let mut arena = vec![0u64; nodes * 4]; // [key, next, val, pad]
    for (k, &slot) in order.iter().enumerate() {
        let bucket = k % buckets;
        let addr = arena_base + slot * 32;
        arena[slot as usize * 4] = rng.next_u64(); // key
        arena[slot as usize * 4 + 1] = heads[bucket]; // next (old head)
        arena[slot as usize * 4 + 2] = rng.below(1 << 20); // value
        heads[bucket] = addr;
    }

    let mut b = ProgramBuilder::new("parser");
    let (hb, i, n, w, k1, k2, hash, a, p, key, t, acc) = (
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
    );
    b.li(hb, heads_base as i64);
    b.li(i, 0);
    b.li(n, iters);
    b.li(w, 0x243f6a8885a308d3u64 as i64);
    b.li(k1, 6364136223846793005u64 as i64);
    b.li(k2, 1442695040888963407u64 as i64);
    b.label("top");
    b.bge(i, n, "done");
    // Next "word" and its hash (pure ALU).
    b.mul(w, w, k1);
    b.add(w, w, k2);
    b.srl(hash, w, 33);
    b.andi(hash, hash, (buckets - 1) as i64);
    b.sll(a, hash, 3);
    b.add(a, a, hb);
    b.ld(p, 0, a); // the problem load: bucket head
                   // Walk up to the whole chain comparing keys.
    b.label("walk");
    b.beq(p, Reg::ZERO, "next");
    b.ld(key, 0, p); // node key (serialized chain load)
    b.xor(t, key, w);
    b.andi(t, t, 4095);
    b.beq(t, Reg::ZERO, "found");
    b.ld(p, 8, p); // follow the chain
    b.j("walk");
    b.label("found");
    b.ld(t, 16, p); // value
    b.add(acc, acc, t);
    b.label("next");
    b.addi(i, i, 1);
    b.j("top");
    b.label("done");
    b.halt();
    b.data(heads_base, table_bytes(&heads));
    b.data(arena_base, table_bytes(&arena));
    b.build().expect("parser kernel builds")
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
    fn lookups_miss_on_heads_and_chains() {
        let p = build(InputSet::Train);
        let cfg = TraceConfig {
            max_steps: 600_000,
            ..TraceConfig::default()
        };
        let stats = run_trace(&p, &cfg, |_| {});
        assert!(stats.l2_misses > 4_000, "misses {}", stats.l2_misses);
        // At least two distinct miss sites: head load and chain loads.
        assert!(stats.problem_loads().len() >= 2);
    }

    #[test]
    fn chains_average_a_few_nodes() {
        // 192K nodes over 64K buckets: mean chain length 3.
        let p = build(InputSet::Train);
        let cfg = TraceConfig {
            max_steps: 600_000,
            ..TraceConfig::default()
        };
        let stats = run_trace(&p, &cfg, |_| {});
        let head_pc = stats
            .load_sites
            .iter()
            .find(|(&pc, _)| p.inst(pc).to_string() == "ld r9, 0(r8)")
            .map(|(&pc, _)| pc)
            .expect("head site");
        let key_pc = stats
            .load_sites
            .iter()
            .find(|(&pc, _)| p.inst(pc).to_string() == "ld r10, 0(r9)")
            .map(|(&pc, _)| pc)
            .expect("key site");
        let heads = stats.load_sites[&head_pc].execs as f64;
        let keys = stats.load_sites[&key_pc].execs as f64;
        let mean = keys / heads;
        assert!(mean > 1.2 && mean < 4.0, "mean chain walk {mean}");
    }
}
