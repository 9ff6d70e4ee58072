//! `mcf` analogue: pointer chasing with per-hop control divergence.
//!
//! SPEC's `mcf` runs network simplex over a huge arc/node graph; its
//! delinquent loads chase pointers whose addresses are serialized *and*
//! whose computations cross data-dependent branches — every hop picks one
//! of several successor fields. A backward slice that spans `k` hops
//! therefore corresponds to only one of `2^k` control paths: deep static
//! p-threads cover exponentially few misses and launch uselessly often
//! (the paper's "useless p-threads of the second kind"), which is why the
//! paper covers only ~10% of `mcf`'s misses. This kernel reproduces that
//! structure: each 64-byte node holds two successor indices and a
//! data-dependent selector bit.

use crate::util::{cyclic_permutation, table_bytes, Lcg};
use crate::InputSet;
use preexec_isa::{Program, ProgramBuilder, Reg};

/// Node count for the train input: 128 K nodes × 64 B = 8 MB.
const TRAIN_NODES: usize = 128 * 1024;
/// Chase hops for the train input.
const TRAIN_HOPS: i64 = 70_000;

/// Builds the kernel for `input`.
pub fn build(input: InputSet) -> Program {
    let nodes = input.scale(TRAIN_NODES, 0.0625); // test: 512 KB, still > L2
    let hops = match input {
        InputSet::Test => TRAIN_HOPS / 8,
        _ => TRAIN_HOPS,
    };
    let mut rng = Lcg::new(0x6d6366 ^ input.seed()); // "mcf"
                                                     // Two independent successor permutations: whichever field is followed,
                                                     // the walk keeps visiting fresh nodes.
    let succ_a = cyclic_permutation(nodes, &mut rng);
    let succ_b = cyclic_permutation(nodes, &mut rng);

    // Node layout (64 B): [succ_a, succ_b, selector, cost, ...pad].
    let mut table = vec![0u64; nodes * 8];
    for i in 0..nodes {
        table[i * 8] = succ_a[i];
        table[i * 8 + 1] = succ_b[i];
        table[i * 8 + 2] = rng.below(2);
        table[i * 8 + 3] = rng.below(1000);
    }
    let base = super::table_base(0);

    let mut b = ProgramBuilder::new("mcf");
    let (nbase, i, n, cur, addr, sel, cost, acc, s, k1, k2, bit) = (
        Reg::new(1),
        Reg::new(2),
        Reg::new(3),
        Reg::new(4),
        Reg::new(5),
        Reg::new(6),
        Reg::new(7),
        Reg::new(9),
        Reg::new(10),
        Reg::new(11),
        Reg::new(12),
        Reg::new(13),
    );
    b.li(nbase, base as i64);
    b.li(i, 0);
    b.li(n, hops);
    b.li(cur, 0);
    b.li(s, 0x853c49e6748fea9bu64 as i64);
    b.li(k1, 6364136223846793005u64 as i64);
    b.li(k2, 1442695040888963407u64 as i64);
    b.label("top");
    b.bge(i, n, "done");
    b.sll(addr, cur, 6);
    b.add(addr, addr, nbase);
    b.ld(sel, 16, addr); // the problem load: selector (first touch misses)
    b.ld(cost, 24, addr); // same line: cost
    b.add(acc, acc, cost);
    // Mix the node's selector with a per-visit pseudo-random bit so the
    // walk never collapses into a short functional-graph cycle.
    b.mul(s, s, k1);
    b.add(s, s, k2);
    b.srl(bit, s, 33);
    b.andi(bit, bit, 1);
    b.xor(sel, sel, bit);
    b.andi(sel, sel, 1);
    // Data-dependent successor choice: the control divergence that makes
    // deep slices cover exponentially few misses.
    b.beq(sel, Reg::ZERO, "path_b");
    b.ld(cur, 0, addr); // successor A
    b.j("cont");
    b.label("path_b");
    b.ld(cur, 8, addr); // successor B
    b.label("cont");
    b.addi(i, i, 1);
    b.j("top");
    b.label("done");
    b.halt();
    b.data(base, table_bytes(&table));
    b.build().expect("mcf kernel builds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_func::{run_trace, TraceConfig};

    #[test]
    fn builds_for_all_inputs() {
        for input in InputSet::all() {
            let p = build(input);
            assert_eq!(p.validate(), Ok(()));
            assert!(!p.data_segments().is_empty());
        }
    }

    #[test]
    fn chase_misses_heavily() {
        let p = build(InputSet::Train);
        let cfg = TraceConfig {
            max_steps: 400_000,
            ..TraceConfig::default()
        };
        let stats = run_trace(&p, &cfg, |_| {});
        let mpki = stats.l2_mpki();
        assert!(mpki > 40.0, "mcf must be miss-dominated, got {mpki} mpki");
        // The selector load (pc 6, first touch of each node line)
        // dominates the misses.
        let top = stats.problem_loads()[0];
        assert_eq!(p.inst(top.0).to_string(), "ld r6, 16(r5)");
    }

    #[test]
    fn successor_branch_is_data_dependent() {
        let p = build(InputSet::Train);
        let cfg = TraceConfig {
            max_steps: 400_000,
            ..TraceConfig::default()
        };
        let stats = run_trace(&p, &cfg, |_| {});
        // Roughly half the nodes take each successor path. Conditional
        // branches: loop bge (never taken until end) + selector beq.
        let rate = stats.taken_branches as f64 / stats.branches as f64;
        assert!(rate > 0.2 && rate < 0.5, "selector split broken: {rate}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(build(InputSet::Train), build(InputSet::Train));
        assert_ne!(build(InputSet::Train), build(InputSet::Alt));
    }
}
