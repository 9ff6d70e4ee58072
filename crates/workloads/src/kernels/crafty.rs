//! `crafty` analogue: transposition-table probing with data-dependent
//! branches.
//!
//! SPEC's `crafty` (chess) probes a hash table with Zobrist keys and
//! branches on search state; its main thread is mispredict-bound, which
//! the paper notes causes full-coverage *under*-estimation (the slow main
//! thread gives p-threads extra slack). The hash chain is pure ALU, so
//! p-threads can compute probe addresses arbitrarily far ahead.

use crate::util::Lcg;
use crate::InputSet;
use preexec_isa::{Program, ProgramBuilder, Reg};

/// Transposition table for train: 64 K lines = 4 MB.
const TRAIN_LINES: usize = 64 * 1024;
/// Probes for train.
const TRAIN_ITERS: i64 = 50_000;

/// Builds the kernel for `input`.
pub fn build(input: InputSet) -> Program {
    let lines = input.scale(TRAIN_LINES, 0.125);
    let iters = match input {
        InputSet::Test => TRAIN_ITERS / 8,
        _ => TRAIN_ITERS,
    };
    let mut rng = Lcg::new(0x6372_6166 ^ input.seed()); // "craf"
    let table: Vec<u8> = (0..lines * 64).map(|_| rng.below(256) as u8).collect();
    let tbase = super::table_base(0);
    let mask = (lines - 1) as i64;

    let mut b = ProgramBuilder::new("crafty");
    let (tb, i, n, h, k1, k2, idx, a, v, t, acc, acc2) = (
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
    b.li(tb, tbase as i64);
    b.li(i, 0);
    b.li(n, iters);
    b.li(h, 0x9e3779b97f4a7c15u64 as i64);
    b.li(k1, 6364136223846793005u64 as i64);
    b.li(k2, 1442695040888963407u64 as i64);
    b.label("top");
    b.bge(i, n, "done");
    // Zobrist-ish mixing: an LCG step plus xor-shift (pure ALU, so a
    // p-thread can run it ahead of the main thread).
    b.mul(h, h, k1);
    b.add(h, h, k2);
    b.srl(t, h, 29);
    b.xor(h, h, t);
    // Probe address.
    b.srl(idx, h, 33);
    b.andi(idx, idx, mask);
    b.sll(a, idx, 6);
    b.add(a, a, tb);
    b.ld(v, 0, a); // the problem load: TT probe
                   // Data-dependent branches on the probed entry (mispredict-heavy).
    b.andi(t, v, 1);
    b.beq(t, Reg::ZERO, "miss1");
    b.add(acc, acc, v);
    b.j("next1");
    b.label("miss1");
    b.addi(acc2, acc2, 1);
    b.label("next1");
    b.andi(t, v, 2);
    b.beq(t, Reg::ZERO, "next2");
    b.xor(acc, acc, v);
    b.label("next2");
    b.addi(i, i, 1);
    b.j("top");
    b.label("done");
    b.halt();
    b.data(tbase, table);
    b.build().expect("crafty kernel builds")
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
    fn probes_miss_and_branches_are_data_dependent() {
        let p = build(InputSet::Train);
        let cfg = TraceConfig {
            max_steps: 500_000,
            ..TraceConfig::default()
        };
        let stats = run_trace(&p, &cfg, |_| {});
        assert!(stats.l2_misses > 5_000, "misses {}", stats.l2_misses);
        // Taken rate of conditional branches is mixed (neither ~0 nor ~1),
        // the signature of data-dependent branching.
        let rate = stats.taken_branches as f64 / stats.branches as f64;
        assert!(rate > 0.2 && rate < 0.8, "taken rate {rate}");
    }
}
