//! `vpr.place` analogue: two-level netlist indirection with a small test
//! working set.
//!
//! VPR's placer evaluates random swaps by walking net → pin → position
//! tables. Two levels of indirection off an ALU-computable net id. Its
//! `test` netlist is small — in the paper, small enough that the L2 holds
//! it and the static-profile scenario selects no p-threads.

use crate::util::{table_bytes, Lcg};
use crate::InputSet;
use preexec_isa::{Program, ProgramBuilder, Reg};

/// Nets for train: 64 K.
const TRAIN_NETS: usize = 64 * 1024;
/// Pin-position lines for train: 64 K = 4 MB.
const TRAIN_POS: usize = 64 * 1024;
/// Swap evaluations for train.
const TRAIN_ITERS: i64 = 35_000;

/// Builds the kernel for `input`.
pub fn build(input: InputSet) -> Program {
    // Test: nets 1K (8 KB) + positions 1K lines (64 KB) fits the L2.
    let nets = input.scale(TRAIN_NETS, 0.0156);
    let pos_lines = input.scale(TRAIN_POS, 0.0156);
    let iters = match input {
        InputSet::Test => TRAIN_ITERS / 8,
        _ => TRAIN_ITERS,
    };
    let mut rng = Lcg::new(0x7670_7270 ^ input.seed()); // "vprp"
    let net_base = super::table_base(0);
    let pos_base = super::table_base(1);

    // Net table: each net names two pins (packed in one doubleword pair).
    let mut net_tbl = vec![0u64; nets * 2];
    for i in 0..nets {
        net_tbl[i * 2] = rng.below(pos_lines as u64);
        net_tbl[i * 2 + 1] = rng.below(pos_lines as u64);
    }
    let positions: Vec<u8> = (0..pos_lines * 64).map(|_| rng.below(256) as u8).collect();

    let mut b = ProgramBuilder::new("vpr.p");
    let (nb, pb, i, n, s, k1, k2, net, a, p1, p2, x, y, acc) = (
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
    b.li(nb, net_base as i64);
    b.li(pb, pos_base as i64);
    b.li(i, 0);
    b.li(n, iters);
    b.li(s, 0xb5297a4d3f84d5b5u64 as i64);
    b.li(k1, 6364136223846793005u64 as i64);
    b.li(k2, 1442695040888963407u64 as i64);
    b.label("top");
    b.bge(i, n, "done");
    // Random net id (ALU).
    b.mul(s, s, k1);
    b.add(s, s, k2);
    b.srl(net, s, 33);
    b.andi(net, net, (nets - 1) as i64);
    // Level 1: the net's two pins.
    b.sll(a, net, 4);
    b.add(a, a, nb);
    b.ld(p1, 0, a);
    b.ld(p2, 8, a);
    // Level 2: each pin's position line (the problem loads).
    b.sll(a, p1, 6);
    b.add(a, a, pb);
    b.ld(x, 0, a);
    b.sll(a, p2, 6);
    b.add(a, a, pb);
    b.ld(y, 0, a);
    // Cost arithmetic.
    b.sub(x, x, y);
    b.mul(x, x, x);
    b.add(acc, acc, x);
    b.addi(i, i, 1);
    b.j("top");
    b.label("done");
    b.halt();
    b.data(net_base, table_bytes(&net_tbl));
    b.data(pos_base, positions);
    b.build().expect("vpr.p kernel builds")
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
    fn train_misses_test_fits_l2() {
        let cfg = TraceConfig {
            max_steps: 600_000,
            ..TraceConfig::default()
        };
        let train = run_trace(&build(InputSet::Train), &cfg, |_| {});
        assert!(train.l2_misses > 4_000, "train misses {}", train.l2_misses);
        let test = run_trace(&build(InputSet::Test), &cfg, |_| {});
        assert!(
            (test.l2_misses as f64) < 0.10 * test.loads as f64,
            "test input must be L2-resident: {} misses / {} loads",
            test.l2_misses,
            test.loads
        );
    }
}
