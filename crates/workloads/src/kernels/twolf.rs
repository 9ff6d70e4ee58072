//! `twolf` analogue: sparse miss computations in a placement loop.
//!
//! SPEC's `twolf` (standard-cell placement) computes cell indices early in
//! a long iteration and dereferences them much later, with unrelated work
//! in between. The paper calls this structure out explicitly: *"sparse
//! computations which can achieve latency tolerance with small
//! computations, but need large windows to 'see' these computations"* —
//! `twolf` is scope-sensitive. Its `test` working set fits in the L2
//! (Figure 7: no p-threads selected in the static scenario).

use crate::util::Lcg;
use crate::InputSet;
use preexec_isa::{Program, ProgramBuilder, Reg};

/// Cell-position table for train: 64 K lines = 4 MB.
const TRAIN_LINES: usize = 64 * 1024;
/// Swap evaluations for train.
const TRAIN_ITERS: i64 = 30_000;

/// Builds the kernel for `input`.
pub fn build(input: InputSet) -> Program {
    // Test input fits in the 256 KB L2: 1.5 K lines = 96 KB.
    let lines = input.scale(TRAIN_LINES, 0.0234);
    let iters = match input {
        InputSet::Test => TRAIN_ITERS / 4, // enough to amortize cold misses
        _ => TRAIN_ITERS,
    };
    let mut rng = Lcg::new(0x7477_6f6c ^ input.seed()); // "twol"
    let table: Vec<u8> = (0..lines * 64).map(|_| rng.below(256) as u8).collect();
    let tbase = super::table_base(0);
    let mask = (lines - 1) as i64;

    let mut b = ProgramBuilder::new("twolf");
    let (tb, i, n, s, k1, k2, idx1, idx2, a, v, t, acc) = (
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
    b.li(s, 0x2545f4914f6cdd1du64 as i64);
    b.li(k1, 6364136223846793005u64 as i64);
    b.li(k2, 1442695040888963407u64 as i64);
    b.label("top");
    b.bge(i, n, "done");
    // Pick two cells EARLY (short, cheap computations).
    b.mul(s, s, k1);
    b.add(s, s, k2);
    b.srl(idx1, s, 33);
    b.andi(idx1, idx1, mask);
    b.srl(idx2, s, 13);
    b.andi(idx2, idx2, mask);
    // ... then a long stretch of unrelated cost arithmetic (the sparse
    // gap the slicer must see across).
    for k in 0..24 {
        b.addi(acc, acc, (k % 7) + 1);
    }
    // ... and only now dereference the cells computed above.
    b.sll(a, idx1, 6);
    b.add(a, a, tb);
    b.ld(v, 0, a); // problem load 1
    b.add(acc, acc, v);
    b.sll(a, idx2, 6);
    b.add(a, a, tb);
    b.ld(t, 0, a); // problem load 2
    b.add(acc, acc, t);
    b.addi(i, i, 1);
    b.j("top");
    b.label("done");
    b.halt();
    b.data(tbase, table);
    b.build().expect("twolf kernel builds")
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
        // 96 KB working set in a 256 KB L2: only cold misses.
        assert!(
            (test.l2_misses as f64) < 0.10 * test.loads as f64,
            "test input must be L2-resident: {} misses / {} loads",
            test.l2_misses,
            test.loads
        );
    }

    #[test]
    fn computation_is_sparse() {
        // The two problem loads sit ~24 instructions after the index
        // computation: iteration length must exceed 30.
        let p = build(InputSet::Train);
        let cfg = TraceConfig {
            max_steps: 100_000,
            ..TraceConfig::default()
        };
        let stats = run_trace(&p, &cfg, |_| {});
        let iters = stats.insts / 40; // approximate
        assert!(iters > 1000);
    }
}
