//! `vpr.route` analogue: single indirection off a sequential frontier.
//!
//! VPR's router expands a wavefront: it scans a frontier array (sequential,
//! prefetch-friendly) of routing-resource ids and touches each one's cost
//! entry (scattered, missing). The address computation is one sequential
//! load plus shift/add — maximally computable ahead, which is why the
//! paper covers 82% of `vpr.p`/`vpr.r`-class misses with p-threads. This
//! is the suite's best-case kernel.

use crate::util::{table_bytes, Lcg};
use crate::InputSet;
use preexec_isa::{Program, ProgramBuilder, Reg};

/// Frontier entries for train.
const TRAIN_FRONTIER: usize = 80_000;
/// Cost-table lines for train: 128 K = 8 MB.
const TRAIN_COST: usize = 128 * 1024;

/// Builds the kernel for `input`.
pub fn build(input: InputSet) -> Program {
    let frontier_len = match input {
        InputSet::Test => TRAIN_FRONTIER / 8,
        _ => TRAIN_FRONTIER,
    };
    let cost_lines = input.scale(TRAIN_COST, 0.03125); // test: 256 KB-ish
    let mut rng = Lcg::new(0x7670_7272 ^ input.seed()); // "vprr"
    let f_base = super::table_base(0);
    let c_base = super::table_base(1);

    let frontier: Vec<u64> = (0..frontier_len)
        .map(|_| rng.below(cost_lines as u64))
        .collect();
    let cost: Vec<u8> = (0..cost_lines * 64).map(|_| rng.below(256) as u8).collect();

    let mut b = ProgramBuilder::new("vpr.r");
    let (fb, cb, i, n, pf, idx, a, c, t, acc) = (
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
    );
    b.li(fb, f_base as i64);
    b.li(cb, c_base as i64);
    b.li(i, 0);
    b.li(n, frontier_len as i64);
    b.mov(pf, fb);
    b.label("top");
    b.bge(i, n, "done");
    b.ld(idx, 0, pf); // frontier entry (sequential)
    b.sll(a, idx, 6);
    b.add(a, a, cb);
    b.ld(c, 0, a); // the problem load: cost entry
                   // Relax-or-skip on the loaded cost: a data-dependent branch. VPR's
                   // router is mispredict-heavy (the paper groups vpr.r with crafty and
                   // gcc), which serializes the *main* thread behind each miss while the
                   // control-less p-thread runs ahead unimpeded.
    b.andi(t, c, 1);
    b.beq(t, Reg::ZERO, "skip");
    b.add(acc, acc, c);
    b.j("cont");
    b.label("skip");
    b.xor(acc, acc, c);
    b.label("cont");
    b.addi(pf, pf, 8);
    b.addi(i, i, 1);
    b.j("top");
    b.label("done");
    b.halt();
    b.data(f_base, table_bytes(&frontier));
    b.data(c_base, cost);
    b.build().expect("vpr.r kernel builds")
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
    fn cost_load_misses_frontier_mostly_hits() {
        let p = build(InputSet::Train);
        let cfg = TraceConfig {
            max_steps: 500_000,
            ..TraceConfig::default()
        };
        let stats = run_trace(&p, &cfg, |_| {});
        assert!(stats.l2_misses > 5_000, "misses {}", stats.l2_misses);
        let top = stats.problem_loads()[0];
        assert_eq!(p.inst(top.0).to_string(), "ld r8, 0(r7)");
        let frontier_site = stats
            .load_sites
            .iter()
            .find(|(&pc, _)| p.inst(pc).to_string() == "ld r6, 0(r5)")
            .map(|(_, s)| *s)
            .expect("frontier site");
        assert!(frontier_site.l2_misses * 4 < frontier_site.execs);
    }
}
