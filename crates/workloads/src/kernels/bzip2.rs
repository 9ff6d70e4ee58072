//! `bzip2` analogue: data-dependent permutation indices into a big table.
//!
//! SPEC's `bzip2` builds Burrows–Wheeler permutations whose table indices
//! are computed from the input bytes — unpredictable addresses, but the
//! computation is short and runs off a sequential byte stream, so
//! p-threads can race ahead easily: good coverage expected.

use crate::util::Lcg;
use crate::InputSet;
use preexec_isa::{Program, ProgramBuilder, Reg};

/// Input stream for train: 1 MB of bytes.
const TRAIN_STREAM: usize = 1 << 20;
/// Work table for train: 64 K × 64 B = 4 MB.
const TRAIN_LINES: usize = 64 * 1024;
/// Iterations (bytes consumed) for train.
const TRAIN_ITERS: i64 = 80_000;

/// Builds the kernel for `input`.
pub fn build(input: InputSet) -> Program {
    let stream_len = input.scale(TRAIN_STREAM, 0.25);
    let lines = input.scale(TRAIN_LINES, 0.125); // test: 512 KB, > L2
    let iters = match input {
        InputSet::Test => TRAIN_ITERS / 8,
        _ => TRAIN_ITERS,
    };
    let mut rng = Lcg::new(0x627a_6970 ^ input.seed()); // "bzip"
    let stream: Vec<u8> = (0..stream_len).map(|_| rng.below(256) as u8).collect();
    let table: Vec<u8> = (0..lines * 64).map(|_| rng.below(256) as u8).collect();
    let sbase = super::table_base(0);
    let tbase = super::table_base(1);
    let mask = (lines - 1) as i64;

    let mut b = ProgramBuilder::new("bzip2");
    let (sb, tb, i, n, pb, byte, idx, t, a, v, acc) = (
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
    );
    b.li(sb, sbase as i64);
    b.li(tb, tbase as i64);
    b.li(i, 0);
    b.li(n, iters);
    b.mov(pb, sb);
    b.li(idx, 0);
    b.label("top");
    b.bge(i, n, "done");
    b.lb(byte, 0, pb); // sequential byte (mostly L1 hits)
    b.sll(t, idx, 5); // idx = (idx*31 + byte) & mask
    b.sub(t, t, idx);
    b.add(t, t, byte);
    b.andi(idx, t, mask);
    b.sll(a, idx, 6); // table line address
    b.add(a, a, tb);
    b.ld(v, 0, a); // the problem load
    b.add(acc, acc, v);
    // Frequency-table bookkeeping: a dependent chain the p-thread gets to
    // skip (bzip2's per-symbol MTF/rank update work).
    for _ in 0..8 {
        b.addi(acc, acc, 1);
    }
    b.sll(acc, acc, 1);
    b.srl(acc, acc, 1);
    b.addi(pb, pb, 1);
    b.addi(i, i, 1);
    b.j("top");
    b.label("done");
    b.halt();
    b.data(sbase, stream);
    b.data(tbase, table);
    b.build().expect("bzip2 kernel builds")
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
    fn table_load_dominates_misses() {
        let p = build(InputSet::Train);
        let cfg = TraceConfig {
            max_steps: 400_000,
            ..TraceConfig::default()
        };
        let stats = run_trace(&p, &cfg, |_| {});
        assert!(stats.l2_misses > 5_000, "misses {}", stats.l2_misses);
        // The table load (not the byte load) is the problem load.
        let top = stats.problem_loads()[0];
        let inst = p.inst(top.0);
        assert_eq!(inst.to_string(), "ld r10, 0(r9)");
    }

    #[test]
    fn byte_stream_mostly_hits() {
        let p = build(InputSet::Train);
        let cfg = TraceConfig {
            max_steps: 400_000,
            ..TraceConfig::default()
        };
        let stats = run_trace(&p, &cfg, |_| {});
        // The lb site must have a tiny miss ratio (1 per 32 bytes at L1).
        let lb_site = stats
            .load_sites
            .iter()
            .find(|(&pc, _)| p.inst(pc).op == preexec_isa::Op::Lb)
            .map(|(_, s)| *s)
            .expect("lb site present");
        assert!(lb_site.l2_misses * 20 < lb_site.execs);
    }
}
