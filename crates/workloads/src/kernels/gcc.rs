//! `gcc` analogue: variable-stride record walking.
//!
//! SPEC's `gcc` traverses irregular in-memory IR structures where the next
//! record's position is computed from header fields of the current one — a
//! "semi-chase": serialized like a pointer chase, but with a short ALU
//! computation between hops and branches on record kinds. Coverage is
//! moderate: p-threads must re-execute the hop computation.

use crate::util::Lcg;
use crate::InputSet;
use preexec_isa::{Program, ProgramBuilder, Reg};

/// Record region for train: 8 MB.
const TRAIN_REGION: usize = 8 * 1024 * 1024;
/// Record hops for train.
const TRAIN_ITERS: i64 = 60_000;

/// Builds the kernel for `input`.
pub fn build(input: InputSet) -> Program {
    let region = input.scale(TRAIN_REGION, 0.0625);
    let iters = match input {
        InputSet::Test => TRAIN_ITERS / 8,
        _ => TRAIN_ITERS,
    };
    let mut rng = Lcg::new(0x6763_6300 ^ input.seed()); // "gcc"
    let bytes: Vec<u8> = (0..region).map(|_| rng.below(256) as u8).collect();
    let base = super::table_base(0);
    let mask = (region - 1) as i64;

    let mut b = ProgramBuilder::new("gcc");
    let (rb, i, n, pos, a, hdr, t, acc, acc2) = (
        Reg::new(1),
        Reg::new(2),
        Reg::new(3),
        Reg::new(4),
        Reg::new(5),
        Reg::new(6),
        Reg::new(7),
        Reg::new(9),
        Reg::new(10),
    );
    b.li(rb, base as i64);
    b.li(i, 0);
    b.li(n, iters);
    b.li(pos, 0);
    b.label("top");
    b.bge(i, n, "done");
    b.add(a, rb, pos);
    b.ld(hdr, 0, a); // the problem load: record header
                     // Next position: header-dependent stride of 64..4096+64 bytes.
    b.andi(t, hdr, 63);
    b.sll(t, t, 6);
    b.addi(t, t, 64);
    b.add(pos, pos, t);
    b.andi(pos, pos, mask & !63);
    // Branch on record kind.
    b.andi(t, hdr, 7);
    b.beq(t, Reg::ZERO, "rare");
    b.add(acc, acc, hdr);
    b.j("next");
    b.label("rare");
    b.xor(acc2, acc2, hdr);
    b.label("next");
    b.addi(i, i, 1);
    b.j("top");
    b.label("done");
    b.halt();
    b.data(base, bytes);
    b.build().expect("gcc kernel builds")
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
    fn record_walk_misses() {
        let p = build(InputSet::Train);
        let cfg = TraceConfig {
            max_steps: 400_000,
            ..TraceConfig::default()
        };
        let stats = run_trace(&p, &cfg, |_| {});
        // Average stride ~2 KB over 8 MB: most hops land on fresh lines.
        assert!(stats.l2_misses > 5_000, "misses {}", stats.l2_misses);
    }

    #[test]
    fn position_stays_aligned_and_bounded() {
        // The masked, 64-aligned position never leaves the region: the
        // final accumulators must be deterministic.
        let p1 = build(InputSet::Train);
        let p2 = build(InputSet::Train);
        assert_eq!(p1, p2);
    }
}
