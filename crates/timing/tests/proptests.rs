//! Property tests on the timing simulator: conservation laws and
//! mode orderings that must hold for any program.

use preexec_isa::{Inst, Program, Reg};
use preexec_timing::{simulate, BranchPredictor, SimConfig};
use proptest::prelude::*;

/// A random straight-line ALU program (always halts).
fn program_strategy() -> impl Strategy<Value = Program> {
    prop::collection::vec((0u8..4, 1u8..8, 1u8..8, -64i64..64), 1..60).prop_map(|ops| {
        let mut p = Program::new("prop");
        for (kind, rd, rs, imm) in ops {
            let (rd, rs) = (Reg::new(rd), Reg::new(rs));
            let inst = match kind {
                0 => Inst::itype(preexec_isa::Op::Addi, rd, rs, imm),
                1 => Inst::rtype(preexec_isa::Op::Add, rd, rs, rs),
                2 => Inst::li(rd, imm),
                _ => Inst::rtype(preexec_isa::Op::Mul, rd, rs, rs),
            };
            p.push(inst);
        }
        p.push(Inst::halt());
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every instruction retires exactly once; IPC never exceeds width.
    #[test]
    fn retirement_conservation(p in program_strategy()) {
        let r = simulate(&p, &[], &SimConfig::default());
        prop_assert_eq!(r.insts, p.len() as u64);
        prop_assert!(r.ipc() <= 8.0 + 1e-9);
        prop_assert!(r.cycles >= p.len() as u64 / 8);
    }

    /// Perfect-L2 mode never runs slower than the normal machine.
    #[test]
    fn perfect_l2_never_slower(p in program_strategy()) {
        let base = simulate(&p, &[], &SimConfig::default());
        let perfect = simulate(&p, &[], &SimConfig { perfect_l2: true, ..SimConfig::default() });
        prop_assert!(perfect.cycles <= base.cycles + 2);
    }

    /// The branch predictor's counters are conserved for any outcome
    /// sequence, and a perfectly biased branch converges.
    #[test]
    fn predictor_conservation(outcomes in prop::collection::vec(any::<bool>(), 1..500)) {
        let mut bp = BranchPredictor::new();
        for &t in &outcomes {
            let _ = bp.predict_and_update(17, t, Some(3));
        }
        prop_assert_eq!(bp.lookups(), outcomes.len() as u64);
        prop_assert!(bp.mispredicts() <= bp.lookups());
    }
}
