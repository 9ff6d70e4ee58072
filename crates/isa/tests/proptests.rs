//! Property tests: the assembler and disassembler are inverses.

use preexec_isa::{assemble, Inst, Op, Program, Reg};
use proptest::prelude::*;

fn reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg::new)
}

/// An arbitrary instruction whose branch/jump targets are small (patched
/// to be in range after program assembly).
fn inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        (reg(), reg(), reg()).prop_map(|(d, s, t)| Inst::rtype(Op::Add, d, s, t)),
        (reg(), reg(), reg()).prop_map(|(d, s, t)| Inst::rtype(Op::Mul, d, s, t)),
        (reg(), reg(), reg()).prop_map(|(d, s, t)| Inst::rtype(Op::Xor, d, s, t)),
        (reg(), reg(), -4096i64..4096).prop_map(|(d, s, i)| Inst::itype(Op::Addi, d, s, i)),
        (reg(), reg(), 0i64..64).prop_map(|(d, s, i)| Inst::itype(Op::Sll, d, s, i)),
        (reg(), -100_000i64..100_000).prop_map(|(d, i)| Inst::li(d, i)),
        (reg(), reg()).prop_map(|(d, s)| Inst::mov(d, s)),
        (reg(), reg(), -256i64..256).prop_map(|(d, b, o)| Inst::load(Op::Ld, d, b, o)),
        (reg(), reg(), -256i64..256).prop_map(|(d, b, o)| Inst::load(Op::Lw, d, b, o)),
        (reg(), reg(), -256i64..256).prop_map(|(v, b, o)| Inst::store(Op::Sd, v, b, o)),
        (reg(), reg(), 0u32..4).prop_map(|(s, t, tgt)| Inst::branch(Op::Beq, s, t, tgt)),
        (reg(), reg(), 0u32..4).prop_map(|(s, t, tgt)| Inst::branch(Op::Blt, s, t, tgt)),
        (0u32..4).prop_map(|t| Inst::jump(Op::J, t)),
        reg().prop_map(Inst::jr),
        Just(Inst::nop()),
    ]
}

fn program(insts: Vec<Inst>) -> Program {
    let mut p = Program::new("prop");
    let len = insts.len().max(1) as u32;
    for mut i in insts {
        if let Some(t) = i.target {
            i.target = Some(t % len);
        }
        p.push(i);
    }
    p
}

proptest! {
    /// Disassembling a program and re-assembling it reproduces it.
    #[test]
    fn disassemble_assemble_roundtrip(insts in prop::collection::vec(inst(), 1..40)) {
        let original = program(insts);
        // Program's Display prefixes each line with `#NN: `, which the
        // assembler would treat as a comment; strip the prefixes (and the
        // header line) to recover plain assembly text.
        let text: String = original
            .to_string()
            .lines()
            .skip(1)
            .map(|l| l.split_once(": ").map(|(_, rest)| rest).unwrap_or(l))
            .collect::<Vec<_>>()
            .join("\n");
        let reassembled = assemble("prop", &text).expect("disassembly must assemble");
        prop_assert_eq!(original.len(), reassembled.len());
        for pc in 0..original.len() as u32 {
            prop_assert_eq!(original.inst(pc), reassembled.inst(pc), "pc {}", pc);
        }
    }

    /// Every instruction's def/use sets never mention the zero register.
    #[test]
    fn def_use_never_r0(i in inst()) {
        prop_assert!(i.def().is_none_or(|r| !r.is_zero()));
        prop_assert!(i.uses().all(|r| !r.is_zero()));
    }

    /// Display never panics and never produces empty text.
    #[test]
    fn display_total(i in inst()) {
        prop_assert!(!i.to_string().is_empty());
    }
}
