//! Property tests: the CPU interpreter agrees with the pure operation
//! semantics, sampling schedules partition the instruction stream, and
//! checkpointed re-execution reproduces the recording run exactly.

use preexec_func::exec;
use preexec_func::{
    try_run_trace_checkpointed, Cpu, MeasuredRegion, Phase, Replayer, Sampling, TraceConfig,
};
use preexec_isa::{Inst, Op, Program, ProgramBuilder, Reg};
use preexec_mem::Memory;
use proptest::prelude::*;

fn alu_op() -> impl Strategy<Value = Op> {
    prop::sample::select(vec![
        Op::Add,
        Op::Sub,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Nor,
        Op::Slt,
        Op::Sltu,
        Op::Mul,
    ])
}

proptest! {
    /// Stepping an r-type instruction through the CPU produces exactly
    /// `exec::alu` of the source values.
    #[test]
    fn cpu_matches_alu_semantics(op in alu_op(), a in any::<i64>(), b in any::<i64>()) {
        let mut p = Program::new("t");
        p.push(Inst::li(Reg::new(1), a));
        p.push(Inst::li(Reg::new(2), b));
        p.push(Inst::rtype(op, Reg::new(3), Reg::new(1), Reg::new(2)));
        p.push(Inst::halt());
        let mut cpu = Cpu::new(&p);
        let mut mem = Memory::new();
        while !cpu.halted() {
            cpu.step(&p, &mut mem);
        }
        prop_assert_eq!(cpu.reg(Reg::new(3)), exec::alu(op, a, b, 0));
    }

    /// Memory round trip through the CPU at every width.
    #[test]
    fn cpu_memory_round_trip(addr in 0u64..1_000_000, value in any::<i64>()) {
        let mut p = Program::new("t");
        p.push(Inst::li(Reg::new(1), addr as i64));
        p.push(Inst::li(Reg::new(2), value));
        p.push(Inst::store(Op::Sd, Reg::new(2), Reg::new(1), 0));
        p.push(Inst::load(Op::Ld, Reg::new(3), Reg::new(1), 0));
        p.push(Inst::halt());
        let mut cpu = Cpu::new(&p);
        let mut mem = Memory::new();
        while !cpu.halted() {
            cpu.step(&p, &mut mem);
        }
        prop_assert_eq!(cpu.reg(Reg::new(3)), value);
    }

    /// Branch semantics: the CPU takes a branch exactly when
    /// `exec::branch_taken` says so.
    #[test]
    fn cpu_matches_branch_semantics(
        op in prop::sample::select(vec![Op::Beq, Op::Bne, Op::Blt, Op::Bge, Op::Ble, Op::Bgt]),
        a in -100i64..100,
        b in -100i64..100,
    ) {
        let mut p = Program::new("t");
        p.push(Inst::li(Reg::new(1), a));
        p.push(Inst::li(Reg::new(2), b));
        p.push(Inst::branch(op, Reg::new(1), Reg::new(2), 4));
        p.push(Inst::li(Reg::new(3), 1)); // fallthrough marker
        p.push(Inst::halt());
        let mut cpu = Cpu::new(&p);
        let mut mem = Memory::new();
        while !cpu.halted() {
            cpu.step(&p, &mut mem);
        }
        let fell_through = cpu.reg(Reg::new(3)) == 1;
        prop_assert_eq!(!fell_through, exec::branch_taken(op, a, b));
    }

    /// Over any window, phase counts match the schedule's arithmetic.
    #[test]
    fn sampling_partitions(off in 0u64..50, warm in 0u64..50, on in 1u64..50) {
        let s = Sampling::new(off, warm, on);
        let period = s.period();
        let mut counts = [0u64; 3];
        for n in 0..period * 3 {
            match s.phase(n) {
                Phase::Off => counts[0] += 1,
                Phase::Warm => counts[1] += 1,
                Phase::On => counts[2] += 1,
            }
        }
        prop_assert_eq!(counts[0], off * 3);
        prop_assert_eq!(counts[1], warm * 3);
        prop_assert_eq!(counts[2], on * 3);
    }
}

/// A randomized pointer-chase kernel with a store/reload side channel:
/// walks a cyclic permutation over a `2^table_pow`-entry successor table
/// (odd stride ⇒ a single full cycle), spills a running accumulator to a
/// scratch slot and reloads it next iteration (cross-iteration memory
/// dependence through the dirty-page set), with seed-dependent ALU
/// filler. The loop is unbounded — the step budget terminates it.
fn chase_program(seed: u64, table_pow: u32, stride: u64, filler: u8) -> Program {
    let n = 1u64 << table_pow;
    let stride = stride | 1; // odd ⇒ coprime with a power of two
    let table: Vec<u8> = (0..n)
        .flat_map(|i| ((i + stride) % n).to_le_bytes())
        .collect();
    let base = 0x1000_0000u64;
    let scratch = 0x2000_0000u64;

    let (tbase, cur, addr, acc, s, sp) = (
        Reg::new(1),
        Reg::new(2),
        Reg::new(3),
        Reg::new(4),
        Reg::new(5),
        Reg::new(6),
    );
    let mut b = ProgramBuilder::new("chase");
    b.li(tbase, base as i64);
    b.li(cur, (seed % n) as i64);
    b.li(s, (seed | 1) as i64);
    b.li(sp, scratch as i64);
    b.label("top");
    b.sll(addr, cur, 3);
    b.add(addr, addr, tbase);
    b.ld(cur, 0, addr);
    b.sd(acc, 0, sp); // spill …
    for k in 0..(filler % 4) {
        match k {
            0 => b.add(acc, acc, cur),
            1 => b.xor(s, s, acc),
            2 => b.mul(s, s, cur),
            _ => b.srl(acc, s, 7),
        };
    }
    b.ld(acc, 0, sp); // … and reload across the filler
    b.j("top");
    b.data(base, table);
    b.build().expect("chase kernel builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Replaying from *every* checkpoint of a checkpointed trace
    /// reproduces the recording run exactly: the same final [`RunStats`]
    /// (including the per-site load breakdown — Debug equality is field
    /// equality) and the same emitted-instruction tail, over randomized
    /// programs, checkpoint cadences, step budgets, sampling schedules,
    /// and measured-region starts (checkpoints before the start carry
    /// uncounted statistics, checkpoints after it counted ones).
    #[test]
    fn replay_from_every_checkpoint_reproduces_the_recording_run(
        seed in any::<u64>(),
        table_pow in 8u32..12,          // 2 KB .. 32 KB footprint
        stride in 1u64..512,
        filler in any::<u8>(),
        every in 1u64..1500,
        budget in 500u64..4_000,
        off in 0u64..40,
        warm in 0u64..40,
        on in 1u64..60,
        start in 1u64..2_000,
    ) {
        let p = chase_program(seed, table_pow, stride, filler);
        let config = TraceConfig {
            sampling: Sampling::new(off, warm, on),
            max_steps: budget,
            measured: MeasuredRegion { start, end: u64::MAX },
            ..TraceConfig::default()
        };
        let mut full: Vec<String> = Vec::new();
        let (stats, trace) =
            try_run_trace_checkpointed(&p, &config, every, |d| full.push(format!("{d:?}")))
                .expect("recording run");
        prop_assert_eq!(full.len() as u64, trace.emitted());
        let stats_key = format!("{stats:?}");
        let replayer = Replayer::new(&p, &config, &trace);
        for i in 0..trace.num_checkpoints() {
            let start = trace.interval_start(i) as usize;
            let mut tail: Vec<String> = Vec::new();
            let rstats = replayer
                .try_replay(i, |d| {
                    tail.push(format!("{d:?}"));
                    true
                })
                .expect("replay runs");
            prop_assert_eq!(
                format!("{rstats:?}"),
                stats_key.clone(),
                "stats diverge replaying from checkpoint {}", i
            );
            prop_assert_eq!(
                &tail[..],
                &full[start..],
                "emitted stream diverges replaying from checkpoint {}", i
            );
        }
    }
}
