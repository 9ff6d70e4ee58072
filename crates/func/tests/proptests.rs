//! Property tests: the CPU interpreter agrees with the pure operation
//! semantics, and checkpointed re-execution reproduces the recording run
//! exactly.

use preexec_func::exec;
use preexec_func::{try_run_trace_checkpointed, Cpu, MeasuredRegion, Replayer, TraceConfig};
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
    /// `exec::try_alu` of the source values.
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
            cpu.try_step(&p, &mut mem).unwrap();
        }
        prop_assert_eq!(cpu.reg(Reg::new(3)), exec::try_alu(op, a, b, 0).unwrap());
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
            cpu.try_step(&p, &mut mem).unwrap();
        }
        prop_assert_eq!(cpu.reg(Reg::new(3)), value);
    }

    /// Branch semantics: the CPU takes a branch exactly when
    /// `exec::try_branch_taken` says so.
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
            cpu.try_step(&p, &mut mem).unwrap();
        }
        let fell_through = cpu.reg(Reg::new(3)) == 1;
        prop_assert_eq!(!fell_through, exec::try_branch_taken(op, a, b).unwrap());
    }
}

/// A pointer chase that stores into what it chases. It walks a cyclic
/// permutation over a `2^table_pow`-entry successor table (odd stride ⇒
/// a single full cycle), spills a running accumulator to a scratch slot
/// and reloads it across seed-dependent ALU filler. Each iteration then
/// stores into memory that the next one reads back first, so a replay
/// that reconstructs any of it wrong emits a different stream (every
/// load's value is in its `DynInst`):
/// - into the table entry the chase loads next: an unaligned `sd` and
///   `sw` that straddle the granule edge at its start (at entry 0 also
///   the table's start), keeping its successor index and putting a
///   counter in its other bytes, and an unaligned `sb` inside it;
/// - a `sw` across the table's end;
/// - a `sd` across the top of the address space, which wraps to 0;
/// - a `sb` into a scratch granule that the prologue wrote whole, so the
///   rest of the granule must come from the recorded bytes.
///
/// The loop is unbounded — the step budget terminates it.
fn chase_program(seed: u64, table_pow: u32, stride: u64, filler: u8) -> Program {
    let n = 1u64 << table_pow;
    let stride = stride | 1; // odd ⇒ coprime with a power of two
    let table: Vec<u8> = (0..n)
        .flat_map(|i| ((i + stride) % n).to_le_bytes())
        .collect();
    let base = 0x1000_0000u64;
    let end = 8 * n as i64; // the table's end, from its base
    let scratch = 0x2000_0000u64;

    let (tbase, cur, addr, acc, s, sp) = (
        Reg::new(1),
        Reg::new(2),
        Reg::new(3),
        Reg::new(4),
        Reg::new(5),
        Reg::new(6),
    );
    let (t, k, v, w, x) = (
        Reg::new(7),
        Reg::new(8),
        Reg::new(9),
        Reg::new(10),
        Reg::new(11),
    );
    let mut b = ProgramBuilder::new("chase");
    b.li(tbase, base as i64);
    b.li(cur, (seed % n) as i64);
    b.li(s, (seed | 1) as i64);
    b.li(sp, scratch as i64);
    b.sd(s, 8, sp); // the granule the loop's byte store rewrites in part
    b.label("top");
    b.sll(addr, cur, 3);
    b.add(addr, addr, tbase);
    b.ld(cur, 0, addr);
    b.andi(cur, cur, (n - 1) as i64); // an index whatever the stores wrote

    // Read back what the previous iteration stored.
    b.lw(t, end, tbase); // past the table's end
    b.ld(t, -8, Reg::ZERO); // below the top of the address space …
    b.lw(t, 0, Reg::ZERO); // … and from 0
    b.ld(t, 8, sp);
    b.sd(acc, 0, sp); // spill …
    for f in 0..(filler % 4) {
        match f {
            0 => b.add(acc, acc, cur),
            1 => b.xor(s, s, acc),
            2 => b.mul(s, s, cur),
            _ => b.srl(acc, s, 7),
        };
    }
    b.ld(acc, 0, sp); // … and reload across the filler

    // Store what the next iteration reads back.
    b.add(k, k, s);
    b.sll(t, cur, 3);
    b.add(t, t, tbase); // the entry the chase loads next
    b.addi(v, cur, stride as i64);
    b.andi(v, v, (n - 1) as i64); // its successor, as the table holds it
    b.sll(w, k, 16);
    b.or(v, v, w); // successor | k << 16
    b.sll(w, v, 32);
    b.srl(x, k, 32);
    b.or(w, w, x);
    b.sd(w, -4, t); // its low half, and the high half of the entry before
    b.sll(w, v, 16);
    b.sw(w, -2, t); // its first two bytes, and the last two before it
    b.sb(k, 5, t);
    b.sw(k, end - 2, tbase); // across the table's end
    b.sd(k, -4, Reg::ZERO); // across 2^64, wrapping to 0
    b.sb(cur, 8, sp);
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
    /// programs, checkpoint cadences, step budgets and measured-region
    /// starts (checkpoints before the start carry uncounted statistics,
    /// checkpoints after it counted ones). The programs store 1, 4 and 8
    /// bytes, unaligned, across granule edges, segment edges and the top
    /// of the address space, and read each store back in the next
    /// iteration, so checkpoints fall between stores and their reads.
    #[test]
    fn replay_from_every_checkpoint_reproduces_the_recording_run(
        seed in any::<u64>(),
        table_pow in 8u32..12,          // 2 KB .. 32 KB footprint
        stride in 1u64..512,
        filler in any::<u8>(),
        every in 1u64..1500,
        budget in 500u64..4_000,
        start in 1u64..2_000,
    ) {
        let p = chase_program(seed, table_pow, stride, filler);
        let config = TraceConfig {
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
