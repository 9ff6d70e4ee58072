//! The trace driver: functional execution + cache classification + sampling.

use crate::{Cpu, DynInst, ExecError, Phase, RunStats, Sampling};
use preexec_isa::{OpClass, Program};
use preexec_mem::{FuncHierarchy, HierarchyConfig, MemBus, Memory};

/// Configuration for a trace run.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Cache geometry used for hit/miss classification.
    pub hierarchy: HierarchyConfig,
    /// Off / warm-up / on sampling schedule.
    pub sampling: Sampling,
    /// Hard cap on total architectural steps (off + warm + on). The run
    /// stops at this budget even if the program has not halted.
    pub max_steps: u64,
    /// The emitted instructions counted in [`RunStats`], and the cap on
    /// emitted instructions.
    pub measured: MeasuredRegion,
}

impl Default for TraceConfig {
    /// Paper-default caches, always-on sampling, a 100 M-step safety cap,
    /// every emitted instruction measured.
    fn default() -> TraceConfig {
        TraceConfig {
            hierarchy: HierarchyConfig::paper_default(),
            sampling: Sampling::always_on(),
            max_steps: 100_000_000,
            measured: MeasuredRegion::ALL,
        }
    }
}

/// The measured region of a trace, as emitted `seq`s `start..end`.
///
/// Instructions before `start` are emitted — a sink such as the slicing
/// window still sees them — but not counted in [`RunStats`]; this is how
/// a pipeline warms its caches and its window without measuring the
/// warm-up. The run ends, normally and without
/// [`timed_out`](RunStats::timed_out), once `end` instructions have been
/// emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasuredRegion {
    /// First counted `seq`.
    pub start: u64,
    /// Emitted instructions after which the run stops.
    pub end: u64,
}

impl MeasuredRegion {
    /// Counts every emitted instruction and caps nothing.
    pub const ALL: MeasuredRegion = MeasuredRegion { start: 0, end: u64::MAX };
}

/// Runs `program` to completion (or budget), streaming a [`DynInst`] for
/// every instruction retired in an "on" sampling phase to `sink`, and
/// returns the accumulated [`RunStats`].
///
/// Semantics per phase (paper §4.1):
/// - **Off**: architectural execution only; caches untouched; nothing
///   emitted.
/// - **Warm**: caches accessed (warmed) but nothing emitted or counted.
/// - **On**: caches accessed, [`DynInst`] emitted, statistics counted
///   (inside the [`MeasuredRegion`] of `config.measured`).
///
/// # Example
///
/// ```
/// use preexec_func::{run_trace, TraceConfig};
/// use preexec_isa::assemble;
///
/// let p = assemble("t", "li r1, 0x4000\nld r2, 0(r1)\nld r3, 0(r1)\nhalt").unwrap();
/// let mut misses = 0;
/// let stats = run_trace(&p, &TraceConfig::default(), |d| {
///     if d.is_l2_miss_load() { misses += 1 }
/// });
/// assert_eq!(misses, 1); // second load hits
/// assert_eq!(stats.l2_misses, 1);
/// ```
pub fn run_trace(
    program: &Program,
    config: &TraceConfig,
    sink: impl FnMut(&DynInst),
) -> RunStats {
    match try_run_trace(program, config, sink) {
        Ok(stats) => stats,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`run_trace`]: returns a typed [`ExecError`] instead of
/// panicking if a malformed instruction is encountered mid-trace.
///
/// The step watchdog (`config.max_steps`) is *not* an error: hitting it
/// ends the run normally with [`RunStats::timed_out`] set, since the
/// prefix traced so far is valid and usable.
///
/// # Errors
///
/// Returns [`ExecError::Malformed`] if execution reaches an instruction
/// whose operands are inconsistent with its opcode class (possible only
/// for programs not built through the assembler).
pub fn try_run_trace(
    program: &Program,
    config: &TraceConfig,
    mut sink: impl FnMut(&DynInst),
) -> Result<RunStats, ExecError> {
    let mut mem = Memory::new();
    for seg in program.data_segments() {
        mem.write_slice(seg.base, &seg.bytes);
    }
    let mut state = TraceState {
        cpu: Cpu::new(program),
        mem,
        hierarchy: FuncHierarchy::new(config.hierarchy),
        stats: RunStats::new(),
        emitted: 0,
    };
    run_trace_loop(program, config, &mut state, |_| {}, |d| {
        sink(d);
        true
    })?;
    Ok(state.stats)
}

/// The full mutable state of an in-flight trace run. One loop
/// ([`run_trace_loop`]) drives every trace path — the plain tracer, the
/// checkpoint recorder, and the checkpoint replayer — over this state, so
/// a replay resumed from a snapshot of it is exact by construction.
pub(crate) struct TraceState<M> {
    pub cpu: Cpu,
    pub mem: M,
    pub hierarchy: FuncHierarchy,
    pub stats: RunStats,
    /// Measured ("on"-phase) instructions emitted so far — the `seq` of
    /// the next emitted [`DynInst`].
    pub emitted: u64,
}

/// The trace loop shared by tracing, checkpoint recording, and replay.
///
/// `at_loop_top` is called once per iteration before the step executes —
/// the checkpoint recorder snapshots there, so a snapshot captures the
/// state *before* the instruction whose `seq` equals the snapshot's
/// `emitted`. `sink` receives every emitted instruction and returns
/// whether to continue (replay stops at an interval boundary this way).
pub(crate) fn run_trace_loop<M: MemBus>(
    program: &Program,
    config: &TraceConfig,
    state: &mut TraceState<M>,
    mut at_loop_top: impl FnMut(&mut TraceState<M>),
    mut sink: impl FnMut(&DynInst) -> bool,
) -> Result<(), ExecError> {
    while !state.cpu.halted() {
        // A finished measured region is a complete run, checked before the
        // watchdog so that a cap landing on the step budget is no time-out.
        if state.emitted >= config.measured.end {
            break;
        }
        if state.stats.total_steps >= config.max_steps {
            // Watchdog: the program did not halt within its step budget.
            state.stats.timed_out = true;
            break;
        }
        at_loop_top(state);
        let phase = config.sampling.phase(state.stats.total_steps);
        let out = state.cpu.try_step(program, &mut state.mem)?;
        state.stats.total_steps += 1;
        if phase == Phase::Off {
            continue;
        }
        // Warm and On both touch the caches.
        let level = out.addr.map(|a| {
            let is_write = out.inst.op.is_store();
            state.hierarchy.access(a, is_write)
        });
        if phase == Phase::Warm {
            continue;
        }
        // On: emit, and count inside the measured region.
        let counted = state.emitted >= config.measured.start;
        if counted {
            state.stats.insts += 1;
        }
        match out.inst.class() {
            OpClass::Load => {
                let level = level
                    .ok_or(ExecError::Malformed { pc: out.pc, reason: "load without address" })?;
                if counted {
                    state.stats.record_load(out.pc, level);
                }
            }
            OpClass::Store => {
                let level = level
                    .ok_or(ExecError::Malformed { pc: out.pc, reason: "store without address" })?;
                if counted {
                    state.stats.record_store(level);
                }
            }
            OpClass::Branch if counted => {
                state.stats.branches += 1;
                if out.taken {
                    state.stats.taken_branches += 1;
                }
            }
            _ => {}
        }
        let d = DynInst {
            seq: state.emitted,
            pc: out.pc,
            inst: out.inst,
            addr: out.addr,
            level,
            taken: out.taken,
            result: out.result,
        };
        state.emitted += 1;
        if !sink(&d) {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_isa::assemble;

    /// A loop that streams over 64 KB (beyond the tiny L2 in
    /// `HierarchyConfig::tiny`) so every new line misses.
    fn streaming_loop() -> Program {
        assemble(
            "stream",
            "li r1, 0x10000\n li r2, 0\n li r3, 8192\n\
             top: bge r2, r3, done\n\
             ld r4, 0(r1)\n addi r1, r1, 8\n addi r2, r2, 1\n j top\n\
             done: halt",
        )
        .unwrap()
    }

    #[test]
    fn l2_misses_once_per_line() {
        let config = TraceConfig {
            hierarchy: HierarchyConfig::paper_default(),
            ..TraceConfig::default()
        };
        let stats = run_trace(&streaming_loop(), &config, |_| {});
        // 8192 loads x 8B = 64KB = 1024 L2 lines (64B each), all cold.
        assert_eq!(stats.loads, 8192);
        assert_eq!(stats.l2_misses, 1024);
        // L1 lines are 32B -> 2048 L1 misses.
        assert_eq!(stats.l1d_misses, 2048);
    }

    #[test]
    fn seq_numbers_are_dense() {
        let mut next = 0;
        run_trace(&streaming_loop(), &TraceConfig::default(), |d| {
            assert_eq!(d.seq, next);
            next += 1;
        });
        assert!(next > 0);
    }

    #[test]
    fn step_budget_respected() {
        let config = TraceConfig { max_steps: 100, ..TraceConfig::default() };
        let stats = run_trace(&streaming_loop(), &config, |_| {});
        assert_eq!(stats.total_steps, 100);
        assert!(stats.timed_out, "watchdog cutoff must be flagged");
    }

    #[test]
    fn halting_run_is_not_timed_out() {
        let stats = run_trace(&streaming_loop(), &TraceConfig::default(), |_| {});
        assert!(!stats.timed_out);
    }

    fn measured(start: u64, end: u64) -> TraceConfig {
        TraceConfig { measured: MeasuredRegion { start, end }, ..TraceConfig::default() }
    }

    #[test]
    fn measured_prefix_is_emitted_with_dense_seqs() {
        let mut seqs = Vec::new();
        run_trace(&streaming_loop(), &measured(100, 300), |d| seqs.push(d.seq));
        assert_eq!(seqs, (0..300).collect::<Vec<u64>>());
    }

    #[test]
    fn measured_prefix_is_not_counted() {
        let all = run_trace(&streaming_loop(), &measured(0, 300), |_| {});
        let tail = run_trace(&streaming_loop(), &measured(100, 300), |_| {});
        // The same 300 steps ran; only the last 200 count.
        assert_eq!(tail.total_steps, all.total_steps);
        assert_eq!(tail.insts, 200);
        // Recount the tail by hand from the emitted stream.
        let (mut loads, mut branches, mut taken) = (0, 0, 0);
        run_trace(&streaming_loop(), &measured(0, 300), |d| {
            if d.seq >= 100 {
                loads += u64::from(d.inst.op.is_load());
                if d.inst.class() == OpClass::Branch {
                    branches += 1;
                    taken += u64::from(d.taken);
                }
            }
        });
        assert_eq!((tail.loads, tail.branches, tail.taken_branches), (loads, branches, taken));
        assert_eq!(tail.load_sites[&4].execs, loads);
        assert!(all.loads > tail.loads);
    }

    #[test]
    fn measured_end_stops_the_run_without_timing_out() {
        let mut n = 0;
        let stats = run_trace(&streaming_loop(), &measured(0, 7), |_| n += 1);
        assert_eq!(n, 7);
        assert_eq!(stats.total_steps, 7);
        assert!(!stats.timed_out);
        // A cap that lands on the step budget is still a complete run.
        let config = TraceConfig { max_steps: 7, ..measured(3, 7) };
        let stats = run_trace(&streaming_loop(), &config, |_| {});
        assert_eq!((stats.total_steps, stats.insts), (7, 4));
        assert!(!stats.timed_out);
    }

    #[test]
    fn default_config_measures_everything() {
        let config = TraceConfig::default();
        assert_eq!(config.measured, MeasuredRegion::ALL);
        let mut n = 0;
        let stats = run_trace(&streaming_loop(), &config, |_| n += 1);
        assert_eq!(stats.insts, n);
        assert_eq!(stats.total_steps, n);
        assert!(!stats.timed_out);
    }

    #[test]
    fn off_phase_emits_nothing_and_skips_caches() {
        // off=30, warm=0, on=10: the first 30 instructions (which include
        // all the cold misses of the first lines) are skipped entirely.
        let config = TraceConfig {
            sampling: Sampling::new(1_000_000, 0, 10),
            ..TraceConfig::default()
        };
        let stats = run_trace(&streaming_loop(), &config, |_| {});
        assert_eq!(stats.insts, 0); // program shorter than off phase
        assert_eq!(stats.l2_misses, 0);
        assert!(stats.total_steps > 0);
    }

    #[test]
    fn warm_phase_warms_caches() {
        // Two-pass program: touch a line, then re-touch it. With the first
        // touch in warm-up and the second in "on", the second is a hit.
        let p = assemble(
            "t",
            "li r1, 0x4000\n ld r2, 0(r1)\n ld r3, 0(r1)\n halt",
        )
        .unwrap();
        // warm = 2 (li + first ld), on = rest.
        let config = TraceConfig {
            sampling: Sampling::new(0, 2, 100),
            ..TraceConfig::default()
        };
        let stats = run_trace(&p, &config, |_| {});
        assert_eq!(stats.loads, 1); // only the second load measured
        assert_eq!(stats.l2_misses, 0); // and it hit, thanks to warm-up
    }

    #[test]
    fn stats_match_emitted_stream() {
        let mut loads = 0;
        let stats = run_trace(&streaming_loop(), &TraceConfig::default(), |d| {
            if d.inst.op.is_load() {
                loads += 1;
            }
        });
        assert_eq!(stats.loads, loads);
        // 3 setup + 8192 iterations x (bge, ld, addi, addi, j) + final bge + halt.
        assert_eq!(stats.insts, 3 + 8192 * 5 + 1 + 1);
    }
}
