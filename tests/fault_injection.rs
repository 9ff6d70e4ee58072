//! Fault-injection harness: systematically injects faults into every layer
//! of the framework — corrupted slice files, invalid programs, poisoned
//! p-thread inputs, exhausted budgets, bad configurations — and asserts
//! each one surfaces as a **typed error**, a **counted squash**, or a
//! **watchdog timeout**. Never a panic, never a hang.
//!
//! Scenario inventory (≥ 20 distinct faults):
//!
//! | # | layer | fault | expected surface |
//! |---|-------|-------|------------------|
//! | 1 | slice I/O | mid-line byte truncation | strict `Err`, lenient recovers prefix |
//! | 2 | slice I/O | dropped payload line | checksum-mismatch `Err` |
//! | 3 | slice I/O | duplicated payload line | checksum-mismatch `Err`, lenient no-panic |
//! | 4 | slice I/O | single bit flip in payload | checksum-mismatch `Err` |
//! | 5 | slice I/O | future format version | unsupported-version `Err` |
//! | 6 | slice I/O | non-slice garbage text | line-numbered parse `Err` |
//! | 7 | slice I/O | empty file | graceful empty forest |
//! | 8 | slice I/O | corrupt node record (legacy file) | line-numbered `Err` at exact line |
//! | 9 | slice I/O | corrupt node record, lenient | tree dropped + diagnostic, prefix kept |
//! | 10 | exec | ALU helper on a non-ALU opcode | `ExecError::NotAlu` |
//! | 11 | exec | stepping a halted CPU | `ExecError::CpuHalted` |
//! | 12 | exec | non-halting program under trace | step-watchdog `timed_out` flag |
//! | 13 | exec | branch helper on non-branch | `ExecError::NotBranch` |
//! | 14 | slice | zero slicing scope | `SliceError::ZeroScope` |
//! | 15 | slice | slicing an empty window | `SliceError::EmptyWindow` |
//! | 16 | p-thread | wild-address load in sandbox | `BadAddress` squash |
//! | 17 | p-thread | body longer than step budget | `BudgetExhausted` squash |
//! | 18 | timing | poisoned p-thread at launch | counted `BadAddress` squash, run completes |
//! | 19 | timing | runaway p-thread body | counted `BudgetExhausted` squash |
//! | 20 | timing | non-halting main thread | cycle-watchdog `timed_out` flag |
//! | 21 | timing | zero-width machine | `SimError::Machine(ZeroWidth)` |
//! | 22 | config | NaN / zero selection params | distinct `ParamsError` variants |
//! | 23 | config | IPC above sequencing width | `ParamsError::IpcExceedsWidth` |
//! | 24 | config | zero pipeline budget | `PipelineError::ZeroBudget` before any work |
//! | 25 | config | negative model-latency override | `PipelineError::BadModelMissLatency` |
//! | 26 | umbrella | every layer error lifts into `preexec::Error` | `From` impls |
//! | 27 | slice I/O | `exec` record with the largest PC | read without sizing an allocation by it |

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec::core::{ParamsError, SelectionParams};
use preexec::experiments::fault::{
    drop_line, dup_line, flip_bit, poisoned_pthread, runaway_pthread, truncate_bytes,
};
use preexec::experiments::{try_run_pipeline, PipelineConfig, PipelineError};
use preexec::func::{run_pthread, try_run_trace, Cpu, ExecError, SquashReason, TraceConfig};
use preexec::isa::{assemble, Inst, Op, Program, Reg};
use preexec::mem::Memory;
use preexec::slice::{
    read_forest, read_forest_lenient, write_forest, SliceError, SliceForestBuilder, SliceWindow,
};
use preexec::timing::{try_simulate, MachineError, SimConfig, SimError};

/// A small streaming loop that misses in the L2 once per iteration —
/// enough to produce a non-trivial slice forest quickly.
fn stream_program() -> Program {
    assemble(
        "stream",
        "
        li r1, 0x100000
        li r2, 0
        li r3, 800
    top:
        bge r2, r3, done
        ld  r4, 0(r1)
        addi r1, r1, 64
        addi r2, r2, 1
        j top
    done:
        halt",
    )
    .unwrap()
}

/// A program that never halts (for the watchdog scenarios).
fn spin_program() -> Program {
    assemble("spin", "top: addi r1, r1, 1\nj top").unwrap()
}

/// Serialized slice forest from a real trace, with a v2 header.
fn forest_text() -> String {
    let program = stream_program();
    let mut builder = SliceForestBuilder::new(256, 32);
    try_run_trace(&program, &TraceConfig::default(), |d| builder.observe(d)).unwrap();
    let forest = builder.finish();
    assert!(forest.num_trees() > 0, "fixture must contain slice trees");
    write_forest(&forest)
}

// ---------------------------------------------------------------- slice I/O

#[test]
fn s01_truncated_file_errors_strictly_and_recovers_leniently() {
    let text = forest_text();
    for frac in [4, 3, 2] {
        let cut = truncate_bytes(&text, text.len() / frac);
        assert!(
            read_forest(&cut).is_err(),
            "truncation at 1/{frac} must fail strict read"
        );
        let rec = read_forest_lenient(&cut);
        assert!(
            !rec.diagnostics.is_empty(),
            "recovery must explain the damage"
        );
    }
}

#[test]
fn s02_dropped_line_is_detected_by_checksum() {
    let text = forest_text();
    let e = read_forest(&drop_line(&text, 4)).unwrap_err();
    assert!(e.to_string().contains("checksum"), "got: {e}");
    assert_eq!(e.line, 1, "checksum diagnostics point at the header line");
}

#[test]
fn s03_duplicated_line_is_detected_and_recovery_never_panics() {
    let text = forest_text();
    for n in 0..text.lines().count() {
        let corrupted = dup_line(&text, n);
        if corrupted == text {
            continue;
        }
        assert!(
            read_forest(&corrupted).is_err(),
            "dup of line {n} must fail strict read"
        );
        read_forest_lenient(&corrupted); // must not panic for any n
    }
}

#[test]
fn s04_bit_flip_is_detected_by_checksum() {
    let text = forest_text();
    let flipped = flip_bit(&text, 3, 2, 0);
    assert_ne!(flipped, text);
    let e = read_forest(&flipped).unwrap_err();
    assert!(
        e.to_string().contains("checksum") || e.to_string().contains("parse"),
        "got: {e}"
    );
}

#[test]
fn s05_future_version_is_rejected() {
    let text = forest_text();
    let header = text.lines().next().unwrap();
    let bumped = text.replacen(
        header,
        "preexec-slices version=99 checksum=0000000000000000",
        1,
    );
    let e = read_forest(&bumped).unwrap_err();
    assert!(e.to_string().contains("version 99"), "got: {e}");
}

#[test]
fn s06_garbage_text_gives_line_numbered_error() {
    let e = read_forest("this is\nnot a slice file\n").unwrap_err();
    assert_eq!(e.line, 1);
    assert!(e.to_string().contains("line 1"), "got: {e}");
}

#[test]
fn s07_empty_file_is_an_empty_forest() {
    let forest = read_forest("").unwrap();
    assert_eq!(forest.num_trees(), 0);
    assert!(read_forest_lenient("").is_clean());
}

#[test]
fn s08_corrupt_node_in_legacy_file_names_the_line() {
    let text = forest_text();
    // Strip the v2 header to get a legacy headerless file, then corrupt a
    // node record: the strict reader must name that exact 1-based line.
    let legacy: String = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
    let bad_line = legacy
        .lines()
        .position(|l| l.starts_with("node"))
        .expect("fixture has node records");
    let corrupted = drop_line(&legacy, bad_line).replacen("node", "noise", 1);
    let e = read_forest(&corrupted).unwrap_err();
    assert!(e.line >= 1, "line-numbered diagnostic required, got: {e}");
}

#[test]
fn s09_lenient_read_drops_damaged_tree_and_keeps_the_rest() {
    let text = forest_text();
    let strict = read_forest(&text).unwrap();
    let node_line = text.lines().position(|l| l.starts_with("node")).unwrap();
    let rec = read_forest_lenient(&flip_bit(&text, node_line, 5, 6));
    assert!(!rec.is_clean());
    assert!(rec.forest.num_trees() <= strict.num_trees());
}

/// Prefixes `payload` with a valid version-2 header (FNV-1a 64 checksum).
fn with_v2_header(payload: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in payload.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("preexec-slices version=2 checksum={h:016x}\n{payload}")
}

#[test]
fn s27_largest_exec_pc_sizes_no_allocation() {
    // No value read from the file may size an allocation: a count table
    // indexed by this PC would ask for 32 GiB and abort both readers.
    let payload = "forest sample_insts=1\nexec 4294967295 1\n";
    for text in [payload.to_string(), with_v2_header(payload)] {
        match read_forest(&text) {
            Ok(forest) => {
                assert_eq!(forest.dc_trig(u32::MAX), 1);
                assert_eq!(forest.dc_trig(0), 0);
                assert_eq!(forest.exec_counts().collect::<Vec<_>>(), [(u32::MAX, 1)]);
            }
            Err(e) => assert!(e.line >= 1, "line-numbered diagnostic required, got: {e}"),
        }
        let rec = read_forest_lenient(&text);
        assert_eq!(rec.forest.dc_trig(u32::MAX), 1);
    }
}

// ------------------------------------------------------------------- exec

#[test]
fn s10_alu_helper_rejects_non_alu_opcode() {
    let e = preexec::func::exec::try_alu(Op::Ld, 1, 2, 0).unwrap_err();
    assert!(matches!(e, ExecError::NotAlu(Op::Ld)));
}

#[test]
fn s11_stepping_a_halted_cpu_is_a_typed_error() {
    let p = assemble("h", "halt").unwrap();
    let mut cpu = Cpu::new(&p);
    let mut mem = Memory::new();
    cpu.try_step(&p, &mut mem).unwrap(); // retire the halt
    let e = cpu.try_step(&p, &mut mem).unwrap_err();
    assert!(matches!(e, ExecError::CpuHalted));
}

#[test]
fn s12_trace_watchdog_flags_nonhalting_program() {
    let config = TraceConfig {
        max_steps: 5_000,
        ..TraceConfig::default()
    };
    let stats = try_run_trace(&spin_program(), &config, |_| {}).unwrap();
    assert!(stats.timed_out, "watchdog must flag the spin loop");
    assert!(stats.total_steps <= 5_000);
}

#[test]
fn s13_branch_helper_rejects_non_branch_opcode() {
    let e = preexec::func::exec::try_branch_taken(Op::Add, 0, 0).unwrap_err();
    assert!(matches!(e, ExecError::NotBranch(Op::Add)));
}

// ------------------------------------------------------------------ slice

#[test]
fn s14_zero_scope_is_a_typed_error() {
    assert!(matches!(
        SliceForestBuilder::try_new(0, 32),
        Err(SliceError::ZeroScope)
    ));
    assert!(matches!(
        SliceForestBuilder::try_new(8, 0),
        Err(SliceError::ZeroMaxSliceLen)
    ));
}

#[test]
fn s15_slicing_an_empty_window_is_a_typed_error() {
    let w = SliceWindow::try_new(16).unwrap();
    assert!(matches!(
        w.try_slice_latest(8),
        Err(SliceError::EmptyWindow)
    ));
}

// --------------------------------------------------------------- p-thread

#[test]
fn s16_wild_address_load_squashes_in_sandbox() {
    let body = [
        Inst::li(Reg::new(20), -8),
        Inst::load(Op::Ld, Reg::new(21), Reg::new(20), 0),
    ];
    let run = run_pthread(&body, &[0; preexec::isa::reg::NUM_REGS], &Memory::new(), 64);
    assert_eq!(run.squash_reason(), Some(SquashReason::BadAddress));
}

#[test]
fn s17_step_budget_squashes_oversized_body() {
    let body: Vec<Inst> = (0..50)
        .map(|_| Inst::itype(Op::Addi, Reg::new(20), Reg::new(20), 1))
        .collect();
    let run = run_pthread(&body, &[0; preexec::isa::reg::NUM_REGS], &Memory::new(), 10);
    assert_eq!(run.squash_reason(), Some(SquashReason::BudgetExhausted));
    assert_eq!(run.executed, 10);
}

// ----------------------------------------------------------------- timing

#[test]
fn s18_poisoned_pthread_is_squashed_and_counted() {
    let p = stream_program();
    let cfg = SimConfig {
        max_insts: 3_000,
        ..SimConfig::default()
    };
    let r = try_simulate(&p, &[poisoned_pthread(4)], &cfg).unwrap();
    assert!(r.squashes > 0, "poisoned launches must be counted");
    assert!(r.squash_count(SquashReason::BadAddress) > 0);
    assert!(r.insts > 0, "main thread must be undisturbed");
}

#[test]
fn s19_runaway_pthread_trips_step_budget() {
    let p = stream_program();
    let cfg = SimConfig {
        max_insts: 3_000,
        pthread_step_budget: 16,
        ..SimConfig::default()
    };
    let r = try_simulate(&p, &[runaway_pthread(4, 64)], &cfg).unwrap();
    assert!(r.squash_count(SquashReason::BudgetExhausted) > 0);
}

#[test]
fn s20_cycle_watchdog_ends_nonhalting_simulation() {
    let cfg = SimConfig {
        max_cycles: 500,
        max_insts: u64::MAX,
        ..SimConfig::default()
    };
    let r = try_simulate(&spin_program(), &[], &cfg).unwrap();
    assert!(r.timed_out, "cycle watchdog must flag the spin loop");
}

#[test]
fn s21_invalid_machine_is_a_typed_error() {
    let mut cfg = SimConfig::default();
    cfg.machine.width = 0;
    let e = try_simulate(&stream_program(), &[], &cfg).unwrap_err();
    assert_eq!(e, SimError::Machine(MachineError::ZeroWidth));
}

// ----------------------------------------------------------------- config

#[test]
fn s22_selection_params_reject_nan_and_zero_fields() {
    let ok = SelectionParams::default();
    let cases = [
        (
            SelectionParams {
                bw_seq: f64::NAN,
                ..ok
            },
            "bw_seq NaN",
        ),
        (SelectionParams { bw_seq: 0.0, ..ok }, "bw_seq zero"),
        (SelectionParams { ipc: -1.0, ..ok }, "ipc negative"),
        (
            SelectionParams {
                miss_latency: f64::INFINITY,
                ..ok
            },
            "miss_latency inf",
        ),
        (
            SelectionParams {
                max_pthread_len: 0,
                ..ok
            },
            "max_pthread_len zero",
        ),
    ];
    for (params, what) in cases {
        assert!(params.try_validate().is_err(), "{what} must be rejected");
    }
}

#[test]
fn s23_ipc_above_width_is_rejected() {
    let params = SelectionParams {
        bw_seq: 4.0,
        ipc: 9.0,
        ..SelectionParams::default()
    };
    assert!(matches!(
        params.try_validate(),
        Err(ParamsError::IpcExceedsWidth { .. })
    ));
}

#[test]
fn s24_zero_budget_pipeline_fails_before_any_work() {
    let cfg = PipelineConfig {
        budget: 0,
        ..PipelineConfig::paper_default(10_000)
    };
    let e = try_run_pipeline(&stream_program(), &cfg).unwrap_err();
    assert_eq!(e, PipelineError::ZeroBudget);
}

#[test]
fn s25_bad_model_override_is_rejected() {
    let cfg = PipelineConfig {
        model_miss_latency: Some(-70.0),
        ..PipelineConfig::paper_default(10_000)
    };
    assert_eq!(
        try_run_pipeline(&stream_program(), &cfg).unwrap_err(),
        PipelineError::BadModelMissLatency(-70.0)
    );
}

// --------------------------------------------------------------- umbrella

#[test]
fn s26_every_layer_error_lifts_into_the_umbrella() {
    use std::error::Error as _;
    let faults: Vec<preexec::Error> = vec![
        assemble("t", "frobnicate r1").unwrap_err().into(),
        ExecError::CpuHalted.into(),
        SliceError::ZeroScope.into(),
        ParamsError::ZeroMaxPthreadLen.into(),
        SimError::Machine(MachineError::ZeroMshrs).into(),
        PipelineError::ZeroBudget.into(),
    ];
    for e in faults {
        assert!(!e.to_string().is_empty());
        // Every umbrella variant exposes its layer error as a source.
        assert!(e.source().is_some(), "{e} must have a source");
    }
}
