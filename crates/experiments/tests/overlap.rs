//! `Pipeline::run` overlaps the base simulation with trace+slice on a
//! helper thread, and when the base simulation ends first, simulates a
//! selection of the forest so far there too. Given artifacts, the helper
//! simulates a selection guessed from the IPC of the base run's first
//! sixteenth while the caller runs the whole base simulation. These tests
//! hold both paths to the serial toolflow: the stages run one after
//! another by hand must give byte-identical outputs, whether the
//! speculation hit, missed or was not attempted, and when both overlapped
//! stages fault, the trace's error is the one returned, as when the trace
//! ran first. `Debug` formatting round-trips every `f64` exactly, so
//! string equality below is bitwise equality.

use preexec_core::select_pthreads;
use preexec_experiments::pipeline::{selection_params, try_sim};
use preexec_experiments::{
    Pipeline, PipelineConfig, PipelineError, PipelineResult, PolicySpec, SlicingMode, Speculation,
    DEFAULT_CHECKPOINT_EVERY,
};
use preexec_func::ExecError;
use preexec_isa::{Inst, Op, Program, Reg};
use preexec_slice::write_forest;
use preexec_timing::{SimError, SimMode};
use preexec_workloads::{suite, InputSet};

/// Trace, base simulation, selection and assisted simulation, one after
/// another on the calling thread.
fn by_hand(p: &Program, spec: PolicySpec) -> (PipelineResult, String) {
    let cfg = spec.cfg;
    let arts = Pipeline::new(p).policy(spec).trace().expect("trace");
    let base = try_sim(p, &[], &cfg, SimMode::Normal).expect("base sim");
    let selection = select_pthreads(&arts.forest, &selection_params(&cfg, base.ipc()));
    let assisted = try_sim(p, &selection.pthreads, &cfg, SimMode::Normal).expect("assisted sim");
    let result = PipelineResult {
        stats: arts.stats,
        base,
        selection,
        assisted,
    };
    (result, write_forest(&arts.forest))
}

#[test]
fn run_equals_its_stages_run_one_after_another() {
    let windowed = [SlicingMode::Windowed];
    let both = [
        SlicingMode::Windowed,
        SlicingMode::OnDemand {
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
        },
    ];
    let mut empty = Vec::new();
    // Train traces are the longer, so a windowed run of one mostly
    // speculates: its base simulation ends while the trace goes on.
    for (input, modes) in [
        (InputSet::Test, &both[..]),
        (InputSet::Train, &windowed[..]),
    ] {
        for w in suite() {
            let p = w.build(input);
            for &slicing in modes {
                let spec = PolicySpec {
                    cfg: PipelineConfig::paper_default(20_000),
                    slicing,
                    ..PolicySpec::default()
                };
                let out = Pipeline::new(&p).policy(spec).run().expect("run");
                let (want, want_forest) = by_hand(&p, spec);
                let what = format!("{} {input:?} {slicing:?} {:?}", w.name, out.speculation);
                assert_eq!(format!("{:?}", out.result), format!("{want:?}"), "{what}");
                assert_eq!(write_forest(&out.forest), want_forest, "{what}");
                assert!(!out.artifacts_reused);
                assert!(out.stage_us.trace > 0 && out.stage_us.base_sim > 0);
                if slicing != SlicingMode::Windowed {
                    assert_eq!(out.speculation, Speculation::NotAttempted, "{what}");
                }
                if input == InputSet::Test && want.selection.pthreads.is_empty() {
                    empty.push(w.name);
                }
            }
        }
    }
    // gcc's test input is L2-resident and selects nothing: the run hands
    // back the base simulation as the assisted one.
    assert!(empty.contains(&"gcc"), "empty selections: {empty:?}");
}

#[test]
fn a_run_given_artifacts_equals_its_stages_run_one_after_another() {
    let spec = PolicySpec {
        cfg: PipelineConfig::paper_default(20_000),
        ..PolicySpec::default()
    };
    let mut outcomes = Vec::new();
    for input in [InputSet::Test, InputSet::Train] {
        for w in suite() {
            let p = w.build(input);
            let arts = Pipeline::new(&p).policy(spec).trace().expect("trace");
            let out = Pipeline::new(&p)
                .policy(spec)
                .artifacts(arts.forest, arts.stats)
                .run()
                .expect("run");
            let (want, want_forest) = by_hand(&p, spec);
            let what = format!("{} {input:?} {:?}", w.name, out.speculation);
            assert_eq!(format!("{:?}", out.result), format!("{want:?}"), "{what}");
            assert_eq!(write_forest(&out.forest), want_forest, "{what}");
            assert!(out.artifacts_reused);
            assert_eq!(out.stage_us.trace, 0, "{what}");
            // The helper always guesses, so every run hits or misses.
            assert_ne!(out.speculation, Speculation::NotAttempted, "{what}");
            outcomes.push(what);
        }
    }
    // vpr.p's test selection at the early IPC differs from the final one.
    assert!(
        outcomes.iter().any(|o| o == "vpr.p Test Miss"),
        "{outcomes:?}"
    );
}

/// A program whose first instruction is an ALU op with no destination,
/// which the tracer and the timing simulator both reject.
fn faulting_program() -> Program {
    let mut p = Program::new("no-rd");
    p.push(Inst {
        op: Op::Add,
        rd: None,
        rs1: Some(Reg::new(1)),
        rs2: Some(Reg::new(2)),
        imm: 0,
        target: None,
    });
    p.push(Inst::halt());
    p
}

#[test]
fn a_fault_in_both_overlapped_stages_returns_the_trace_error() {
    let p = faulting_program();
    let cfg = PipelineConfig::paper_default(1_000);
    let fault = ExecError::Malformed {
        pc: 0,
        reason: "ALU op without rd",
    };
    // Each stage faults on its own...
    assert_eq!(
        Pipeline::new(&p).config(cfg).trace().unwrap_err(),
        PipelineError::Exec(fault)
    );
    assert_eq!(
        try_sim(&p, &[], &cfg, SimMode::Normal).unwrap_err(),
        PipelineError::Sim(SimError::Exec(fault))
    );
    // ...and the run returns the trace's error, in both slicing modes.
    for slicing in [
        SlicingMode::Windowed,
        SlicingMode::OnDemand {
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
        },
    ] {
        let spec = PolicySpec {
            cfg,
            slicing,
            ..PolicySpec::default()
        };
        assert_eq!(
            Pipeline::new(&p).policy(spec).run().unwrap_err(),
            PipelineError::Exec(fault),
            "{slicing:?}"
        );
    }
}
