//! The screening exactness contract at full-pipeline scale: with the
//! static ADVagg pre-pass on (the default) or off, the pipeline must
//! produce byte-identical results at every thread count — the screen may
//! only skip exact scoring of candidates that provably cannot score
//! positive, never change what is selected. The companion effectiveness
//! tests pin that the screen actually prunes on the standard kernels, so
//! the two-tier path cannot silently degrade into "screen everything
//! through".
//!
//! `Debug` formatting round-trips every `f64` exactly, so string
//! equality below is bitwise equality of the whole result.

use preexec_experiments::{Pipeline, PipelineConfig, PolicySpec};
use preexec_slice::write_forest;
use preexec_workloads::{suite, InputSet};

#[test]
fn screened_pipeline_is_bit_identical_to_exact_at_every_thread_count() {
    let w = suite()
        .into_iter()
        .find(|w| w.name == "vpr.r")
        .expect("suite has vpr.r");
    let p = w.build(InputSet::Train);
    let cfg = PipelineConfig::paper_default(60_000);

    let exact = Pipeline::new(&p)
        .policy(PolicySpec {
            cfg,
            screening: false,
            ..PolicySpec::default()
        })
        .run()
        .expect("exact run");
    assert!(
        exact.screen.is_none(),
        "screening(false) must not report screen stats"
    );
    let ref_fmt = format!("{:?}", exact.result);
    let ref_forest = write_forest(&exact.forest);
    // The run must be non-trivial, or identity proves nothing.
    assert!(!exact.result.selection.pthreads.is_empty());

    for threads in [1usize, 2, 8] {
        let out = Pipeline::new(&p)
            .config(cfg)
            .threads(threads)
            .run()
            .expect("screened run");
        assert_eq!(
            format!("{:?}", out.result),
            ref_fmt,
            "screened pipeline output differs from exact at threads={threads}"
        );
        assert_eq!(
            write_forest(&out.forest),
            ref_forest,
            "slice-forest bytes differ from exact at threads={threads}"
        );
        let screen = out.screen.expect("screened run reports screen stats");
        assert!(screen.candidates() > 0, "screen saw no candidates");
    }
}

#[test]
fn screening_prunes_on_the_standard_kernels() {
    // Effectiveness, not just safety: on the paper's workloads the forest
    // contains hot triggers guarding cold misses (DC_trig ≫ DC_pt-cm),
    // exactly the shape the static bound proves hopeless. If this starts
    // failing, the bound has gone slack and the two-tier path is paying
    // for exact scores it was built to skip.
    for name in ["vpr.r", "mcf"] {
        let w = suite()
            .into_iter()
            .find(|w| w.name == name)
            .expect("suite has workload");
        let p = w.build(InputSet::Train);
        let cfg = PipelineConfig::paper_default(60_000);
        let out = Pipeline::new(&p).config(cfg).run().expect("screened run");
        let screen = out.screen.expect("screened run reports screen stats");
        assert!(
            screen.pruned > 0,
            "screen pruned nothing on {name} ({} candidates)",
            screen.candidates()
        );
        assert!(screen.survivors > 0, "screen pruned everything on {name}");
        assert_eq!(screen.candidates(), screen.pruned + screen.survivors);
    }
}
