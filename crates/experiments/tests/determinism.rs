//! Cross-thread-count and cross-slicing-mode determinism: the full
//! pipeline must produce byte-identical results at every `Parallelism`
//! setting and with both slicers (windowed and on-demand).
//!
//! This is the contract that makes `--threads N` safe to default on: the
//! per-candidate scoring fan-out and the per-tree selection fixed points
//! merge in input order, and every cross-item floating-point
//! accumulation stays serial (see `preexec_core::par` and DESIGN.md §11).
//! `Debug` formatting round-trips every `f64` exactly, so string equality
//! below is bitwise equality of the whole result.

use preexec_experiments::{
    Pipeline, PipelineConfig, PolicySpec, SlicingMode, DEFAULT_CHECKPOINT_EVERY,
};
use preexec_slice::write_forest;
use preexec_workloads::{suite, InputSet};

#[test]
fn pipeline_is_bit_identical_across_thread_counts() {
    let w = suite()
        .into_iter()
        .find(|w| w.name == "vpr.r")
        .expect("suite has vpr.r");
    let p = w.build(InputSet::Train);
    let cfg = PipelineConfig::paper_default(60_000);

    let reference = Pipeline::new(&p).config(cfg).run().expect("serial run");
    let ref_fmt = format!("{:?}", reference.result);
    // The run must be non-trivial, or identity proves nothing.
    assert!(!reference.result.selection.pthreads.is_empty());
    assert!(reference.result.base.mem.l2_misses > 0);

    for threads in [2, 8] {
        let out = Pipeline::new(&p)
            .config(cfg)
            .threads(threads)
            .run()
            .expect("parallel run");
        assert_eq!(
            format!("{:?}", out.result),
            ref_fmt,
            "pipeline output differs at threads={threads}"
        );
        // The parallel stage really ran over the work.
        assert!(out.par.select.items > 0, "select stage saw no items");
    }

    // On-demand re-execution slicing is a third point on the same
    // identity.
    let ondemand = Pipeline::new(&p)
        .policy(PolicySpec {
            cfg,
            slicing: SlicingMode::OnDemand {
                checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            },
            ..PolicySpec::default()
        })
        .run()
        .expect("ondemand run");
    assert_eq!(
        format!("{:?}", ondemand.result),
        ref_fmt,
        "pipeline output differs between windowed and ondemand slicing"
    );
}

#[test]
fn slice_forest_serializes_identically_across_thread_counts() {
    // The artifact cache persists forests; a thread-count- or
    // slicer-dependent byte stream would poison cache keys across
    // daemon configurations.
    let w = suite()
        .into_iter()
        .find(|w| w.name == "mcf")
        .expect("suite has mcf");
    let p = w.build(InputSet::Train);
    let cfg = PipelineConfig::paper_default(40_000);

    let arts = Pipeline::new(&p).config(cfg).trace().expect("serial trace");
    let reference = write_forest(&arts.forest);
    for threads in [2, 8] {
        let arts_n = Pipeline::new(&p)
            .config(cfg)
            .threads(threads)
            .trace()
            .expect("parallel trace");
        assert_eq!(
            write_forest(&arts_n.forest),
            reference,
            "forest differs at threads={threads}"
        );
    }
    let arts_o = Pipeline::new(&p)
        .policy(PolicySpec {
            cfg,
            slicing: SlicingMode::OnDemand {
                checkpoint_every: 777,
            },
            ..PolicySpec::default()
        })
        .trace()
        .expect("ondemand trace");
    assert_eq!(
        write_forest(&arts_o.forest),
        reference,
        "forest differs between windowed and ondemand slicing"
    );
}
