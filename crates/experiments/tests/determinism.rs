//! Cross-thread-count and cross-slicing-mode determinism.
//!
//! Every front end selects serially, so the thread axis lives at the
//! layer that keeps the knob: the screened `try_select_pthreads_stats`
//! over the traced vpr.r and mcf forests must reproduce the pipeline's
//! own selection at every `Parallelism` setting (`tests/screening.rs`
//! covers the exact driver). The per-candidate scoring fan-out and the
//! per-tree selection fixed points merge in input order, and every
//! cross-item floating-point accumulation stays serial (see
//! `preexec_core::par` and DESIGN.md §11). The pipeline must also be
//! byte-identical with both slicers (windowed and on-demand). `Debug`
//! formatting round-trips every `f64` exactly, so string equality below
//! is bitwise equality.

use preexec_core::{try_select_pthreads_stats, Parallelism};
use preexec_experiments::pipeline::selection_params;
use preexec_experiments::{
    Pipeline, PipelineConfig, PolicySpec, SlicingMode, DEFAULT_CHECKPOINT_EVERY,
};
use preexec_slice::write_forest;
use preexec_workloads::{suite, InputSet};

#[test]
fn selection_is_bit_identical_across_thread_counts() {
    for name in ["vpr.r", "mcf"] {
        let w = suite()
            .into_iter()
            .find(|w| w.name == name)
            .expect("suite has workload");
        let p = w.build(InputSet::Train);
        let cfg = PipelineConfig::paper_default(60_000);
        let out = Pipeline::new(&p).config(cfg).run().expect("pipeline run");
        let want = format!("{:?}", out.result.selection);
        // The run must be non-trivial, or identity proves nothing.
        assert!(!out.result.selection.pthreads.is_empty(), "{name}");
        let params = selection_params(&cfg, out.result.base.ipc());
        for threads in [1, 2, 8] {
            let (sel, par, _) =
                try_select_pthreads_stats(&out.forest, &params, Parallelism::new(threads), true)
                    .expect("selection");
            assert_eq!(
                format!("{sel:?}"),
                want,
                "{name}: selection differs at threads={threads}"
            );
            // The fan-outs really ran over the work.
            assert!(par.items > 0, "{name}: select stage saw no items");
        }
    }
}

#[test]
fn pipeline_is_bit_identical_across_slicing_modes() {
    let w = suite()
        .into_iter()
        .find(|w| w.name == "vpr.r")
        .expect("suite has vpr.r");
    let p = w.build(InputSet::Train);
    let cfg = PipelineConfig::paper_default(60_000);
    let windowed = Pipeline::new(&p).config(cfg).run().expect("windowed run");
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
        format!("{:?}", windowed.result),
        "pipeline output differs between windowed and ondemand slicing"
    );
}

#[test]
fn slice_forest_serializes_identically_across_slicing_modes() {
    // The artifact cache persists forests; a slicer-dependent byte
    // stream would poison cache keys.
    let w = suite()
        .into_iter()
        .find(|w| w.name == "mcf")
        .expect("suite has mcf");
    let p = w.build(InputSet::Train);
    let cfg = PipelineConfig::paper_default(40_000);

    let arts = Pipeline::new(&p)
        .config(cfg)
        .trace()
        .expect("windowed trace");
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
        write_forest(&arts.forest),
        "forest differs between windowed and ondemand slicing"
    );
}
