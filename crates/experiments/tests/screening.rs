//! The screening exactness contract on real forests: with the static
//! ADVagg pre-pass off, `try_select_pthreads_stats` over the traced vpr.r
//! and mcf forests must reproduce the pipeline's own (screened)
//! selection at every thread count — the screen may only skip exact
//! scoring of candidates that provably cannot score positive, never
//! change what is selected. (`tests/determinism.rs` covers the screened
//! driver at the same thread counts.) The companion effectiveness check
//! pins that the screen actually prunes on the standard kernels, so the
//! two-tier path cannot silently degrade into "screen everything
//! through".
//!
//! `Debug` formatting round-trips every `f64` exactly, so string
//! equality below is bitwise equality of the whole selection.

use preexec_core::{try_select_pthreads_stats, Parallelism};
use preexec_experiments::pipeline::selection_params;
use preexec_experiments::{Pipeline, PipelineConfig};
use preexec_workloads::{suite, InputSet};

#[test]
fn exact_selection_matches_the_screened_pipeline_at_every_thread_count() {
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
            let (sel, _, screen) =
                try_select_pthreads_stats(&out.forest, &params, Parallelism::new(threads), false)
                    .expect("exact selection");
            assert_eq!(
                format!("{sel:?}"),
                want,
                "{name}: exact selection differs at threads={threads}"
            );
            assert_eq!(screen.candidates(), 0, "{name}: exact run screened");
        }

        // Effectiveness, not just safety: on the paper's workloads the
        // forest contains hot triggers guarding cold misses
        // (DC_trig ≫ DC_pt-cm), exactly the shape the static bound
        // proves hopeless. If this starts failing, the bound has gone
        // slack and the two-tier path is paying for exact scores it was
        // built to skip.
        let (_, _, screen) =
            try_select_pthreads_stats(&out.forest, &params, Parallelism::serial(), true)
                .expect("screened selection");
        assert!(
            screen.pruned > 0,
            "{name}: screen pruned nothing ({} candidates)",
            screen.candidates()
        );
        assert!(screen.survivors > 0, "{name}: screen pruned everything");
        let enumerated: u64 = out.forest.trees().map(|(_, t)| t.len() as u64 - 1).sum();
        assert_eq!(
            screen.candidates(),
            enumerated,
            "{name}: screen lost candidates"
        );
    }
}
