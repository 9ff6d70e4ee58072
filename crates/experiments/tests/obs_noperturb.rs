//! The observability layer's no-perturbation contract: instrumented and
//! uninstrumented runs of the full pipeline produce byte-identical
//! results, at any thread count.
//!
//! The [`preexec_obs`] registry is write-only from the pipeline's point
//! of view — counters, gauges, histograms, and spans are recorded but
//! never read back by the code they instrument — so flipping
//! [`Registry::set_recording`](preexec_obs::Registry::set_recording)
//! must not change a single output byte. `Debug` formatting round-trips
//! every `f64` exactly, so string equality below is bitwise equality of
//! the whole result, and the serialized forest covers the persisted
//! artifact too.
//!
//! This test is an integration test (own process) deliberately: it
//! toggles the *global* registry's recording flag, which would race with
//! unit tests sharing the process.

use preexec_experiments::{Pipeline, PipelineConfig};
use preexec_slice::write_forest;
use preexec_workloads::{suite, InputSet};

#[test]
fn recording_does_not_perturb_pipeline_output() {
    let w = suite().into_iter().find(|w| w.name == "vpr.r").expect("suite has vpr.r");
    let p = w.build(InputSet::Train);
    let cfg = PipelineConfig::paper_default(60_000);
    let registry = preexec_obs::global();

    // One full run per thread count — serial and 8-thread — reduced to
    // bytes: the Debug rendering of the pipeline result plus the
    // serialized slice forest.
    let run = |threads: usize| {
        let out = Pipeline::new(&p).config(cfg).threads(threads).run().expect("pipeline");
        (format!("{:?}", out.result), write_forest(&out.forest))
    };
    let points = [1usize, 8];

    // Reference: recording off — every handle is a no-op, which is the
    // "uninstrumented" configuration without a second code path.
    registry.set_recording(false);
    let reference: Vec<_> = points.iter().map(|&t| run(t)).collect();
    let quiet_samples: u64 =
        registry.snapshot().histograms.iter().map(|(_, h)| h.count()).sum();
    assert_eq!(quiet_samples, 0, "recording off still recorded samples");

    // Instrumented: recording on, same runs, same bytes.
    registry.set_recording(true);
    for (i, &threads) in points.iter().enumerate() {
        let (result, forest) = run(threads);
        assert_eq!(
            result, reference[i].0,
            "pipeline output perturbed by recording at threads={threads}"
        );
        assert_eq!(
            forest, reference[i].1,
            "slice forest perturbed by recording at threads={threads}"
        );
    }

    // And the instrumentation really fired: per-stage spans recorded.
    let snap = registry.snapshot();
    let hist_count = |name: &str| {
        snap.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, h)| h.count())
    };
    for stage in [
        "stage.trace",
        "stage.slice_build",
        "stage.score",
        "stage.solve",
        "stage.base_sim",
        "stage.assisted_sim",
    ] {
        assert!(hist_count(stage) > 0, "no samples recorded for {stage}");
    }
    let counter = |name: &str| {
        snap.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    };
    assert!(counter("pipeline.runs") >= 2, "pipeline.runs not counted");
    assert!(counter("select.candidates") > 0, "select.candidates not counted");
    assert!(counter("par.items") > 0, "par pool recorded no items");
}
