//! Bounded-memory contract for on-demand re-execution slicing
//! (DESIGN.md §17): a scope far past anything the windowed slicer could
//! keep resident completes, matches the windowed forest byte-for-byte,
//! and holds at most `DETAIL_CACHE_INTERVALS × checkpoint_every`
//! instructions of slice detail at once — independent of scope.
//!
//! This test lives in its own binary because it reads the global
//! `reexec.peak_resident_insts` gauge; sibling tests running on-demand
//! traces in the same process would race the value.

#![allow(clippy::expect_used)]

use preexec_experiments::{Pipeline, PipelineConfig, PolicySpec, SlicingMode};
use preexec_slice::write_forest;
use preexec_workloads::{suite, InputSet};

#[test]
fn huge_scope_completes_with_bounded_residency() {
    let w = suite()
        .into_iter()
        .find(|w| w.name == "mcf")
        .expect("suite has mcf");
    let p = w.build(InputSet::Train);

    // A scope ~1000× the paper default (1024) and well past the old
    // eager ring allocation: the windowed path still works (the ring is
    // lazily clamped), but only because the budget bounds it — on-demand
    // must get there without ever materializing scope-sized state.
    let mut cfg = PipelineConfig::paper_default(40_000);
    cfg.scope = 1_000_000;
    let checkpoint_every = 512u64;

    let windowed = Pipeline::new(&p)
        .config(cfg)
        .trace()
        .expect("windowed trace");
    let ondemand = Pipeline::new(&p)
        .policy(PolicySpec {
            cfg,
            slicing: SlicingMode::OnDemand { checkpoint_every },
            ..PolicySpec::default()
        })
        .trace()
        .expect("ondemand trace");

    assert_eq!(
        write_forest(&ondemand.forest),
        write_forest(&windowed.forest),
        "ondemand forest differs from windowed at scope 1M"
    );
    assert!(ondemand.stats.l2_misses > 0, "trivial run proves nothing");

    let snap = preexec_obs::global().snapshot();
    let peak = snap
        .gauges
        .iter()
        .find(|(name, _)| name == "reexec.peak_resident_insts")
        .map(|&(_, value)| value)
        .expect("gauge recorded");
    // DETAIL_CACHE_INTERVALS = 4 replay intervals of detail, nothing more.
    let bound = 4 * checkpoint_every as i64;
    assert!(
        peak > 0 && peak <= bound,
        "peak resident detail {peak} outside (0, {bound}] — scope leaked into residency"
    );
    assert!(
        (peak as usize) < cfg.scope / 100,
        "residency not far under scope"
    );
}
