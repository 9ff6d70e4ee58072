//! Cross-crate integration tests: the full pipeline on real suite kernels,
//! checking the paper's qualitative claims end to end.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec::experiments::pipeline::{try_run_cross_input, try_sim};
use preexec::experiments::{Pipeline, PipelineConfig, PipelineResult};
use preexec::isa::Program;
use preexec::timing::SimMode;
use preexec::workloads::{suite, InputSet, Workload};

const BUDGET: u64 = 100_000;

fn workload(name: &str) -> Workload {
    suite().into_iter().find(|w| w.name == name).unwrap()
}

fn cfg() -> PipelineConfig {
    PipelineConfig::paper_default(BUDGET)
}

/// One pipeline run (trace warmed by a quarter of the budget, like every
/// figure's).
fn run(p: &Program, cfg: &PipelineConfig) -> PipelineResult {
    Pipeline::new(p).config(*cfg).run().unwrap().result
}

#[test]
fn pre_execution_improves_every_kernel_or_breaks_even() {
    // Paper Table 2: improvements up to 24%, with one benchmark (crafty)
    // showing a 1% degradation. Allow the same small tolerance.
    for w in suite() {
        let r = run(&w.build(InputSet::Train), &cfg());
        assert!(
            r.speedup() > 0.97,
            "{} regressed: {:.3}x",
            w.name,
            r.speedup()
        );
    }
}

#[test]
fn coverage_spans_the_paper_range() {
    // Paper: coverage between 10% (mcf) and 82% (vpr.p/vpr.r class).
    // Check both ends exist in our suite: a high-coverage kernel and a
    // low-full-coverage kernel.
    let best = run(&workload("vpr.r").build(InputSet::Train), &cfg());
    assert!(
        best.full_coverage_pct() > 60.0,
        "vpr.r full coverage {}",
        best.full_coverage_pct()
    );
    let worst = run(&workload("gcc").build(InputSet::Train), &cfg());
    assert!(
        worst.full_coverage_pct() < 20.0,
        "gcc full coverage {}",
        worst.full_coverage_pct()
    );
}

#[test]
fn fig4_trend_constraints_relax_coverage_saturates() {
    // Figure 4: coverage and speedup increase as scope/length constraints
    // are relaxed, then saturate.
    let w = workload("vortex");
    let p = w.build(InputSet::Train);
    let mut coverages = Vec::new();
    for (scope, len) in [(256usize, 8usize), (1024, 32), (2048, 64)] {
        let c = PipelineConfig {
            scope,
            max_slice_len: len,
            max_pthread_len: len,
            ..cfg()
        };
        let r = run(&p, &c);
        coverages.push(100.0 * r.assisted.covered() as f64 / r.base.mem.l2_misses.max(1) as f64);
    }
    // Tightest constraints must not beat the relaxed ones by much, and the
    // most relaxed configuration should be within noise of the middle one
    // (saturation).
    assert!(
        coverages[1] >= coverages[0] - 5.0,
        "relaxing constraints lost coverage: {coverages:?}"
    );
    assert!(
        (coverages[2] - coverages[1]).abs() < 25.0,
        "no saturation visible: {coverages:?}"
    );
}

#[test]
fn fig5_trend_optimization_shortens_and_does_not_hurt() {
    let w = workload("parser");
    let p = w.build(InputSet::Train);
    let mut results = Vec::new();
    for (optimize, merge) in [(false, false), (true, true)] {
        let c = PipelineConfig {
            optimize,
            merge,
            ..cfg()
        };
        let sel = run(&p, &c).selection;
        results.push((
            sel.prediction.avg_pthread_len,
            sel.prediction.misses_covered,
        ));
    }
    let (_len_plain, cov_plain) = results[0];
    let (_len_opt, cov_opt) = results[1];
    // Optimization's dominant effect (paper sec. 4.4) is an *increase in
    // viable candidates*, hence coverage: it must never lose significant
    // coverage. (Average selected length can go either way: shrinking
    // bodies makes previously illegal, longer candidates viable.)
    assert!(
        cov_opt + cov_opt / 10 >= cov_plain,
        "optimization must not lose significant coverage: {cov_opt} vs {cov_plain}"
    );
}

#[test]
fn fig7_trend_l2_resident_test_inputs_select_nothing() {
    // Paper Figure 7: "the test data working sets for twolf and vpr.p fit
    // into our L2 cache resulting in no p-threads being selected for those
    // two benchmarks in the static scenario."
    for name in ["twolf", "vpr.p"] {
        let w = workload(name);
        let train = w.build(InputSet::Train);
        let test = w.build(InputSet::Test);
        let base = try_sim(&train, &[], &cfg(), SimMode::Normal).unwrap();
        let r = try_run_cross_input(&test, 4 * BUDGET, &train, &base, &cfg()).unwrap();
        // Cold misses alone cannot justify per-iteration launches; at most
        // a couple of marginal one-shot p-threads appear.
        assert!(
            r.selection.prediction.launches < 100,
            "{name}: static scenario launched {} p-threads",
            r.selection.prediction.launches
        );
    }
}

#[test]
fn fig7_trend_dynamic_profile_approaches_perfect() {
    let w = workload("vpr.r");
    let train = w.build(InputSet::Train);
    let perfect = run(&train, &cfg());
    let dynamic = try_run_cross_input(&train, BUDGET / 8, &train, &perfect.base, &cfg()).unwrap();
    assert!(
        dynamic.assisted.ipc() > 0.8 * perfect.assisted.ipc(),
        "dynamic {} vs perfect {}",
        dynamic.assisted.ipc(),
        perfect.assisted.ipc()
    );
}

#[test]
fn fig8_trend_self_validation_not_dominated() {
    // For the latency-sensitive vpr.r, p-threads selected for the actual
    // memory latency must not lose badly to cross-selected ones.
    let w = workload("vpr.r");
    let p = w.build(InputSet::Train);
    for sim_lat in [70u64, 140] {
        let mut ipcs = Vec::new();
        for model_lat in [sim_lat as f64, if sim_lat == 70 { 140.0 } else { 70.0 }] {
            let c = PipelineConfig {
                machine: preexec::timing::MachineParams::paper_default().with_mem_latency(sim_lat),
                model_miss_latency: Some(model_lat),
                ..cfg()
            };
            ipcs.push(run(&p, &c).assisted.ipc());
        }
        let (self_ipc, cross_ipc) = (ipcs[0], ipcs[1]);
        assert!(
            self_ipc > 0.95 * cross_ipc,
            "lat {sim_lat}: self {self_ipc} badly dominated by cross {cross_ipc}"
        );
    }
}

#[test]
fn validation_overhead_modes_agree() {
    // Paper §4.3: the `execute` and `sequence` overhead simulations "often
    // produce identical results", validating overhead-as-bandwidth.
    let w = workload("crafty");
    let p = w.build(InputSet::Train);
    let c = cfg();
    let r = run(&p, &c);
    let pts = &r.selection.pthreads;
    let ex = try_sim(&p, pts, &c, SimMode::OverheadExecute).unwrap();
    let sq = try_sim(&p, pts, &c, SimMode::OverheadSequence).unwrap();
    let rel = (ex.ipc() - sq.ipc()).abs() / r.base.ipc();
    assert!(
        rel < 0.10,
        "overhead modes diverge: {} vs {}",
        ex.ipc(),
        sq.ipc()
    );
    // And neither prefetches.
    assert_eq!(ex.covered(), 0);
    assert_eq!(sq.covered(), 0);
}

#[test]
fn validation_predicted_launches_track_measured() {
    // Paper §4.3: launch counts correlate well (we model no wrong path,
    // so ours should be close up to context drops).
    for name in ["gap", "vpr.r", "crafty"] {
        let r = run(&workload(name).build(InputSet::Train), &cfg());
        let predicted = r.selection.prediction.launches as f64;
        let measured = (r.assisted.launches + r.assisted.drops) as f64;
        if predicted == 0.0 {
            continue;
        }
        let ratio = measured / predicted;
        assert!(
            (0.5..2.0).contains(&ratio),
            "{name}: launches measured {measured} vs predicted {predicted}"
        );
    }
}
