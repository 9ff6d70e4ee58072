//! Figures 4–8 and the §4.5 processor-width study.

use crate::fmt;
use crate::pipeline::{
    pct, select_stage, try_run_cross_input, try_sim, PipelineConfig, PipelineResult,
};
use crate::{Pipeline, PipelineError};
use preexec_core::StaticPThread;
use preexec_func::{try_run_trace, TraceConfig};
use preexec_isa::Program;
use preexec_slice::SliceForestBuilder;
use preexec_timing::{MachineParams, SimMode, SimResult};
use preexec_workloads::{suite, InputSet, Workload};
use std::collections::HashSet;

/// One bar of a paper figure: the five diagnostics every graph carries
/// (§4.4): miss coverage, full coverage, instruction overhead, average
/// p-thread length, and percent speedup over the base configuration.
#[derive(Debug, Clone)]
pub struct Bar {
    /// Configuration label for the bar.
    pub label: String,
    /// Miss coverage, % of base L2 misses.
    pub coverage: f64,
    /// Full miss coverage, % of base L2 misses.
    pub full: f64,
    /// Instruction overhead: p-thread instructions per retired
    /// main-thread instruction.
    pub overhead: f64,
    /// Average dynamic p-thread length.
    pub pt_len: f64,
    /// Percent speedup over the unassisted base run.
    pub speedup_pct: f64,
    /// Static p-threads selected.
    pub num_static: usize,
}

/// A figure: per-benchmark groups of bars.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure title.
    pub title: String,
    /// `(benchmark, bars)` in suite order.
    pub groups: Vec<(String, Vec<Bar>)>,
}

impl Figure {
    /// Renders the figure as a text table, one row per (benchmark, bar).
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "benchmark".to_string(),
            "config".to_string(),
            "cov%".to_string(),
            "full%".to_string(),
            "overhead".to_string(),
            "len".to_string(),
            "speedup%".to_string(),
            "#static".to_string(),
        ]];
        for (name, bars) in &self.groups {
            for b in bars {
                rows.push(vec![
                    name.clone(),
                    b.label.clone(),
                    fmt::f(b.coverage, 1),
                    fmt::f(b.full, 1),
                    fmt::f(b.overhead, 3),
                    fmt::f(b.pt_len, 1),
                    fmt::f(b.speedup_pct, 1),
                    b.num_static.to_string(),
                ]);
            }
        }
        format!("{}\n{}", self.title, fmt::render(&rows))
    }
}

impl Bar {
    /// The bar of `num_static` p-threads whose assisted run measured
    /// `assisted` against the unassisted run `base`.
    fn measured(label: &str, num_static: usize, base: &SimResult, assisted: &SimResult) -> Bar {
        Bar {
            label: label.to_string(),
            coverage: pct(assisted.covered(), base.mem.l2_misses),
            full: pct(assisted.mem.covered_full, base.mem.l2_misses),
            overhead: assisted.overhead(),
            pt_len: assisted.avg_pthread_len(),
            speedup_pct: 100.0 * (assisted.ipc() / base.ipc() - 1.0),
            num_static,
        }
    }

    /// The bar of one pipeline result.
    fn of(label: &str, r: &PipelineResult) -> Bar {
        Bar::measured(label, r.selection.pthreads.len(), &r.base, &r.assisted)
    }
}

/// A figure of one group of bars per suite kernel, in suite order.
fn figure(
    title: &str,
    bars: impl Fn(&Workload) -> Result<Vec<Bar>, PipelineError>,
) -> Result<Figure, PipelineError> {
    let groups = suite()
        .into_iter()
        .map(|w| Ok((w.name.to_string(), bars(&w)?)))
        .collect::<Result<_, PipelineError>>()?;
    Ok(Figure {
        title: title.to_string(),
        groups,
    })
}

/// A figure of one [`Pipeline`] run per suite kernel (train input) and
/// labelled configuration.
fn runs_figure(title: &str, cells: &[(String, PipelineConfig)]) -> Result<Figure, PipelineError> {
    figure(title, |w| {
        let p = w.build(InputSet::Train);
        cells
            .iter()
            .map(|(label, cfg)| {
                let r = Pipeline::new(&p).config(*cfg).run()?.result;
                Ok(Bar::of(label, &r))
            })
            .collect()
    })
}

/// Figure 4: combined impact of slicing scope and p-thread length.
/// Scope/length pairs: (256, 8), (512, 16), (1024, 32), (2048, 64).
///
/// # Errors
///
/// Configuration variants of [`PipelineError`] (a zero `budget` is
/// [`PipelineError::ZeroBudget`]) before any work; wrapped layer errors
/// if a stage faults. Every figure below fails the same way.
pub fn fig4(budget: u64) -> Result<Figure, PipelineError> {
    let base = PipelineConfig::paper_default(budget);
    let cells = [(256usize, 8usize), (512, 16), (1024, 32), (2048, 64)].map(|(scope, len)| {
        let cfg = PipelineConfig {
            scope,
            max_slice_len: len,
            max_pthread_len: len,
            ..base
        };
        (format!("{scope}/{len}"), cfg)
    });
    runs_figure("Figure 4: slicing scope x p-thread length", &cells)
}

/// Figure 5: impact of p-thread optimization and merging.
///
/// # Errors
///
/// As [`fig4`].
pub fn fig5(budget: u64) -> Result<Figure, PipelineError> {
    let base = PipelineConfig::paper_default(budget);
    let cells = [
        ("none", false, false),
        ("opt", true, false),
        ("merge", false, true),
        ("opt+merge", true, true),
    ]
    .map(|(label, optimize, merge)| {
        let cfg = PipelineConfig {
            optimize,
            merge,
            ..base
        };
        (label.to_string(), cfg)
    });
    runs_figure("Figure 5: p-thread optimization and merging", &cells)
}

/// Per-region selection for the granularity study: a cold trace of
/// `cfg.budget` instructions is cut into `regions` equal pieces,
/// p-threads are selected independently per region against `base_ipc`,
/// and the union (deduplicated) is returned.
///
/// This trace is not the pipeline's, so it does not pass the
/// pipeline's config check: validate `cfg` first
/// ([`PipelineConfig::try_validate`]).
///
/// # Errors
///
/// [`PipelineError::Slice`] for a zero scope or slice length,
/// [`PipelineError::Exec`] if the trace faults, and selection errors.
///
/// # Panics
///
/// Panics if `regions` is 0.
pub fn granular_select(
    program: &Program,
    cfg: &PipelineConfig,
    regions: u64,
    base_ipc: f64,
) -> Result<Vec<StaticPThread>, PipelineError> {
    let region_len = (cfg.budget / regions).max(1);
    // A trace of `budget` instructions reaches at most `budget` regions.
    let mut builders = (0..regions.min(cfg.budget.max(1)))
        .map(|_| SliceForestBuilder::try_new(cfg.scope, cfg.max_slice_len))
        .collect::<Result<Vec<_>, _>>()?;
    let last = builders.len() - 1;
    let trace_cfg = TraceConfig {
        max_steps: cfg.budget,
        ..TraceConfig::default()
    };
    try_run_trace(program, &trace_cfg, |d| {
        let region = usize::try_from(d.seq / region_len).map_or(last, |r| r.min(last));
        builders[region].observe(d);
    })?;

    let mut out: Vec<StaticPThread> = Vec::new();
    let mut dedupe: HashSet<(u32, Vec<preexec_isa::Inst>)> = HashSet::new();
    for b in builders {
        let forest = b.finish();
        for pt in select_stage(&forest, cfg, base_ipc)?.pthreads {
            if dedupe.insert((pt.trigger, pt.body.clone())) {
                out.push(pt);
            }
        }
    }
    Ok(out)
}

/// Figure 6: impact of p-thread selection granularity. The paper uses a
/// full run and 100 M / 10 M / 1 M-instruction regions; we keep the same
/// geometric ladder at sample scale: 1, 4, 16 and 64 regions.
///
/// # Errors
///
/// As [`fig4`].
pub fn fig6(budget: u64) -> Result<Figure, PipelineError> {
    let cfg = PipelineConfig::paper_default(budget);
    // The per-region traces bypass the builder and its check.
    cfg.try_validate()?;
    figure("Figure 6: selection granularity", |w| {
        let p = w.build(InputSet::Train);
        let base = try_sim(&p, &[], &cfg, SimMode::Normal)?;
        [1u64, 4, 16, 64]
            .iter()
            .map(|&g| {
                let pts = granular_select(&p, &cfg, g, base.ipc())?;
                let assisted = try_sim(&p, &pts, &cfg, SimMode::Normal)?;
                Ok(Bar::measured(
                    &format!("1/{g}"),
                    pts.len(),
                    &base,
                    &assisted,
                ))
            })
            .collect()
    })
}

/// Figure 7: impact of the selection input dataset. Scenarios: *perfect*
/// (select on the measured run itself), *dynamic* (a short profiling
/// phase of the same run), and *static* (a test-input profile). The
/// three bars share the *perfect* run's base simulation of the train
/// input, and each measures its own assisted simulation.
///
/// # Errors
///
/// As [`fig4`].
pub fn fig7(budget: u64) -> Result<Figure, PipelineError> {
    let cfg = PipelineConfig::paper_default(budget);
    figure("Figure 7: selection input dataset", |w| {
        let train = w.build(InputSet::Train);
        let test = w.build(InputSet::Test);
        let perfect = Pipeline::new(&train).config(cfg).run()?.result;
        let base = &perfect.base;
        let dynamic = try_run_cross_input(&train, budget / 8, &train, base, &cfg)?;
        let statik = try_run_cross_input(&test, budget * 2, &train, base, &cfg)?;
        Ok(vec![
            Bar::of("perfect", &perfect),
            Bar::of("dynamic", &dynamic),
            Bar::of("static", &statik),
        ])
    })
}

/// Figure 8: response to memory-latency variations. Four experiments per
/// benchmark: within each simulated latency (140, 70), p-threads selected
/// assuming 70 and 140 cycles — self- and cross-validation.
///
/// # Errors
///
/// As [`fig4`].
pub fn fig8(budget: u64) -> Result<Figure, PipelineError> {
    let cells = [
        (140u64, 70.0f64), // p140(t70): cross
        (140, 140.0),      // p140(t140): self
        (70, 140.0),       // p70(t140): cross (over-specification)
        (70, 70.0),        // p70(t70): self
    ]
    .map(|(sim_lat, model_lat)| {
        let cfg = PipelineConfig {
            machine: MachineParams::paper_default().with_mem_latency(sim_lat),
            model_miss_latency: Some(model_lat),
            ..PipelineConfig::paper_default(budget)
        };
        (format!("p{sim_lat}(t{})", model_lat as u64), cfg)
    });
    runs_figure("Figure 8: memory latency cross-validation", &cells)
}

/// §4.5 processor-width cross-validation (the paper reports "similar
/// results" without a figure): p-threads selected assuming width 4 and 8,
/// each measured on width-4 and width-8 machines.
///
/// # Errors
///
/// As [`fig4`].
pub fn width_xval(budget: u64) -> Result<Figure, PipelineError> {
    let cells = [(8u32, 4.0f64), (8, 8.0), (4, 8.0), (4, 4.0)].map(|(sim_width, model_width)| {
        let cfg = PipelineConfig {
            machine: MachineParams::paper_default().with_width(sim_width),
            model_width: Some(model_width),
            ..PipelineConfig::paper_default(budget)
        };
        (format!("p{sim_width}(t{})", model_width as u64), cfg)
    });
    runs_figure("Processor width cross-validation (sec. 4.5)", &cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_workloads::suite;

    /// A cheap single-benchmark variant of fig4 used for testing trends.
    fn fig4_one(name: &str, budget: u64) -> Vec<Bar> {
        let w = suite().into_iter().find(|w| w.name == name).unwrap();
        let p = w.build(InputSet::Train);
        let base_cfg = PipelineConfig::paper_default(budget);
        [(256usize, 8usize), (1024, 32)]
            .into_iter()
            .map(|(scope, len)| {
                let cfg = PipelineConfig {
                    scope,
                    max_slice_len: len,
                    max_pthread_len: len,
                    ..base_cfg
                };
                let r = Pipeline::new(&p).config(cfg).run().unwrap().result;
                Bar::of(&format!("{scope}/{len}"), &r)
            })
            .collect()
    }

    #[test]
    fn relaxing_constraints_does_not_reduce_coverage_much() {
        let bars = fig4_one("vpr.r", 100_000);
        // The paper's trend: coverage grows (or saturates) as constraints
        // relax. Allow small noise.
        assert!(
            bars[1].coverage >= bars[0].coverage - 5.0,
            "{} -> {}",
            bars[0].coverage,
            bars[1].coverage
        );
    }

    #[test]
    fn granular_select_produces_pthreads() {
        let w = suite().into_iter().find(|w| w.name == "gap").unwrap();
        let p = w.build(InputSet::Train);
        let cfg = PipelineConfig::paper_default(80_000);
        let base = try_sim(&p, &[], &cfg, SimMode::Normal).unwrap();
        let whole = granular_select(&p, &cfg, 1, base.ipc()).unwrap();
        let fine = granular_select(&p, &cfg, 8, base.ipc()).unwrap();
        assert!(!whole.is_empty());
        assert!(!fine.is_empty());
    }

    #[test]
    fn figure_renders() {
        let fig = Figure {
            title: "t".to_string(),
            groups: vec![(
                "mcf".to_string(),
                vec![Bar {
                    label: "a".into(),
                    coverage: 1.0,
                    full: 0.5,
                    overhead: 0.01,
                    pt_len: 3.0,
                    speedup_pct: 2.0,
                    num_static: 1,
                }],
            )],
        };
        let s = fig.render();
        assert!(s.contains("mcf"));
        assert!(s.contains("cov%"));
    }
}
