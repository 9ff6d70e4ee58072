//! Figures 4–8 and the §4.5 processor-width study.

use crate::fmt;
use crate::pipeline::{
    pct, run_cross_input, selection_params, sim, trace_and_slice_warm, PipelineConfig,
};
use preexec_core::{select_pthreads, StaticPThread};
use preexec_func::{run_trace, TraceConfig};
use preexec_isa::Program;
use preexec_slice::SliceForestBuilder;
use preexec_timing::SimMode;
use preexec_workloads::{suite, InputSet};
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

/// Measures one selection (already made) against the base run.
fn bar_for(
    label: &str,
    program: &Program,
    pthreads: &[StaticPThread],
    cfg: &PipelineConfig,
    base: &preexec_timing::SimResult,
) -> Bar {
    let assisted = sim(program, pthreads, cfg, SimMode::Normal);
    Bar {
        label: label.to_string(),
        coverage: pct(assisted.covered(), base.mem.l2_misses),
        full: pct(assisted.mem.covered_full, base.mem.l2_misses),
        overhead: assisted.overhead(),
        pt_len: assisted.avg_pthread_len(),
        speedup_pct: 100.0 * (assisted.ipc() / base.ipc() - 1.0),
        num_static: pthreads.len(),
    }
}

/// Runs selection for one program under `cfg` and measures it.
fn select_and_bar(
    label: &str,
    program: &Program,
    cfg: &PipelineConfig,
    base: &preexec_timing::SimResult,
) -> Bar {
    let (forest, _) = trace_and_slice_warm(
        program,
        cfg.scope,
        cfg.max_slice_len,
        cfg.budget,
        cfg.warmup,
    );
    let params = selection_params(cfg, base.ipc());
    let selection = select_pthreads(&forest, &params);
    bar_for(label, program, &selection.pthreads, cfg, base)
}

/// Figure 4: combined impact of slicing scope and p-thread length.
/// Scope/length pairs: (256, 8), (512, 16), (1024, 32), (2048, 64).
pub fn fig4(budget: u64) -> Figure {
    let combos = [(256usize, 8usize), (512, 16), (1024, 32), (2048, 64)];
    let mut groups = Vec::new();
    for w in suite() {
        let p = w.build(InputSet::Train);
        let base_cfg = PipelineConfig::paper_default(budget);
        let base = sim(&p, &[], &base_cfg, SimMode::Normal);
        let mut bars = Vec::new();
        for (scope, len) in combos {
            let cfg = PipelineConfig {
                scope,
                max_slice_len: len,
                max_pthread_len: len,
                ..base_cfg
            };
            bars.push(select_and_bar(&format!("{scope}/{len}"), &p, &cfg, &base));
        }
        groups.push((w.name.to_string(), bars));
    }
    Figure {
        title: "Figure 4: slicing scope x p-thread length".to_string(),
        groups,
    }
}

/// Figure 5: impact of p-thread optimization and merging.
pub fn fig5(budget: u64) -> Figure {
    let combos = [
        ("none", false, false),
        ("opt", true, false),
        ("merge", false, true),
        ("opt+merge", true, true),
    ];
    let mut groups = Vec::new();
    for w in suite() {
        let p = w.build(InputSet::Train);
        let base_cfg = PipelineConfig::paper_default(budget);
        let base = sim(&p, &[], &base_cfg, SimMode::Normal);
        let mut bars = Vec::new();
        for (label, optimize, merge) in combos {
            let cfg = PipelineConfig {
                optimize,
                merge,
                ..base_cfg
            };
            bars.push(select_and_bar(label, &p, &cfg, &base));
        }
        groups.push((w.name.to_string(), bars));
    }
    Figure {
        title: "Figure 5: p-thread optimization and merging".to_string(),
        groups,
    }
}

/// Per-region selection for the granularity study: the trace is cut into
/// `regions` equal pieces, p-threads are selected independently per
/// region, and the union (deduplicated) is measured.
pub fn granular_select(
    program: &Program,
    cfg: &PipelineConfig,
    regions: u64,
    base_ipc: f64,
) -> Vec<StaticPThread> {
    let region_len = (cfg.budget / regions).max(1);
    let mut builders: Vec<SliceForestBuilder> = Vec::new();
    let mut current = SliceForestBuilder::new(cfg.scope, cfg.max_slice_len);
    let mut seen: u64 = 0;
    let trace_cfg = TraceConfig {
        max_steps: cfg.budget,
        ..TraceConfig::default()
    };
    run_trace(program, &trace_cfg, |d| {
        if seen > 0 && seen.is_multiple_of(region_len) && (builders.len() as u64) < regions - 1 {
            let finished = std::mem::replace(
                &mut current,
                SliceForestBuilder::new(cfg.scope, cfg.max_slice_len),
            );
            builders.push(finished);
        }
        current.observe(d);
        seen += 1;
    });
    builders.push(current);

    let params = selection_params(cfg, base_ipc);
    let mut out: Vec<StaticPThread> = Vec::new();
    let mut dedupe: HashSet<(u32, Vec<preexec_isa::Inst>)> = HashSet::new();
    for b in builders {
        let forest = b.finish();
        for pt in select_pthreads(&forest, &params).pthreads {
            if dedupe.insert((pt.trigger, pt.body.clone())) {
                out.push(pt);
            }
        }
    }
    out
}

/// Figure 6: impact of p-thread selection granularity. The paper uses a
/// full run and 100 M / 10 M / 1 M-instruction regions; we keep the same
/// geometric ladder at sample scale: 1, 4, 16 and 64 regions.
pub fn fig6(budget: u64) -> Figure {
    let ladders = [1u64, 4, 16, 64];
    let mut groups = Vec::new();
    for w in suite() {
        let p = w.build(InputSet::Train);
        let cfg = PipelineConfig::paper_default(budget);
        let base = sim(&p, &[], &cfg, SimMode::Normal);
        let mut bars = Vec::new();
        for &g in &ladders {
            let pts = granular_select(&p, &cfg, g, base.ipc());
            bars.push(bar_for(&format!("1/{g}"), &p, &pts, &cfg, &base));
        }
        groups.push((w.name.to_string(), bars));
    }
    Figure {
        title: "Figure 6: selection granularity".to_string(),
        groups,
    }
}

/// Figure 7: impact of the selection input dataset. Scenarios: *perfect*
/// (select on the measured run itself), *dynamic* (a short profiling
/// phase of the same run), and *static* (a test-input profile).
pub fn fig7(budget: u64) -> Figure {
    let mut groups = Vec::new();
    for w in suite() {
        let train = w.build(InputSet::Train);
        let test = w.build(InputSet::Test);
        let cfg = PipelineConfig::paper_default(budget);
        let base = sim(&train, &[], &cfg, SimMode::Normal);

        let perfect = select_and_bar("perfect", &train, &cfg, &base);
        let dynamic = {
            let r = run_cross_input(&train, budget / 8, &train, &cfg);
            bar_for("dynamic", &train, &r.selection.pthreads, &cfg, &base)
        };
        let statik = {
            let r = run_cross_input(&test, budget * 2, &train, &cfg);
            bar_for("static", &train, &r.selection.pthreads, &cfg, &base)
        };
        groups.push((w.name.to_string(), vec![perfect, dynamic, statik]));
    }
    Figure {
        title: "Figure 7: selection input dataset".to_string(),
        groups,
    }
}

/// Figure 8: response to memory-latency variations. Four experiments per
/// benchmark: within each simulated latency (140, 70), p-threads selected
/// assuming 70 and 140 cycles — self- and cross-validation.
pub fn fig8(budget: u64) -> Figure {
    let cells: [(u64, f64); 4] = [
        (140, 70.0),  // p140(t70): cross
        (140, 140.0), // p140(t140): self
        (70, 140.0),  // p70(t140): cross (over-specification)
        (70, 70.0),   // p70(t70): self
    ];
    let mut groups = Vec::new();
    for w in suite() {
        let p = w.build(InputSet::Train);
        let mut bars = Vec::new();
        for (sim_lat, model_lat) in cells {
            let cfg = PipelineConfig {
                machine: preexec_timing::MachineParams::paper_default().with_mem_latency(sim_lat),
                model_miss_latency: Some(model_lat),
                ..PipelineConfig::paper_default(budget)
            };
            let base = sim(&p, &[], &cfg, SimMode::Normal);
            bars.push(select_and_bar(
                &format!("p{sim_lat}(t{})", model_lat as u64),
                &p,
                &cfg,
                &base,
            ));
        }
        groups.push((w.name.to_string(), bars));
    }
    Figure {
        title: "Figure 8: memory latency cross-validation".to_string(),
        groups,
    }
}

/// §4.5 processor-width cross-validation (the paper reports "similar
/// results" without a figure): p-threads selected assuming width 4 and 8,
/// each measured on width-4 and width-8 machines.
pub fn width_xval(budget: u64) -> Figure {
    let cells: [(u32, f64); 4] = [(8, 4.0), (8, 8.0), (4, 8.0), (4, 4.0)];
    let mut groups = Vec::new();
    for w in suite() {
        let p = w.build(InputSet::Train);
        let mut bars = Vec::new();
        for (sim_width, model_width) in cells {
            let cfg = PipelineConfig {
                machine: preexec_timing::MachineParams::paper_default().with_width(sim_width),
                model_width: Some(model_width),
                ..PipelineConfig::paper_default(budget)
            };
            let base = sim(&p, &[], &cfg, SimMode::Normal);
            bars.push(select_and_bar(
                &format!("p{sim_width}(t{})", model_width as u64),
                &p,
                &cfg,
                &base,
            ));
        }
        groups.push((w.name.to_string(), bars));
    }
    Figure {
        title: "Processor width cross-validation (sec. 4.5)".to_string(),
        groups,
    }
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
        let base = sim(&p, &[], &base_cfg, SimMode::Normal);
        [(256usize, 8usize), (1024, 32)]
            .into_iter()
            .map(|(scope, len)| {
                let cfg = PipelineConfig {
                    scope,
                    max_slice_len: len,
                    max_pthread_len: len,
                    ..base_cfg
                };
                select_and_bar(&format!("{scope}/{len}"), &p, &cfg, &base)
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
        let base = sim(&p, &[], &cfg, SimMode::Normal);
        let whole = granular_select(&p, &cfg, 1, base.ipc());
        let fine = granular_select(&p, &cfg, 8, base.ipc());
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
