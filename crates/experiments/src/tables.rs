//! Table 1 (benchmark characterization) and Table 2 (primary results and
//! model validation).

use crate::fmt;
use crate::pipeline::{pct, try_sim, PipelineConfig, PipelineResult};
use crate::{Pipeline, PipelineError};
use preexec_timing::{try_simulate, SimConfig, SimMode};
use preexec_workloads::{suite, InputSet};

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Dynamic instructions measured.
    pub insts: u64,
    /// Loads.
    pub loads: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Unassisted IPC.
    pub ipc: f64,
    /// IPC with a perfect L2.
    pub perfect_ipc: f64,
}

/// Computes Table 1 over the whole suite at `budget` instructions per
/// benchmark.
///
/// # Errors
///
/// Configuration variants of [`PipelineError`] (a zero `budget` is
/// [`PipelineError::ZeroBudget`]) before any work; wrapped layer errors
/// if a trace or simulation faults.
pub fn table1(budget: u64) -> Result<Vec<Table1Row>, PipelineError> {
    let cfg = PipelineConfig::paper_default(budget);
    // The characterization counts a cold trace of the whole budget; it
    // keeps no slices, so it slices as little as the trace allows.
    let cold = PipelineConfig {
        scope: 64,
        max_slice_len: 2,
        warmup: 0,
        ..cfg
    };
    suite()
        .into_iter()
        .map(|w| {
            let p = w.build(InputSet::Train);
            let stats = Pipeline::new(&p).config(cold).trace()?.stats;
            let base = try_sim(&p, &[], &cfg, SimMode::Normal)?;
            let perfect = try_simulate(
                &p,
                &[],
                &SimConfig {
                    machine: cfg.machine,
                    perfect_l2: true,
                    max_insts: budget,
                    ..SimConfig::default()
                },
            )?;
            Ok(Table1Row {
                name: w.name.to_string(),
                insts: stats.insts,
                loads: stats.loads,
                l2_misses: stats.l2_misses,
                ipc: base.ipc(),
                perfect_ipc: perfect.ipc(),
            })
        })
        .collect()
}

/// Renders Table 1 in the paper's layout.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = vec![vec![
        "benchmark".to_string(),
        "insts(K)".to_string(),
        "loads(K)".to_string(),
        "L2miss(K)".to_string(),
        "IPC".to_string(),
        "perfectL2".to_string(),
    ]];
    for r in rows {
        out.push(vec![
            r.name.clone(),
            fmt::f(r.insts as f64 / 1e3, 1),
            fmt::f(r.loads as f64 / 1e3, 1),
            fmt::f(r.l2_misses as f64 / 1e3, 2),
            fmt::f(r.ipc, 2),
            fmt::f(r.perfect_ipc, 2),
        ]);
    }
    fmt::render(&out)
}

/// One row of Table 2: measured pre-execution results and the framework's
/// predictions of the same quantities.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// Unassisted IPC.
    pub base_ipc: f64,
    // --- measured (the paper's "Pre-exec" section) ---
    /// Assisted IPC.
    pub ipc: f64,
    /// P-threads launched.
    pub launches: u64,
    /// Average injected instructions per p-thread.
    pub insts_per_pt: f64,
    /// Misses covered, % of base misses.
    pub covered_pct: f64,
    /// Misses fully covered, % of base misses.
    pub full_pct: f64,
    /// IPC of the overhead-only `execute` run.
    pub oh_execute_ipc: f64,
    /// IPC of the overhead-only `sequence` run.
    pub oh_sequence_ipc: f64,
    /// IPC of the latency-tolerance-only run.
    pub lt_ipc: f64,
    // --- predicted (the paper's "Predict" section) ---
    /// Predicted launches.
    pub p_launches: u64,
    /// Predicted p-thread length.
    pub p_len: f64,
    /// Predicted coverage %.
    pub p_covered_pct: f64,
    /// Predicted full coverage %.
    pub p_full_pct: f64,
    /// Predicted overhead-only IPC.
    pub p_oh_ipc: f64,
    /// Predicted latency-tolerance-only IPC.
    pub p_lt_ipc: f64,
    /// Predicted assisted IPC.
    pub p_ipc: f64,
}

/// Computes Table 2 over the whole suite: each row is one [`Pipeline`]
/// run plus the three validation modes over its selection.
///
/// # Errors
///
/// As [`table1`].
pub fn table2(budget: u64) -> Result<Vec<Table2Row>, PipelineError> {
    let cfg = PipelineConfig::paper_default(budget);
    suite()
        .into_iter()
        .map(|w| {
            let p = w.build(InputSet::Train);
            let PipelineResult {
                stats,
                base,
                selection,
                assisted,
            } = Pipeline::new(&p).config(cfg).run()?.result;
            let pts = &selection.pthreads;
            let oh_exec = try_sim(&p, pts, &cfg, SimMode::OverheadExecute)?;
            let oh_seq = try_sim(&p, pts, &cfg, SimMode::OverheadSequence)?;
            let lt_only = try_sim(&p, pts, &cfg, SimMode::LatencyToleranceOnly)?;
            let pr = &selection.prediction;
            let base_misses = base.mem.l2_misses;
            Ok(Table2Row {
                name: w.name.to_string(),
                base_ipc: base.ipc(),
                ipc: assisted.ipc(),
                launches: assisted.launches,
                insts_per_pt: assisted.avg_pthread_len(),
                covered_pct: pct(assisted.covered(), base_misses),
                full_pct: pct(assisted.mem.covered_full, base_misses),
                oh_execute_ipc: oh_exec.ipc(),
                oh_sequence_ipc: oh_seq.ipc(),
                lt_ipc: lt_only.ipc(),
                p_launches: pr.launches,
                p_len: pr.avg_pthread_len,
                p_covered_pct: pct(pr.misses_covered, stats.l2_misses.max(1)),
                p_full_pct: pct(pr.misses_fully_covered, stats.l2_misses.max(1)),
                p_oh_ipc: pr.predicted_overhead_ipc(stats.insts, base.ipc()),
                p_lt_ipc: pr.predicted_lt_ipc(stats.insts, base.ipc()),
                p_ipc: pr.predicted_ipc(stats.insts, base.ipc()),
            })
        })
        .collect()
}

/// Renders Table 2 in the paper's layout (base / pre-exec / predict).
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = vec![vec![
        "benchmark".to_string(),
        "baseIPC".to_string(),
        "IPC".to_string(),
        "launch(K)".to_string(),
        "len".to_string(),
        "cov%".to_string(),
        "full%".to_string(),
        "ohX-IPC".to_string(),
        "ohS-IPC".to_string(),
        "ltIPC".to_string(),
        "P:launch(K)".to_string(),
        "P:len".to_string(),
        "P:cov%".to_string(),
        "P:full%".to_string(),
        "P:ohIPC".to_string(),
        "P:ltIPC".to_string(),
        "P:IPC".to_string(),
    ]];
    for r in rows {
        out.push(vec![
            r.name.clone(),
            fmt::f(r.base_ipc, 2),
            fmt::f(r.ipc, 2),
            fmt::f(r.launches as f64 / 1e3, 1),
            fmt::f(r.insts_per_pt, 1),
            fmt::f(r.covered_pct, 1),
            fmt::f(r.full_pct, 1),
            fmt::f(r.oh_execute_ipc, 2),
            fmt::f(r.oh_sequence_ipc, 2),
            fmt::f(r.lt_ipc, 2),
            fmt::f(r.p_launches as f64 / 1e3, 1),
            fmt::f(r.p_len, 1),
            fmt::f(r.p_covered_pct, 1),
            fmt::f(r.p_full_pct, 1),
            fmt::f(r.p_oh_ipc, 2),
            fmt::f(r.p_lt_ipc, 2),
            fmt::f(r.p_ipc, 2),
        ]);
    }
    fmt::render(&out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_ten_rows_and_sane_values() {
        let rows = table1(60_000).unwrap();
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r.ipc > 0.0 && r.ipc <= 8.0, "{}: ipc {}", r.name, r.ipc);
            assert!(
                r.perfect_ipc >= r.ipc * 0.95,
                "{}: perfect {} < base {}",
                r.name,
                r.perfect_ipc,
                r.ipc
            );
            assert!(r.l2_misses > 0, "{}", r.name);
        }
        let text = render_table1(&rows);
        assert!(text.contains("mcf"));
    }

    #[test]
    fn mcf_is_among_the_slowest() {
        let rows = table1(60_000).unwrap();
        let mcf = rows.iter().find(|r| r.name == "mcf").unwrap();
        let mut ipcs: Vec<f64> = rows.iter().map(|r| r.ipc).collect();
        ipcs.sort_by(f64::total_cmp);
        let median = ipcs[ipcs.len() / 2];
        assert!(
            mcf.ipc < median,
            "mcf should be in the slow half: {} vs median {}",
            mcf.ipc,
            median
        );
    }
}
