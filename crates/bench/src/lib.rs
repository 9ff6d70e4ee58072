//! Shared helpers for the benchmark suite.
//!
//! The benches in `benches/` regenerate the paper's tables and figures
//! (through [`preexec_experiments`]) at reduced budgets — suitable for
//! `cargo bench` runs — and measure the framework's own primitives
//! (slicing, tree construction, advantage scoring, selection, timing
//! simulation).

use preexec_func::{run_trace, TraceConfig};
use preexec_isa::Program;
use preexec_slice::{SliceForest, SliceForestBuilder};
use preexec_workloads::{suite, InputSet};

/// The per-benchmark instruction budget used by table/figure benches.
/// Small enough for Criterion iteration, large enough to exercise the
/// steady state of every kernel.
pub const BENCH_BUDGET: u64 = 40_000;

/// Builds one named suite workload (train input).
///
/// # Panics
///
/// Panics if the name is not in the suite.
pub fn build(name: &str) -> Program {
    suite()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("unknown workload {name}"))
        .build(InputSet::Train)
}

/// Traces `program` for `budget` instructions into a slice forest.
pub fn forest_for(program: &Program, budget: u64) -> SliceForest {
    let mut b = SliceForestBuilder::new(1024, 32);
    let cfg = TraceConfig {
        max_steps: budget,
        ..TraceConfig::default()
    };
    run_trace(program, &cfg, |d| b.observe(d));
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_work() {
        let p = build("vpr.r");
        let f = forest_for(&p, 20_000);
        assert!(f.num_trees() > 0);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_name_panics() {
        let _ = build("eon");
    }
}
