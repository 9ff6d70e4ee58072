//! Tour of the synthetic SPEC2000int-like suite: run the end-to-end
//! pipeline on each of the ten kernels and print a one-line verdict.
//!
//! Run with: `cargo run --release --example suite_tour [budget]`
//! (default budget 100 000 instructions per kernel).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec::experiments::{Pipeline, PipelineConfig, PipelineError};
use preexec::workloads::{suite, InputSet};

fn main() -> Result<(), PipelineError> {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let cfg = PipelineConfig::paper_default(budget);
    println!(
        "{:<8} {:>8} {:>8} {:>9} {:>7} {:>7} {:>9}",
        "bench", "baseIPC", "IPC", "speedup", "cov%", "full%", "#pthreads"
    );
    for w in suite() {
        let program = w.build(InputSet::Train);
        let r = Pipeline::new(&program).config(cfg).run()?.result;
        println!(
            "{:<8} {:>8.3} {:>8.3} {:>8.2}x {:>6.1} {:>6.1} {:>9}",
            w.name,
            r.base.ipc(),
            r.assisted.ipc(),
            r.speedup(),
            r.coverage_pct(),
            r.full_coverage_pct(),
            r.selection.pthreads.len()
        );
    }
    Ok(())
}
