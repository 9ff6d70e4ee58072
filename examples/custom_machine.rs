//! Cross-validation demo: select p-threads for the *wrong* machine and
//! watch the framework's sensitivity to its parameters (the Figure-8
//! methodology on a single kernel).
//!
//! Run with: `cargo run --release --example custom_machine`

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec::experiments::{Pipeline, PipelineConfig, PipelineError};
use preexec::timing::MachineParams;
use preexec::workloads::{suite, InputSet};

fn main() -> Result<(), PipelineError> {
    let w = suite().into_iter().find(|w| w.name == "vpr.r").unwrap();
    let program = w.build(InputSet::Train);
    let budget = 120_000;

    println!("vpr.r under memory-latency self- and cross-validation:");
    println!(
        "{:<14} {:>8} {:>8} {:>7} {:>7} {:>6}",
        "experiment", "baseIPC", "IPC", "cov%", "full%", "len"
    );
    for (sim_lat, model_lat) in [(70u64, 70.0f64), (70, 140.0), (140, 140.0), (140, 70.0)] {
        let cfg = PipelineConfig {
            machine: MachineParams::paper_default().with_mem_latency(sim_lat),
            model_miss_latency: Some(model_lat),
            ..PipelineConfig::paper_default(budget)
        };
        let r = Pipeline::new(&program).config(cfg).run()?.result;
        let (base, assisted) = (&r.base, &r.assisted);
        println!(
            "p{sim_lat}(t{:<3}) {:>11.3} {:>8.3} {:>6.1} {:>6.1} {:>6.1}",
            model_lat as u64,
            base.ipc(),
            assisted.ipc(),
            100.0 * assisted.covered() as f64 / base.mem.l2_misses.max(1) as f64,
            100.0 * assisted.mem.covered_full as f64 / base.mem.l2_misses.max(1) as f64,
            assisted.avg_pthread_len(),
        );
    }
    println!();
    println!("Within each simulated latency, the self-validation row should");
    println!("match or beat the cross-validation row; selecting for higher");
    println!("latency yields longer p-threads (paper sec. 4.5).");
    Ok(())
}
