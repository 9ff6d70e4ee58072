//! Ablations of the reproduction's own design choices (DESIGN.md §7.5):
//!
//! - model miss latency: bare memory latency (70) vs. the full L2-miss
//!   latency a load sees (78) — the knife-edge that decides whether
//!   selected lookahead actually covers the real, contended latency;
//! - trace warm-up: selecting on a cold-start trace vs. a warmed one —
//!   cold misses masquerade as steady-state problem loads.
//!
//! Usage: `ablations [budget]`

use preexec_experiments::{Pipeline, PipelineConfig, PipelineError};
use preexec_workloads::{by_name, InputSet};

fn main() -> Result<(), PipelineError> {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(120_000);

    println!(
        "{:<8} {:<26} {:>7} {:>7} {:>9}",
        "bench", "ablation", "cov%", "full%", "speedup%"
    );
    for name in ["vpr.r", "parser", "twolf"] {
        let w = by_name(name).expect("every ablated kernel is in the suite");
        let p = w.build(InputSet::Train);
        let base_cfg = PipelineConfig::paper_default(budget);

        let variants: [(&str, PipelineConfig); 4] = [
            ("default (78cyc, warm)", base_cfg),
            (
                "model latency = 70",
                PipelineConfig {
                    model_miss_latency: Some(70.0),
                    ..base_cfg
                },
            ),
            (
                "no trace warm-up",
                PipelineConfig {
                    warmup: 0,
                    ..base_cfg
                },
            ),
            (
                "no opt, no merge",
                PipelineConfig {
                    optimize: false,
                    merge: false,
                    ..base_cfg
                },
            ),
        ];
        for (label, cfg) in variants {
            // No variant changes the machine or the budget, so each run's
            // base simulation is the same.
            let r = Pipeline::new(&p).config(cfg).run()?.result;
            let (base, assisted) = (&r.base, &r.assisted);
            let misses = base.mem.l2_misses.max(1) as f64;
            println!(
                "{:<8} {:<26} {:>6.1} {:>6.1} {:>8.1}",
                name,
                label,
                100.0 * assisted.covered() as f64 / misses,
                100.0 * assisted.mem.covered_full as f64 / misses,
                100.0 * (assisted.ipc() / base.ipc() - 1.0),
            );
        }
    }
    Ok(())
}
