//! Regenerates the paper's Figure 8 (memory-latency cross-validation).
//!
//! Usage: `fig8 [budget]` — per-benchmark instruction budget
//! (default 200_000).

fn main() -> Result<(), preexec_experiments::PipelineError> {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);
    let figure = preexec_experiments::figures::fig8(budget)?;
    print!("{}", figure.render());
    Ok(())
}
