//! Regenerates the paper's Figure 6 (selection granularity).
//!
//! Usage: `fig6 [budget]` — per-benchmark instruction budget
//! (default 300_000).

fn main() -> Result<(), preexec_experiments::PipelineError> {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300_000);
    let figure = preexec_experiments::figures::fig6(budget)?;
    print!("{}", figure.render());
    Ok(())
}
