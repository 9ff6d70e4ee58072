//! Regenerates the paper's Figure 5 (optimization and merging).
//!
//! Usage: `fig5 [budget]` — per-benchmark instruction budget
//! (default 300_000).

fn main() -> Result<(), preexec_experiments::PipelineError> {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300_000);
    let figure = preexec_experiments::figures::fig5(budget)?;
    print!("{}", figure.render());
    Ok(())
}
