//! Regenerates the processor-width cross-validation of sec. 4.5.
//!
//! Usage: `width_xval [budget]` — per-benchmark instruction budget
//! (default 200_000).

fn main() -> Result<(), preexec_experiments::PipelineError> {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);
    let figure = preexec_experiments::figures::width_xval(budget)?;
    print!("{}", figure.render());
    Ok(())
}
