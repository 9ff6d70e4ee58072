//! Regenerates the paper's Table 1 (benchmark characterization).
//!
//! Usage: `table1 [budget]` — per-benchmark instruction budget
//! (default 400_000).

fn main() -> Result<(), preexec_experiments::PipelineError> {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400_000);
    let rows = preexec_experiments::tables::table1(budget)?;
    print!("{}", preexec_experiments::tables::render_table1(&rows));
    Ok(())
}
