//! The p-thread selection framework — the primary contribution of
//! Roth & Sohi, *A Quantitative Framework for Automated Pre-Execution
//! Thread Selection* (2002).
//!
//! Given a [`preexec_slice::SliceForest`] (one slice tree per static
//! problem load, with `DC_trig` / `DC_pt-cm` / `DIST_pl` annotations) and a
//! handful of machine parameters, this crate:
//!
//! 1. enumerates every candidate static p-thread (every slice-tree node),
//! 2. scores each with **aggregate advantage**
//!    (`ADVagg = DC_pt-cm·LT − DC_trig·OH`, with latency tolerance derived
//!    from the **sequencing-constrained dataflow height** of the p-thread
//!    vs. the main thread and capped at the miss latency),
//! 3. solves each tree for the set of p-threads whose overlap-corrected
//!    advantages sum to a maximum (the paper's iterative procedure),
//! 4. optionally **optimizes** bodies (store–load pair elimination,
//!    constant folding, register-move elimination) and **merges**
//!    p-threads with matching dataflow prefixes, and
//! 5. emits the selected [`StaticPThread`]s along with the diagnostic
//!    predictions (launches, lengths, coverage, speedup) that §4.3 of the
//!    paper validates against simulation.
//!
//! # Example
//!
//! ```
//! use preexec_core::{select_pthreads, SelectionParams};
//! use preexec_func::{run_trace, TraceConfig};
//! use preexec_isa::assemble;
//! use preexec_slice::SliceForestBuilder;
//!
//! let p = assemble("stream", "
//!     li r1, 0x100000
//!     li r2, 0
//!     li r3, 4096
//! top:
//!     bge r2, r3, done
//!     ld  r4, 0(r1)
//!     addi r1, r1, 64
//!     addi r2, r2, 1
//!     j top
//! done:
//!     halt").unwrap();
//! let mut b = SliceForestBuilder::new(1024, 32);
//! run_trace(&p, &TraceConfig::default(), |d| b.observe(d));
//! let forest = b.finish();
//!
//! let params = SelectionParams { ipc: 2.0, ..SelectionParams::default() };
//! let selection = select_pthreads(&forest, &params);
//! assert!(!selection.pthreads.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod advantage;
pub mod body;
pub mod candidate;
pub mod error;
pub mod merge;
pub mod optimize;
pub mod par;
pub mod params;
pub mod predict;
pub mod pthread;
pub mod scdh;
pub mod screen;
pub mod select;

pub use advantage::{aggregate_advantage, Advantage};
pub use body::{Body, BodyInst};
pub use candidate::candidate_body;
pub use error::{ParamsError, SelectError};
pub use merge::merge_pthreads;
pub use optimize::optimize_body;
pub use par::{ParStats, Parallelism};
pub use params::SelectionParams;
pub use predict::SelectionPrediction;
pub use pthread::StaticPThread;
pub use scdh::scdh;
pub use screen::{advantage_upper_bounds, screen_tree, ScreenStats};
pub use select::{
    select_pthreads, solve_tree, try_select_pthreads_stats, validate_candidate_score, Selection,
};

#[cfg(test)]
mod worked_example;
