//! End-to-end experiment harness: regenerates every table and figure of
//! the paper's evaluation (§4).
//!
//! The pipeline mirrors the paper's toolflow exactly:
//!
//! 1. a **functional cache simulator** ([`preexec_func`]) generates the
//!    program trace and the backward slices of all dynamic L2 misses,
//!    collected into slice trees ([`preexec_slice`]);
//! 2. the **p-thread selection tool** ([`preexec_core`]) takes the slice
//!    trees plus processor parameters (width, memory latency), unassisted
//!    program IPC, and p-thread construction constraints, and produces a
//!    list of static p-threads;
//! 3. the **detailed timing simulator** ([`preexec_timing`]) measures the
//!    base machine, the p-thread-assisted machine, and the validation
//!    modes (overhead-only execute/sequence, latency-tolerance-only).
//!
//! Every row and bar that runs this chain is one [`Pipeline`] run, so
//! it passes the pipeline's config check: a bad configuration is a typed
//! [`PipelineError`], never a NaN table or a panic. One experiment module
//! (and one binary under `src/bin/`) exists per table/figure:
//!
//! | target | paper content |
//! |--------|---------------|
//! | `table1` | benchmark characterization |
//! | `table2` | primary results + model validation (§4.2–4.3) |
//! | `fig4` | slicing scope × p-thread length |
//! | `fig5` | optimization and merging |
//! | `fig6` | selection granularity |
//! | `fig7` | selection input dataset |
//! | `fig8` | memory-latency cross-validation |
//! | `width_xval` | processor-width cross-validation (§4.5, stated) |

#![forbid(unsafe_code)]

pub mod builder;
pub mod error;
pub mod fault;
pub mod figures;
pub mod fmt;
pub mod pipeline;
pub mod policy;
pub mod tables;

pub use builder::{
    Pipeline, PipelineOutput, SlicingMode, Speculation, StageGate, StageUs, TraceArtifacts,
    DEFAULT_CHECKPOINT_EVERY,
};
pub use error::PipelineError;
pub use pipeline::{PipelineConfig, PipelineResult};
pub use policy::PolicySpec;
