//! Functional simulation and tracing.
//!
//! This crate is the "functional cache simulator" of the paper's §4.1: it
//! executes PERI programs architecturally, classifies every data access
//! against a two-level cache hierarchy, and streams [`DynInst`] records —
//! the dynamic instruction trace — to a sink (normally the backward slicer).
//!
//! It also collects the per-program statistics reported in Table 1. Every
//! step is traced: a run's warm-up is the prefix before its
//! [`MeasuredRegion`], emitted to the sink but not counted.
//!
//! # Example
//!
//! ```
//! use preexec_func::{run_trace, TraceConfig};
//! use preexec_isa::assemble;
//!
//! let p = assemble("t", "li r1, 4\nli r2, 0\ntop: addi r2, r2, 1\nblt r2, r1, top\nhalt").unwrap();
//! let mut count = 0;
//! let stats = run_trace(&p, &TraceConfig::default(), |_d| count += 1);
//! assert_eq!(stats.insts, count);
//! assert_eq!(stats.insts, 2 + 4 * 2 + 1); // setup + 4 iterations of 2 + halt
//! ```

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod cpu;
pub mod dyninst;
pub mod error;
pub mod exec;
pub mod replay;
pub mod stats;
pub mod tracer;

pub use checkpoint::{try_run_trace_checkpointed, Checkpoint, CheckpointTrace};
pub use cpu::{Cpu, StepOutcome};
pub use dyninst::DynInst;
pub use error::ExecError;
pub use replay::Replayer;
pub use stats::{LoadSiteStats, RunStats};
pub use tracer::{run_trace, try_run_trace, MeasuredRegion, TraceConfig};
