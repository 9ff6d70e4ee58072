//! **preexec** — a quantitative framework for automated pre-execution
//! thread selection, with its full simulation substrate.
//!
//! This crate is the facade over the workspace that reproduces
//! Roth & Sohi, *A Quantitative Framework for Automated Pre-Execution
//! Thread Selection* (Univ. of Pennsylvania TR MS-CIS-02-23, 2002):
//!
//! - [`isa`] — the PERI RISC instruction set, assembler and programs;
//! - [`mem`] — caches, memory, buses, MSHRs;
//! - [`func`] — functional simulation and tracing;
//! - [`slice`](mod@slice) — backward dynamic slicing and **slice trees** (§3.2);
//! - [`core`] — **aggregate advantage** and p-thread selection, merging
//!   and optimization (§3.1–3.3) — the paper's contribution;
//! - [`timing`] — the detailed out-of-order SMT timing simulator with
//!   pre-execution support (§4.1);
//! - [`workloads`] — ten synthetic SPEC2000int-like kernels (Table 1);
//! - [`experiments`] — the harness that regenerates every table and
//!   figure of the paper's evaluation;
//! - [`serve`] — the batch analysis service: a parallel job scheduler,
//!   a content-addressed artifact cache, and the `preexecd` daemon.
//!
//! # Quickstart
//!
//! Select p-threads for a program and measure them:
//!
//! ```
//! use preexec::core::{select_pthreads, SelectionParams};
//! use preexec::func::{run_trace, TraceConfig};
//! use preexec::isa::assemble;
//! use preexec::slice::SliceForestBuilder;
//! use preexec::timing::{simulate, SimConfig};
//!
//! // A loop streaming one L2 line per iteration.
//! let program = assemble("stream", "
//!     li r1, 0x100000
//!     li r2, 0
//!     li r3, 2000
//! top:
//!     bge r2, r3, done
//!     ld  r4, 0(r1)
//!     addi r1, r1, 64
//!     addi r2, r2, 1
//!     j top
//! done:
//!     halt").unwrap();
//!
//! // 1. Trace and slice every L2 miss.
//! let mut builder = SliceForestBuilder::new(1024, 32);
//! run_trace(&program, &TraceConfig::default(), |d| builder.observe(d));
//! let forest = builder.finish();
//!
//! // 2. Measure the unassisted machine and select p-threads.
//! let base = simulate(&program, &[], &SimConfig::default());
//! let params = SelectionParams { ipc: base.ipc(), ..SelectionParams::default() };
//! let selection = select_pthreads(&forest, &params);
//!
//! // 3. Measure the p-thread-assisted machine.
//! let assisted = simulate(&program, &selection.pthreads, &SimConfig::default());
//! assert!(assisted.covered() > 0);
//! ```

#![forbid(unsafe_code)]

pub use preexec_core as core;
pub use preexec_experiments as experiments;
pub use preexec_func as func;
pub use preexec_isa as isa;
pub use preexec_mem as mem;
pub use preexec_serve as serve;
pub use preexec_slice as slice;
pub use preexec_timing as timing;
pub use preexec_workloads as workloads;
