//! Detailed out-of-order SMT timing simulator with pre-execution support.
//!
//! This crate is the "detailed timing simulator" of the paper's §4.1: a
//! parametrizable out-of-order core (renaming, a reservation-station pool,
//! a reorder window, in-order retirement, a load/store queue with
//! store-to-load forwarding, a hybrid branch predictor with BTB) in front
//! of an event-timed memory hierarchy with MSHRs and bandwidth-contended
//! backside/memory buses.
//!
//! Pre-execution run-time functions are modeled as in the paper: a
//! p-thread is launched when the main thread renames its trigger, occupies
//! one of a small number of thread contexts (or is dropped), injects its
//! instructions at rename in bursts of 8 every 8 cycles, contends for
//! reservation stations and p-thread physical registers, and its loads
//! prefetch **only into the L2**. Miss coverage is measured by
//! timestamping cache blocks with p-thread request/ready times and
//! comparing against main-thread request times.
//!
//! Special modes reproduce the paper's validation methodology (§4.3):
//! overhead-only (`execute` and `sequence` variants), latency-tolerance
//! only, and a perfect-L2 mode for Table 1.
//!
//! # Example
//!
//! ```
//! use preexec_isa::assemble;
//! use preexec_timing::{simulate, SimConfig};
//!
//! let p = assemble("t", "li r1, 10\nli r2, 0\ntop: addi r2, r2, 1\nblt r2, r1, top\nhalt").unwrap();
//! let result = simulate(&p, &[], &SimConfig::default());
//! assert!(result.ipc() > 0.5); // a tight ALU loop runs fast
//! ```

#![forbid(unsafe_code)]

pub mod bpred;
pub mod error;
pub mod machine;
pub mod memsys;
pub mod sim;

pub use bpred::BranchPredictor;
pub use error::{MachineError, SimError};
pub use machine::{MachineParams, MAX_LATENCY};
pub use memsys::MemSys;
pub use sim::{
    simulate, simulate_alike, try_simulate, SimConfig, SimMode, SimResult, SquashReason,
    PTHREAD_ADDR_LIMIT,
};
