//! Suite benchmark for the decoupled toolflow (functional cache
//! simulator → backward slicer → selector → timing simulator).
//!
//! One process, one thread. For a workload, every suite kernel runs
//! through the public [`preexec_experiments::Pipeline`] API in
//! interleaved rounds ([`run`]); every output is checked against
//! committed digests; the end-to-end metrics take each kernel's best
//! round. An optional layer pass ([`layers`]) then times each layer from
//! outside by calling its crate's public functions, so the breakdown can
//! be checked to add up to the untraced run. See `README.md` for the
//! workloads, the metrics, and why they were chosen.

pub mod compare;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod stats;
