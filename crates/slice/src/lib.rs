//! Backward dynamic slicing and slice-tree construction.
//!
//! This crate consumes the dynamic instruction trace produced by
//! [`preexec_func`] and builds, for every static load with L2 misses, the
//! **slice tree** of the paper's §3.2: a tree of backward data-dependence
//! slices with the problem load at the root, in which every node is a
//! candidate static p-thread (trigger = the node's instruction, body = the
//! instructions on the path from just below the node to the root).
//!
//! Per-node annotations follow the paper exactly:
//! - `DC_pt-cm` — the number of dynamic miss computations whose slice
//!   passes through the node (a p-thread property);
//! - `DIST_pl` — the average dynamic-instruction distance from the node's
//!   instruction to the root load (from which any `DIST_trig` is obtained
//!   by subtraction);
//! - `DC_trig` — the dynamic execution count of the node's static
//!   instruction (a trigger property), kept per-PC in the forest.
//!
//! # Example
//!
//! ```
//! use preexec_func::{run_trace, TraceConfig};
//! use preexec_isa::assemble;
//! use preexec_slice::SliceForestBuilder;
//!
//! // A pointer-chasing loop whose loads miss the L2.
//! let p = assemble("chase", "
//!     li r1, 0x100000
//!     li r2, 0
//!     li r3, 4096
//! top:
//!     bge r2, r3, done
//!     ld  r4, 0(r1)       # the problem load (streams, misses)
//!     addi r1, r1, 64
//!     addi r2, r2, 1
//!     j top
//! done:
//!     halt").unwrap();
//! let mut b = SliceForestBuilder::new(1024, 32);
//! let _stats = run_trace(&p, &TraceConfig::default(), |d| b.observe(d));
//! let forest = b.finish();
//! let tree = forest.tree(4).expect("load at pc 4 has misses");
//! assert!(tree.root().dc_ptcm > 0);
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod forest;
pub mod io;
pub mod ondemand;
pub mod tree;
pub mod window;

pub use error::SliceError;
pub use forest::{ForestBank, SliceForest, SliceForestBuilder};
pub use io::{
    fnv1a64, read_forest, read_forest_lenient, write_forest, ParseForestError, RecoveredForest,
};
pub use ondemand::OnDemandSlicer;
pub use tree::{NodeId, SliceNode, SliceTree};
pub use window::{SliceEntry, SliceWindow};
