//! Synthetic SPEC2000int-like workload kernels.
//!
//! The paper evaluates on ten SPEC2000 integer benchmark/input
//! combinations (Table 1). SPEC binaries and the Alpha toolchain are not
//! reproducible here, so this crate provides ten synthetic kernels — one
//! per benchmark — each engineered to exhibit its namesake's *problem-load
//! class*: the property of its L2 misses that determines how pre-execution
//! behaves on it (see DESIGN.md §4 for the substitution argument).
//!
//! | kernel  | memory-behavior class | expected pre-execution behavior |
//! |---------|----------------------|--------------------------------|
//! | `bzip2` | data-dependent permutation indices over a big table | computable ahead → good coverage |
//! | `crafty`| hash probes + data-dependent branches | coverage good, main thread mispredict-bound |
//! | `gap`   | pointer-array dereference (shuffled heap) | induction-unrolled p-threads, good coverage |
//! | `gcc`   | variable-stride record walking | semi-serialized, moderate coverage |
//! | `mcf`   | pure pointer chase over a huge graph | serialized → low coverage |
//! | `parser`| hash heads + short linked-list walks | heads covered, chains partially |
//! | `twolf` | sparse computations (index computed far before use) | scope-sensitive |
//! | `vortex`| three-level object indirection | length-sensitive |
//! | `vpr.p` | two-level netlist indirection, small working set on test input | L2-resident test input selects no p-threads |
//! | `vpr.r` | single indirection off a sequential frontier | highest coverage |
//!
//! Each kernel builds for three [`InputSet`]s: `Train` (the measurement
//! input), `Test` (smaller, for the Figure-7 static-selection scenario;
//! `twolf`/`vpr.p` test working sets fit in the L2, as in the paper), and
//! `Alt` (same scale as train, different seed — a different run of the
//! same program).
//!
//! # Example
//!
//! ```
//! use preexec_workloads::{suite, InputSet};
//!
//! let workloads = suite();
//! assert_eq!(workloads.len(), 10);
//! let mcf = workloads.iter().find(|w| w.name == "mcf").unwrap();
//! let program = mcf.build(InputSet::Train);
//! assert!(program.validate().is_ok());
//! ```

#![forbid(unsafe_code)]

pub mod inputs;
pub mod kernels;
pub mod suite;
pub(crate) mod util;

pub use inputs::InputSet;
pub use suite::{by_name, suite, Workload};
