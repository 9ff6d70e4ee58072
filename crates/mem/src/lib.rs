//! Memory-system substrate: guest memory over a program's data segments,
//! set-associative caches, a functional two-level hierarchy, and the
//! timing primitives (buses, MSHRs) used by the detailed simulator.
//!
//! The functional side answers one question for every access — *which level
//! services it?* — which is what the tracer and slicer need to find L2
//! misses. The timing side adds bandwidth contention and outstanding-miss
//! tracking for the detailed out-of-order simulator.
//!
//! Default geometry follows the paper's §4.1 configuration: a 16 KB, 32 B
//! line, 2-way, write-back L1 data cache and a 256 KB, 64 B line, 4-way L2.
//!
//! # Example
//!
//! ```
//! use preexec_mem::{FuncHierarchy, HierarchyConfig, MemLevel};
//!
//! let mut h = FuncHierarchy::new(HierarchyConfig::paper_default());
//! assert_eq!(h.access(0x4000, false), MemLevel::Memory); // cold miss
//! assert_eq!(h.access(0x4000, false), MemLevel::L1);     // now resident
//! ```

#![forbid(unsafe_code)]

pub mod bus;
pub mod cache;
pub mod hierarchy;
pub mod memory;
pub mod mshr;

pub use bus::Bus;
pub use cache::{AccessOutcome, Cache, CacheConfig};
pub use hierarchy::{FuncHierarchy, HierarchyConfig, MemLevel};
pub use memory::{MemBus, Memory, GRANULE_SHIFT as MEM_GRANULE_SHIFT};
pub use mshr::MshrFile;
