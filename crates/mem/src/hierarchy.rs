//! Functional two-level data-cache hierarchy.

use crate::{Cache, CacheConfig};

/// Which level of the hierarchy serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemLevel {
    /// Serviced by the L1 data cache.
    L1,
    /// Missed L1, hit the L2.
    L2,
    /// Missed both caches — an **L2 miss**, the event the framework targets.
    Memory,
}

impl MemLevel {
    /// Whether the access missed the L2 (the paper's "problem" event).
    pub fn is_l2_miss(self) -> bool {
        self == MemLevel::Memory
    }
}

/// Geometry of the functional hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data-cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
}

impl HierarchyConfig {
    /// The paper's configuration (16 KB/32 B/2-way L1D; 256 KB/64 B/4-way L2).
    pub fn paper_default() -> HierarchyConfig {
        HierarchyConfig {
            l1d: CacheConfig::paper_l1d(),
            l2: CacheConfig::paper_l2(),
        }
    }

    /// A small configuration for tests (1 KB L1, 4 KB L2).
    pub fn tiny() -> HierarchyConfig {
        HierarchyConfig {
            l1d: CacheConfig::new(1024, 32, 2),
            l2: CacheConfig::new(4096, 64, 4),
        }
    }
}

/// A functional (untimed) L1D + L2 hierarchy that classifies each access by
/// the level that services it, maintaining inclusive contents.
///
/// This is the "functional cache simulator" of the paper's §4.1 — it runs
/// ahead of the slicer, tagging every load with its service level so the
/// slicer knows which dynamic loads are L2 misses.
#[derive(Debug, Clone)]
pub struct FuncHierarchy {
    l1d: Cache,
    l2: Cache,
}

impl FuncHierarchy {
    /// Creates an empty hierarchy.
    pub fn new(config: HierarchyConfig) -> FuncHierarchy {
        FuncHierarchy {
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
        }
    }

    /// Accesses `addr`, filling both levels on the way in, and returns the
    /// level that serviced it.
    pub fn access(&mut self, addr: u64, is_write: bool) -> MemLevel {
        if self.l1d.access(addr, is_write).hit {
            return MemLevel::L1;
        }
        if self.l2.access(addr, false).hit {
            MemLevel::L2
        } else {
            MemLevel::Memory
        }
    }

    /// Probes without side effects: the level that *would* service `addr`.
    pub fn probe(&self, addr: u64) -> MemLevel {
        if self.l1d.probe(addr) {
            MemLevel::L1
        } else if self.l2.probe(addr) {
            MemLevel::L2
        } else {
            MemLevel::Memory
        }
    }

    /// The L1 data cache (for statistics).
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The L2 cache (for statistics).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Invalidates both levels and clears statistics.
    pub fn clear(&mut self) {
        self.l1d.clear();
        self.l2.clear();
    }

    /// Zeroes hit/miss statistics at both levels, preserving contents.
    pub fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l2.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_fill_hit_progression() {
        let mut h = FuncHierarchy::new(HierarchyConfig::tiny());
        assert_eq!(h.access(0x1000, false), MemLevel::Memory);
        assert_eq!(h.access(0x1000, false), MemLevel::L1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = FuncHierarchy::new(HierarchyConfig::tiny());
        // Tiny L1: 1KB, 32B, 2-way -> 16 sets. Fill one set with 3 lines
        // to evict the first (L1 set stride = 16*32 = 512B).
        h.access(0x0, false);
        h.access(0x200, false);
        h.access(0x400, false); // evicts 0x0 from L1; L2 still holds it
        assert_eq!(h.access(0x0, false), MemLevel::L2);
    }

    #[test]
    fn probe_has_no_side_effects() {
        let h = FuncHierarchy::new(HierarchyConfig::tiny());
        assert_eq!(h.probe(0x77), MemLevel::Memory);
        // still a miss when actually accessed
        let mut h = h;
        assert_eq!(h.access(0x77, false), MemLevel::Memory);
    }

    #[test]
    fn is_l2_miss_predicate() {
        assert!(MemLevel::Memory.is_l2_miss());
        assert!(!MemLevel::L2.is_l2_miss());
        assert!(!MemLevel::L1.is_l2_miss());
    }

    #[test]
    fn stats_reset_keeps_contents() {
        let mut h = FuncHierarchy::new(HierarchyConfig::tiny());
        h.access(0x40, false);
        h.reset_stats();
        assert_eq!(h.l1d().misses(), 0);
        assert_eq!(h.access(0x40, false), MemLevel::L1); // still resident
    }
}
