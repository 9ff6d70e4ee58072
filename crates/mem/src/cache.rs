//! A parametric set-associative cache model with true-LRU replacement.

/// Geometry of a cache: total size, line size, and associativity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line (block) size in bytes; must be a power of two.
    pub line_bytes: usize,
    /// Number of ways per set.
    pub assoc: usize,
}

impl CacheConfig {
    /// Creates a configuration and validates it.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero, `line_bytes` or the resulting set count
    /// is not a power of two, or `size_bytes` is not divisible by
    /// `line_bytes * assoc`.
    pub fn new(size_bytes: usize, line_bytes: usize, assoc: usize) -> CacheConfig {
        assert!(
            size_bytes > 0 && line_bytes > 0 && assoc > 0,
            "zero cache parameter"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            size_bytes.is_multiple_of(line_bytes * assoc),
            "size {size_bytes} not divisible by line*assoc"
        );
        let sets = size_bytes / (line_bytes * assoc);
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        CacheConfig {
            size_bytes,
            line_bytes,
            assoc,
        }
    }

    /// The paper's L1 data cache: 16 KB, 32 B lines, 2-way.
    pub fn paper_l1d() -> CacheConfig {
        CacheConfig::new(16 * 1024, 32, 2)
    }

    /// The paper's L2: 256 KB, 64 B lines, 4-way.
    pub fn paper_l2() -> CacheConfig {
        CacheConfig::new(256 * 1024, 64, 4)
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.assoc)
    }

    /// Whether a [`Cache`] can index this geometry with shifts: nonzero
    /// associativity and a power-of-two line size and set count.
    /// [`CacheConfig::new`] guarantees it; a literal may not, because the
    /// fields are public.
    pub fn is_indexable(&self) -> bool {
        self.assoc > 0
            && self.line_bytes.is_power_of_two()
            && self
                .line_bytes
                .checked_mul(self.assoc)
                .is_some_and(|set_bytes| (self.size_bytes / set_bytes).is_power_of_two())
    }

    /// The block (line-aligned) address containing `addr`.
    #[inline]
    pub fn block_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes as u64 - 1)
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    /// LRU counter: larger = more recently used.
    lru: u64,
}

const EMPTY_LINE: Line = Line {
    valid: false,
    dirty: false,
    tag: 0,
    lru: 0,
};

/// The outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// On a miss that displaced a dirty line, the evicted block address
    /// (for write-back traffic accounting).
    pub writeback: Option<u64>,
}

/// A set-associative, write-back, write-allocate cache with true LRU.
///
/// The cache stores only tags — data always lives in [`crate::Memory`] —
/// which is exactly what hit/miss classification and timing need.
///
/// # Example
///
/// ```
/// use preexec_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::new(1024, 64, 2));
/// assert!(!c.access(0x40, false).hit); // cold miss, allocates
/// assert!(c.access(0x40, false).hit);
/// assert!(c.access(0x44, false).hit);  // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_bytes)`: an address shifted right by it is its block.
    line_shift: u32,
    /// `log2(num_sets)`: a block shifted right by it is its tag.
    set_shift: u32,
    sets: Vec<Line>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics unless the geometry [is indexable](CacheConfig::is_indexable).
    pub fn new(config: CacheConfig) -> Cache {
        assert!(
            config.is_indexable(),
            "cache geometry {config:?} needs a power-of-two line size and set count"
        );
        Cache {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: config.num_sets().trailing_zeros(),
            sets: vec![EMPTY_LINE; config.num_sets() * config.assoc],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit count since construction (or the last [`Cache::reset_stats`]).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since construction (or the last [`Cache::reset_stats`]).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Zeroes the hit/miss counters (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    #[inline]
    fn set_index(&self, addr: u64) -> usize {
        let block = addr >> self.line_shift;
        (block as usize) & ((1 << self.set_shift) - 1)
    }

    #[inline]
    fn tag(&self, addr: u64) -> u64 {
        addr >> (self.line_shift + self.set_shift)
    }

    fn ways(&mut self, set: usize) -> &mut [Line] {
        let a = self.config.assoc;
        &mut self.sets[set * a..(set + 1) * a]
    }

    /// Accesses `addr`, allocating on miss (write-allocate) and updating
    /// LRU state. Returns the hit/miss outcome and any dirty eviction.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let (line_shift, set_shift) = (self.line_shift, self.set_shift);

        let ways = self.ways(set);
        for line in ways.iter_mut() {
            if line.valid && line.tag == tag {
                line.lru = tick;
                line.dirty |= is_write;
                self.hits += 1;
                return AccessOutcome {
                    hit: true,
                    writeback: None,
                };
            }
        }
        // Miss: pick the LRU way (invalid lines first).
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
            .expect("assoc >= 1");
        let writeback = if victim.valid && victim.dirty {
            // Reconstruct the evicted block address from tag and set.
            Some(((victim.tag << set_shift) | set as u64) << line_shift)
        } else {
            None
        };
        *victim = Line {
            valid: true,
            dirty: is_write,
            tag,
            lru: tick,
        };
        self.misses += 1;
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Probes for `addr` without changing any state.
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let a = self.config.assoc;
        self.sets[set * a..(set + 1) * a]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates everything and clears statistics.
    pub fn clear(&mut self) {
        self.sets.fill(EMPTY_LINE);
        self.tick = 0;
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 B.
        Cache::new(CacheConfig::new(256, 64, 2))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.access(63, false).hit); // same line
        assert!(!c.access(64, false).hit); // next line, different set
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_replacement() {
        let mut c = tiny();
        // Set 0 holds blocks whose block-index is even (2 sets, 64B lines):
        // addresses 0, 128, 256 all map to set 0.
        c.access(0, false);
        c.access(128, false);
        c.access(0, false); // 0 is now MRU; 128 is LRU
        c.access(256, false); // evicts 128
        assert!(c.probe(0));
        assert!(!c.probe(128));
        assert!(c.probe(256));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0, true); // dirty
        c.access(128, false);
        let out = c.access(256, false); // evicts 0 (LRU, dirty)
        assert_eq!(out.writeback, Some(0));
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = tiny();
        c.access(0, false);
        c.access(128, false);
        let out = c.access(256, false);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn writeback_address_reconstruction() {
        let mut c = tiny();
        // Set 1: addresses 64, 192, 320.
        c.access(64 + 7, true);
        c.access(192, false);
        let out = c.access(320, false);
        assert_eq!(out.writeback, Some(64)); // line-aligned
    }

    #[test]
    fn probe_does_not_touch_lru() {
        let mut c = tiny();
        c.access(0, false);
        c.access(128, false); // 0 is LRU
        assert!(c.probe(0)); // must not promote 0
        c.access(256, false); // evicts 0, not 128
        assert!(!c.probe(0));
        assert!(c.probe(128));
    }

    #[test]
    fn paper_geometries() {
        let l1 = CacheConfig::paper_l1d();
        assert_eq!(l1.num_sets(), 256);
        let l2 = CacheConfig::paper_l2();
        assert_eq!(l2.num_sets(), 1024);
    }

    #[test]
    fn block_of() {
        let c = CacheConfig::paper_l2();
        assert_eq!(c.block_of(0x12345), 0x12340);
        assert_eq!(c.block_of(0x12340), 0x12340);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_rejected() {
        let _ = CacheConfig::new(1024, 48, 2);
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = tiny();
        c.access(0, true);
        c.clear();
        assert!(!c.probe(0));
        assert_eq!(c.misses(), 0);
    }
}
