//! Miss status holding registers: outstanding-miss tracking.

/// A file of miss status holding registers (MSHRs).
///
/// The paper allows "32 simultaneously outstanding misses". Each MSHR
/// tracks one in-flight block. A request for a block already in flight
/// coalesces with it: the caller finds the entry with
/// [`completion_of`](Self::completion_of), shares its completion time and
/// allocates nothing, so [`insert`](Self::insert) is only for a block not
/// in flight.
///
/// The file holds at most `capacity` entries (32 in the paper), so it is a
/// plain list scanned linearly; no operation depends on its order. The
/// earliest completion among the entries is kept beside the list, so
/// [`retire_completed`](Self::retire_completed) returns at once while no
/// fill is due, which is the common case: the timing simulator calls it on
/// every main-thread access and every memory fetch.
///
/// # Example
///
/// ```
/// use preexec_mem::MshrFile;
///
/// let mut m = MshrFile::new(2);
/// assert_eq!(m.insert(0x100, 70), Some(70)); // new miss, completes at 70
/// assert_eq!(m.completion_of(0x100), Some(70)); // a later miss coalesces
/// assert_eq!(m.insert(0x200, 80), Some(80));
/// assert_eq!(m.insert(0x300, 90), None);     // file full
/// m.retire_completed(75);
/// assert_eq!(m.insert(0x300, 90), Some(90)); // slot freed
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    inflight: Vec<(u64, u64)>, // (block addr, completion cycle)
    /// The earliest completion cycle in `inflight`; `u64::MAX` when empty.
    earliest: u64,
    rejected: u64,
}

impl MshrFile {
    /// Creates an empty file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> MshrFile {
        assert!(capacity > 0, "MSHR capacity must be positive");
        MshrFile {
            capacity,
            inflight: Vec::new(),
            earliest: u64::MAX,
            rejected: 0,
        }
    }

    /// Allocates an entry for `block_addr`, which the caller has found not
    /// in flight, completing at `completes_at`.
    ///
    /// Returns `completes_at`, or `None` if the file is full and the
    /// request must retry.
    pub fn insert(&mut self, block_addr: u64, completes_at: u64) -> Option<u64> {
        debug_assert!(!self.contains(block_addr), "{block_addr:#x} is in flight");
        if self.inflight.len() >= self.capacity {
            self.rejected += 1;
            return None;
        }
        self.inflight.push((block_addr, completes_at));
        self.earliest = self.earliest.min(completes_at);
        Some(completes_at)
    }

    /// Whether `block_addr` is currently in flight.
    pub fn contains(&self, block_addr: u64) -> bool {
        self.completion_of(block_addr).is_some()
    }

    /// The completion cycle of an in-flight block, if any.
    pub fn completion_of(&self, block_addr: u64) -> Option<u64> {
        self.inflight
            .iter()
            .find(|&&(block, _)| block == block_addr)
            .map(|&(_, done)| done)
    }

    /// Frees every entry whose completion time is `<= now`.
    pub fn retire_completed(&mut self, now: u64) {
        if self.earliest > now {
            return;
        }
        self.inflight.retain(|&(_, done)| done > now);
        self.earliest = self
            .inflight
            .iter()
            .map(|&(_, done)| done)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// The earliest completion time among in-flight entries, if any — the
    /// soonest moment a full file will have a free slot.
    pub fn earliest_completion(&self) -> Option<u64> {
        (!self.inflight.is_empty()).then_some(self.earliest)
    }

    /// Number of occupied entries.
    pub fn occupancy(&self) -> usize {
        self.inflight.len()
    }

    /// Inserts rejected because the file was full.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_tracks_the_earliest_completion() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.insert(0x40, 100), Some(100));
        assert_eq!(m.insert(0x80, 50), Some(50));
        assert_eq!(m.insert(0xc0, 70), None);
        assert_eq!(m.rejected(), 1);
        assert_eq!(m.occupancy(), 2);
        assert_eq!(m.earliest_completion(), Some(50));
    }

    #[test]
    fn capacity_enforced() {
        let mut m = MshrFile::new(1);
        assert!(m.insert(0x40, 10).is_some());
        assert!(m.insert(0x80, 10).is_none());
        assert_eq!(m.rejected(), 1);
    }

    #[test]
    fn retire_frees_slots() {
        let mut m = MshrFile::new(1);
        m.insert(0x40, 10);
        m.retire_completed(9);
        assert!(m.contains(0x40));
        m.retire_completed(10);
        assert!(!m.contains(0x40));
        assert!(m.insert(0x80, 20).is_some());
    }

    #[test]
    fn completion_lookup() {
        let mut m = MshrFile::new(2);
        m.insert(0x40, 33);
        assert_eq!(m.completion_of(0x40), Some(33));
        assert_eq!(m.completion_of(0x80), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = MshrFile::new(0);
    }
}
