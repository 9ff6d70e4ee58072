//! Event-timed memory system: two cache levels, MSHRs, contended buses,
//! and the block-timestamp machinery for miss-coverage measurement.

use crate::MachineParams;
use preexec_mem::{Bus, Cache, MshrFile};
use std::collections::HashMap;

/// Statistics kept by the memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Main-thread loads serviced.
    pub loads: u64,
    /// Main-thread stores serviced.
    pub stores: u64,
    /// Main-thread accesses that missed L1.
    pub l1_misses: u64,
    /// Main-thread loads that went all the way to memory (uncovered L2
    /// misses).
    pub l2_misses: u64,
    /// Main-thread loads that found their block L2-resident (or in
    /// flight) thanks to a p-thread prefetch, with the full latency hidden.
    pub covered_full: u64,
    /// Same, but with only part of the latency hidden.
    pub covered_partial: u64,
    /// P-thread loads issued.
    pub pthread_loads: u64,
    /// P-thread loads that initiated an actual L2 fill.
    pub pthread_prefetches: u64,
    /// P-thread loads whose block was already resident or in flight.
    pub pthread_useless: u64,
    /// Dirty-line writebacks to memory.
    pub writebacks: u64,
}

/// A p-thread prefetch stamp on an L2 block: when it was requested and
/// when its data arrives.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    ready: u64,
}

/// The timed memory hierarchy.
///
/// Cache *contents* are updated at request time (standard timing-simulator
/// simplification); *data availability* is what the returned ready cycles
/// model, including MSHR coalescing and bus queueing.
#[derive(Debug)]
pub struct MemSys {
    params: MachineParams,
    l1d: Cache,
    l2: Cache,
    mshrs: MshrFile,
    backside: Bus,
    membus: Bus,
    stamps: HashMap<u64, Stamp>,
    /// When `true`, every main-thread access is serviced at L2 latency or
    /// better (Table 1's "perfect L2" IPC).
    perfect_l2: bool,
    stats: MemStats,
}

impl MemSys {
    /// Creates the memory system for `params`.
    pub fn new(params: MachineParams) -> MemSys {
        MemSys {
            l1d: Cache::new(params.l1d),
            l2: Cache::new(params.l2),
            mshrs: MshrFile::new(params.mshrs),
            backside: Bus::new(params.backside_bus_bytes, 1),
            membus: Bus::new(params.mem_bus_bytes, params.mem_bus_divisor),
            stamps: HashMap::new(),
            perfect_l2: false,
            stats: MemStats::default(),
            params,
        }
    }

    /// Enables perfect-L2 mode: main-thread accesses never pay memory
    /// latency (used to produce Table 1's "Perfect L2 IPC").
    pub fn set_perfect_l2(&mut self, on: bool) {
        self.perfect_l2 = on;
    }

    /// The statistics so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    fn block(&self, addr: u64) -> u64 {
        self.params.l2.block_of(addr)
    }

    /// Fetches a block from memory, modeling MSHR occupancy and memory-bus
    /// contention. Returns the data-ready cycle. Both callers have just
    /// found `block` not in flight, and only retirements can happen since.
    fn fetch_from_memory(&mut self, at: u64, block: u64) -> u64 {
        self.mshrs.retire_completed(at);
        // A full MSHR file delays the request until a slot frees.
        let start = if self.mshrs.occupancy() >= self.params.mshrs {
            self.mshrs.earliest_completion().map_or(at, |t| t.max(at))
        } else {
            at
        };
        let bus_done = self.membus.transfer(
            start + self.params.mem_latency,
            self.params.l2.line_bytes as u64,
        );
        let ready = self
            .backside
            .transfer(bus_done, self.params.l1d.line_bytes as u64);
        if self.mshrs.occupancy() >= self.params.mshrs {
            self.mshrs.retire_completed(start);
        }
        let _ = self.mshrs.insert(block, ready);
        ready
    }

    fn charge_writeback(&mut self, at: u64) {
        self.stats.writebacks += 1;
        let _ = self.membus.transfer(at, self.params.l2.line_bytes as u64);
    }

    /// Services a main-thread load issued at `cycle` to `addr`; returns
    /// the cycle its value is ready.
    pub fn main_load(&mut self, cycle: u64, addr: u64) -> u64 {
        self.stats.loads += 1;
        self.main_access(cycle, addr, false)
    }

    /// Services a main-thread store issued at `cycle`; returns the cycle
    /// the store is considered complete (stores retire through the store
    /// queue and do not stall on memory).
    pub fn main_store(&mut self, cycle: u64, addr: u64) -> u64 {
        self.stats.stores += 1;
        // Keep the cache contents in sync (write-allocate); the returned
        // time is just L1 occupancy — store latency is hidden by the queue.
        let _ = self.main_access(cycle, addr, true);
        cycle + self.params.l1_latency
    }

    fn main_access(&mut self, cycle: u64, addr: u64, is_write: bool) -> u64 {
        let block = self.block(addr);
        // Cache contents are installed at request time (standard timing
        // simplification), so a "hit" on a block whose fill is still in
        // flight must wait for the MSHR completion, not the hit latency.
        self.mshrs.retire_completed(cycle);
        let inflight = self.mshrs.completion_of(block);
        let l1 = self.l1d.access(addr, is_write);
        if l1.hit {
            let t = cycle + self.params.l1_latency;
            return match inflight {
                Some(done) => done.max(t),
                None => t,
            };
        }
        self.stats.l1_misses += 1;
        let t_l1 = cycle + self.params.l1_latency;
        if let Some(wb) = l1.writeback {
            // L1 dirty evictions write back into the L2 over the backside
            // bus; charge occupancy only.
            let _ = self
                .backside
                .transfer(t_l1, self.params.l1d.line_bytes as u64);
            let _ = wb;
        }
        if self.perfect_l2 {
            let _ = self.l2.access(addr, false);
            return t_l1 + self.params.l2_latency;
        }
        let l2 = self.l2.access(addr, false);
        let t_l2 = t_l1 + self.params.l2_latency;
        if let Some(wb) = l2.writeback {
            self.charge_writeback(t_l2);
            self.stamps.remove(&self.params.l2.block_of(wb));
        }
        if l2.hit {
            // Possibly a p-thread-covered would-be miss.
            let fill = self
                .backside
                .transfer(t_l2, self.params.l1d.line_bytes as u64);
            if let Some(stamp) = self.stamps.remove(&block) {
                if stamp.ready <= t_l2 {
                    self.stats.covered_full += 1;
                    return fill;
                }
                self.stats.covered_partial += 1;
                return stamp.ready.max(fill);
            }
            // A main-thread-initiated fill still in flight: wait for it.
            if let Some(done) = inflight {
                return done.max(fill);
            }
            return fill;
        }
        // L2 miss. If the block is already in flight (possibly from a
        // p-thread), coalesce.
        if let Some(done) = inflight {
            if self.stamps.remove(&block).is_some() {
                self.stats.covered_partial += 1;
            } else {
                self.stats.l2_misses += 1;
            }
            return done;
        }
        self.stats.l2_misses += 1;
        self.fetch_from_memory(t_l2, block)
    }

    /// Services a p-thread load issued at `cycle`. P-thread loads check
    /// and fill **only the L2** (the paper disables their L1 fill path) and
    /// stamp the blocks they bring in so coverage can be measured.
    pub fn pthread_load(&mut self, cycle: u64, addr: u64) -> u64 {
        self.stats.pthread_loads += 1;
        let block = self.block(addr);
        let l2 = self.l2.access(addr, false);
        let t_l2 = cycle + self.params.l1_latency + self.params.l2_latency;
        if l2.hit {
            self.stats.pthread_useless += 1;
            return t_l2;
        }
        if let Some(wb) = l2.writeback {
            self.charge_writeback(t_l2);
            self.stamps.remove(&self.params.l2.block_of(wb));
        }
        self.mshrs.retire_completed(cycle);
        if let Some(done) = self.mshrs.completion_of(block) {
            self.stats.pthread_useless += 1;
            return done;
        }
        let ready = self.fetch_from_memory(t_l2, block);
        self.stats.pthread_prefetches += 1;
        self.stamps.insert(block, Stamp { ready });
        ready
    }

    /// A fixed-latency pseudo-access for the overhead-only (`execute`)
    /// mode: the p-thread load takes time but touches no memory state.
    pub fn pthread_load_inert(&mut self, cycle: u64) -> u64 {
        self.stats.pthread_loads += 1;
        cycle + self.params.l1_latency + self.params.l2_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memsys() -> MemSys {
        MemSys::new(MachineParams::paper_default())
    }

    #[test]
    fn l1_hit_latency() {
        let mut m = memsys();
        let _ = m.main_load(0, 0x1000); // cold: goes to memory
        let t = m.main_load(1000, 0x1000);
        assert_eq!(t, 1002); // L1 hit at +2
    }

    #[test]
    fn cold_miss_costs_memory_latency() {
        let mut m = memsys();
        let t = m.main_load(0, 0x1000);
        assert!(t >= 70, "cold miss must pay memory latency, got {t}");
        assert_eq!(m.stats().l2_misses, 1);
    }

    #[test]
    fn prefetch_then_hit_is_covered_full() {
        let mut m = memsys();
        let ready = m.pthread_load(0, 0x2000);
        assert_eq!(m.stats().pthread_prefetches, 1);
        // Main arrives long after the prefetch completed.
        let t = m.main_load(ready + 100, 0x2000);
        assert_eq!(m.stats().covered_full, 1);
        assert_eq!(m.stats().l2_misses, 0);
        // Latency is an L2 hit, far below memory latency.
        assert!(t - (ready + 100) < 20);
    }

    #[test]
    fn prefetch_in_flight_is_covered_partial() {
        let mut m = memsys();
        let ready = m.pthread_load(0, 0x2000);
        // Main arrives while the fill is still in flight.
        let t = m.main_load(5, 0x2000);
        assert_eq!(m.stats().covered_partial, 1);
        // Waits for the fill (plus at most a few cycles of backside-bus
        // queueing behind the fill transfer itself).
        assert!(t >= ready && t <= ready + 8, "t {t} ready {ready}");
    }

    #[test]
    fn redundant_prefetch_counted_useless() {
        let mut m = memsys();
        let _ = m.pthread_load(0, 0x2000);
        let _ = m.pthread_load(1, 0x2000); // in flight -> useless
        assert_eq!(m.stats().pthread_useless, 1);
        let ready = m.stats();
        assert_eq!(ready.pthread_prefetches, 1);
    }

    #[test]
    fn pthread_load_does_not_fill_l1() {
        let mut m = memsys();
        let ready = m.pthread_load(0, 0x2000);
        // Main load after fill: must be an L1 miss (L2 hit), not L1 hit.
        let t = m.main_load(ready + 10, 0x2000);
        assert!(t - (ready + 10) > MachineParams::paper_default().l1_latency);
        assert_eq!(m.stats().l1_misses, 1);
    }

    #[test]
    fn mshr_coalescing_for_main_loads() {
        let mut m = memsys();
        let t1 = m.main_load(0, 0x3000);
        let t2 = m.main_load(1, 0x3000); // same block, in flight
        assert_eq!(t1, t2, "second access must wait for the in-flight fill");
        assert_eq!(m.stats().l2_misses, 1); // counted once per line fetch
    }

    #[test]
    fn memory_bus_contention_serializes_misses() {
        let mut m = memsys();
        // Many distinct blocks requested at the same cycle: bus queueing
        // must spread their ready times.
        let times: Vec<u64> = (0..8).map(|i| m.main_load(0, 0x10000 + i * 64)).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            times.len(),
            "ready times must differ: {times:?}"
        );
    }

    #[test]
    fn perfect_l2_caps_latency() {
        let mut m = memsys();
        m.set_perfect_l2(true);
        let t = m.main_load(0, 0x5000);
        let p = MachineParams::paper_default();
        assert_eq!(t, p.l1_latency + p.l2_latency); // issued at cycle 0
        assert_eq!(m.stats().l2_misses, 0);
    }

    #[test]
    fn stores_do_not_stall() {
        let mut m = memsys();
        let t = m.main_store(0, 0x9000); // cold write miss
        assert_eq!(t, 2); // hidden behind the store queue
        assert_eq!(m.stats().stores, 1);
    }

    #[test]
    fn overhead_execute_mode_is_inert() {
        let mut m = memsys();
        let t = m.pthread_load_inert(10);
        assert_eq!(t, 18);
        // No prefetch effect: a later main load still misses.
        let t2 = m.main_load(100, 0x7000);
        assert!(t2 >= 170);
    }
}
