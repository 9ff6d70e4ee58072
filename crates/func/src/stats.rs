//! Per-run statistics, the raw material of the paper's Table 1.

use preexec_isa::Pc;
use preexec_mem::MemLevel;
use std::collections::BTreeMap;

/// Per-static-load statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadSiteStats {
    /// Dynamic executions of this static load (in the measured region).
    pub execs: u64,
    /// How many of those missed the L1.
    pub l1_misses: u64,
    /// How many missed the L2 — the events p-threads target.
    pub l2_misses: u64,
}

/// Statistics accumulated over the measured region of a trace.
///
/// These correspond to the columns of the paper's Table 1: instruction
/// count, loads, L2 misses — plus the extra detail (per-site miss counts,
/// branch statistics) that the selection pipeline and experiments use.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Dynamic instructions measured (emitted to the sink).
    pub insts: u64,
    /// Total architectural steps, including the warm-up before the
    /// measured region.
    pub total_steps: u64,
    /// Loads measured.
    pub loads: u64,
    /// Stores measured.
    pub stores: u64,
    /// Conditional branches measured.
    pub branches: u64,
    /// Taken conditional branches measured.
    pub taken_branches: u64,
    /// Measured accesses that missed the L1 data cache.
    pub l1d_misses: u64,
    /// Measured loads that missed the L2.
    pub l2_misses: u64,
    /// Per-static-load breakdown.
    pub load_sites: BTreeMap<Pc, LoadSiteStats>,
    /// Whether the run was cut off by the step watchdog (`max_steps`)
    /// rather than halting on its own. A timed-out trace is still usable —
    /// everything counted up to the cutoff is valid — but downstream
    /// consumers can surface the truncation.
    pub timed_out: bool,
}

impl RunStats {
    /// Creates zeroed statistics.
    pub fn new() -> RunStats {
        RunStats::default()
    }

    /// Records a measured load at `pc` serviced by `level`.
    pub fn record_load(&mut self, pc: Pc, level: MemLevel) {
        self.loads += 1;
        let site = self.load_sites.entry(pc).or_default();
        site.execs += 1;
        if level != MemLevel::L1 {
            self.l1d_misses += 1;
            site.l1_misses += 1;
        }
        if level.is_l2_miss() {
            self.l2_misses += 1;
            site.l2_misses += 1;
        }
    }

    /// Records a measured store serviced by `level`.
    pub fn record_store(&mut self, level: MemLevel) {
        self.stores += 1;
        if level != MemLevel::L1 {
            self.l1d_misses += 1;
        }
    }

    /// L2 misses per thousand measured instructions.
    pub fn l2_mpki(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.l2_misses as f64 * 1000.0 / self.insts as f64
        }
    }

    /// The static loads responsible for L2 misses, heaviest first.
    pub fn problem_loads(&self) -> Vec<(Pc, LoadSiteStats)> {
        let mut v: Vec<(Pc, LoadSiteStats)> = self
            .load_sites
            .iter()
            .filter(|(_, s)| s.l2_misses > 0)
            .map(|(&pc, &s)| (pc, s))
            .collect();
        v.sort_by(|a, b| b.1.l2_misses.cmp(&a.1.l2_misses).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_recording() {
        let mut s = RunStats::new();
        s.record_load(5, MemLevel::L1);
        s.record_load(5, MemLevel::Memory);
        s.record_load(7, MemLevel::L2);
        assert_eq!(s.loads, 3);
        assert_eq!(s.l1d_misses, 2);
        assert_eq!(s.l2_misses, 1);
        assert_eq!(s.load_sites[&5].execs, 2);
        assert_eq!(s.load_sites[&5].l2_misses, 1);
        assert_eq!(s.load_sites[&7].l1_misses, 1);
    }

    #[test]
    fn problem_loads_sorted_by_misses() {
        let mut s = RunStats::new();
        for _ in 0..3 {
            s.record_load(9, MemLevel::Memory);
        }
        s.record_load(4, MemLevel::Memory);
        s.record_load(2, MemLevel::L1); // not a problem load
        let pl = s.problem_loads();
        assert_eq!(pl.len(), 2);
        assert_eq!(pl[0].0, 9);
        assert_eq!(pl[1].0, 4);
    }

    #[test]
    fn mpki() {
        let mut s = RunStats::new();
        s.insts = 2000;
        s.l2_misses = 3;
        assert!((s.l2_mpki() - 1.5).abs() < 1e-12);
        let empty = RunStats::new();
        assert_eq!(empty.l2_mpki(), 0.0);
    }
}
