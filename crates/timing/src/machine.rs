//! Machine parameters for the timing simulator.

use crate::MachineError;
use preexec_mem::CacheConfig;

/// The longest latency, in cycles, that a [`MachineParams`] field may
/// give. The simulator books issue slots, completions and bus beats in
/// dense windows that span from the current cycle to the latest
/// outstanding event, so latencies bound their size.
pub const MAX_LATENCY: u64 = 1 << 16;

/// Parameters of the simulated machine, defaulting to the paper's base
/// configuration (§4.1): an 8-wide dynamically scheduled processor with a
/// 14-stage pipeline, 80 reservation stations, 128 instructions in flight,
/// a 64-entry store queue with 2-cycle forwarding, 1-cycle address
/// generation, 16 KB/32 B/2-way/2-cycle L1D, 256 KB/64 B/4-way/6-cycle L2,
/// 70-cycle memory, a 32 B backside bus at core clock, a 32 B memory bus
/// at one-fourth clock, 32 outstanding misses, a hybrid 6K-entry branch
/// predictor with a 2K-entry BTB, three p-thread contexts, and 64 extra
/// physical registers for p-thread use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineParams {
    /// Sequencing (fetch/rename/issue/retire) width.
    pub width: u32,
    /// Pipeline depth, which sets the branch-misprediction redirect
    /// penalty (front-end refill).
    pub pipeline_depth: u32,
    /// Reservation-station pool shared by the main thread and p-threads.
    pub rs_entries: usize,
    /// Maximum main-thread instructions in flight (reorder window).
    pub rob_entries: usize,
    /// Store-queue entries.
    pub store_queue_entries: usize,
    /// Store-to-load forwarding latency, cycles.
    pub store_forward_latency: u64,
    /// Address-generation latency preceding every memory access, cycles.
    pub agen_latency: u64,
    /// L1 data-cache geometry.
    pub l1d: CacheConfig,
    /// L1 data-cache access latency, cycles.
    pub l1_latency: u64,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// L2 access latency, cycles.
    pub l2_latency: u64,
    /// Main-memory access latency, cycles.
    pub mem_latency: u64,
    /// Backside (L2↔core) bus width in bytes; one beat per cycle.
    pub backside_bus_bytes: u64,
    /// Memory bus width in bytes.
    pub mem_bus_bytes: u64,
    /// Memory bus clock divisor (cycles per beat).
    pub mem_bus_divisor: u64,
    /// Simultaneously outstanding misses (MSHRs).
    pub mshrs: usize,
    /// Number of p-thread hardware contexts.
    pub pthread_contexts: usize,
    /// Extra physical registers reserved for p-thread use.
    pub pthread_phys_regs: usize,
    /// P-thread injection burst: this many instructions once every this
    /// many cycles per active context (paper: 8).
    pub pthread_burst: u32,
}

impl MachineParams {
    /// The paper's base configuration.
    pub fn paper_default() -> MachineParams {
        MachineParams {
            width: 8,
            pipeline_depth: 14,
            rs_entries: 80,
            rob_entries: 128,
            store_queue_entries: 64,
            store_forward_latency: 2,
            agen_latency: 1,
            l1d: CacheConfig::paper_l1d(),
            l1_latency: 2,
            l2: CacheConfig::paper_l2(),
            l2_latency: 6,
            mem_latency: 70,
            backside_bus_bytes: 32,
            mem_bus_bytes: 32,
            mem_bus_divisor: 4,
            mshrs: 32,
            pthread_contexts: 3,
            pthread_phys_regs: 64,
            pthread_burst: 8,
        }
    }

    /// Branch-misprediction redirect penalty: refill the front half of the
    /// pipeline.
    pub fn mispredict_penalty(&self) -> u64 {
        (self.pipeline_depth / 2).max(1) as u64
    }

    /// Effective L2-miss latency as seen by a load (L1 + L2 lookups plus
    /// memory), ignoring contention — the `L_cm` a selection model should
    /// assume for this machine.
    pub fn l2_miss_latency(&self) -> u64 {
        self.l1_latency + self.l2_latency + self.mem_latency
    }

    /// A narrower machine (for the §4.5 processor-width studies).
    pub fn with_width(self, width: u32) -> MachineParams {
        MachineParams { width, ..self }
    }

    /// A machine with different memory latency (for the Figure-8 studies).
    pub fn with_mem_latency(self, mem_latency: u64) -> MachineParams {
        MachineParams {
            mem_latency,
            ..self
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns the [`MachineError`] variant naming the zero field, the
    /// cache geometry that cannot be indexed, or the latency that is too
    /// long.
    pub fn try_validate(&self) -> Result<(), MachineError> {
        if self.width == 0 {
            return Err(MachineError::ZeroWidth);
        }
        if self.rs_entries == 0 || self.rob_entries == 0 {
            return Err(MachineError::ZeroWindow);
        }
        if self.mshrs == 0 {
            return Err(MachineError::ZeroMshrs);
        }
        if self.pthread_burst == 0 {
            return Err(MachineError::ZeroBurst);
        }
        if self.backside_bus_bytes == 0 || self.mem_bus_bytes == 0 || self.mem_bus_divisor == 0 {
            return Err(MachineError::ZeroBus);
        }
        if self.store_queue_entries == 0 {
            return Err(MachineError::ZeroStoreQueue);
        }
        if !self.l1d.is_indexable() || !self.l2.is_indexable() {
            return Err(MachineError::CacheGeometry);
        }
        let latencies = [
            self.store_forward_latency,
            self.agen_latency,
            self.l1_latency,
            self.l2_latency,
            self.mem_latency,
        ];
        if latencies.iter().any(|&l| l > MAX_LATENCY) {
            return Err(MachineError::LatencyTooLong);
        }
        Ok(())
    }
}

impl Default for MachineParams {
    fn default() -> MachineParams {
        MachineParams::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let m = MachineParams::paper_default();
        assert_eq!(m.width, 8);
        assert_eq!(m.mem_latency, 70);
        assert_eq!(m.l2_miss_latency(), 78);
        assert_eq!(m.mispredict_penalty(), 7);
        assert_eq!(m.try_validate(), Ok(()));
    }

    #[test]
    fn builders() {
        let m = MachineParams::paper_default()
            .with_width(4)
            .with_mem_latency(140);
        assert_eq!(m.width, 4);
        assert_eq!(m.mem_latency, 140);
        assert_eq!(m.rs_entries, 80); // untouched
    }

    #[test]
    fn zero_width_rejected() {
        let e = MachineParams {
            width: 0,
            ..MachineParams::paper_default()
        }
        .try_validate()
        .unwrap_err();
        assert!(e.to_string().contains("width"), "{e}");
    }
}
