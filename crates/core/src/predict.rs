//! Framework predictions — the "Predict" rows of the paper's Table 2.
//!
//! In performing its selections the framework implicitly predicts p-thread
//! behavior: how many p-threads launch, how long they are, how many misses
//! they cover (and fully cover), and what the performance impact will be.
//! §4.3 of the paper validates these against simulation; our experiment
//! harness does the same.

/// Aggregate predictions for a selected p-thread set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SelectionPrediction {
    /// Number of static p-threads selected.
    pub num_static: usize,
    /// Predicted dynamic p-thread launches (Σ `DC_trig`).
    pub launches: u64,
    /// Predicted average dynamic p-thread length (launch-weighted).
    pub avg_pthread_len: f64,
    /// Predicted L2 misses covered (union over selected p-threads).
    pub misses_covered: u64,
    /// Predicted L2 misses fully covered (latency fully hidden).
    pub misses_fully_covered: u64,
    /// Total aggregate latency tolerance, after overlap reductions.
    pub lt_agg: f64,
    /// Total aggregate overhead.
    pub oh_agg: f64,
    /// Net aggregate advantage (`lt_agg − oh_agg`): predicted cycles saved
    /// over the sample.
    pub adv_agg: f64,
    /// The sequencing width the selection assumed — an upper bound on any
    /// predicted IPC (the machine cannot retire faster than it fetches).
    pub bw_seq: f64,
}

impl SelectionPrediction {
    /// Predicted speedup over the unassisted run of a sample with
    /// `sample_insts` instructions at `ipc`: saved cycles translate one
    /// for one into execution time (the paper's acknowledged serialization
    /// assumption — the main source of its speedup over-prediction).
    pub fn predicted_speedup(&self, sample_insts: u64, ipc: f64) -> f64 {
        let base_cycles = sample_insts as f64 / ipc;
        if base_cycles <= 0.0 {
            return 1.0;
        }
        // The assisted machine cannot retire faster than it sequences:
        // bound the predicted time by the width-limited minimum.
        let floor = if self.bw_seq > 0.0 {
            sample_insts as f64 / self.bw_seq
        } else {
            base_cycles * 0.05
        };
        let new_cycles = (base_cycles - self.adv_agg).max(floor);
        base_cycles / new_cycles
    }

    /// Predicted IPC with p-threads running.
    pub fn predicted_ipc(&self, sample_insts: u64, ipc: f64) -> f64 {
        ipc * self.predicted_speedup(sample_insts, ipc)
    }

    /// Predicted IPC of an overhead-only run (p-threads steal bandwidth
    /// but prefetch nothing), for the Table-2 overhead validation.
    pub fn predicted_overhead_ipc(&self, sample_insts: u64, ipc: f64) -> f64 {
        let base_cycles = sample_insts as f64 / ipc;
        sample_insts as f64 / (base_cycles + self.oh_agg)
    }

    /// Predicted IPC of a latency-tolerance-only run (p-threads cost no
    /// bandwidth), for the Table-2 latency-tolerance validation.
    pub fn predicted_lt_ipc(&self, sample_insts: u64, ipc: f64) -> f64 {
        let base_cycles = sample_insts as f64 / ipc;
        let floor = if self.bw_seq > 0.0 {
            sample_insts as f64 / self.bw_seq
        } else {
            base_cycles * 0.05
        };
        let new_cycles = (base_cycles - self.lt_agg).max(floor);
        sample_insts as f64 / new_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SelectionPrediction {
        SelectionPrediction {
            num_static: 2,
            launches: 200,
            avg_pthread_len: 5.0,
            misses_covered: 40,
            misses_fully_covered: 30,
            lt_agg: 300.0,
            oh_agg: 100.0,
            adv_agg: 200.0,
            bw_seq: 8.0,
        }
    }

    #[test]
    fn speedup_translates_saved_cycles() {
        let p = sample();
        // 1000 insts at IPC 1 -> 1000 cycles; saving 200 -> 1.25x.
        assert!((p.predicted_speedup(1000, 1.0) - 1.25).abs() < 1e-12);
        assert!((p.predicted_ipc(1000, 1.0) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn overhead_only_slows_down() {
        let p = sample();
        let ipc = p.predicted_overhead_ipc(1000, 1.0);
        assert!(ipc < 1.0);
        assert!((ipc - 1000.0 / 1100.0).abs() < 1e-12);
    }

    #[test]
    fn lt_only_exceeds_combined() {
        let p = sample();
        assert!(p.predicted_lt_ipc(1000, 1.0) > p.predicted_ipc(1000, 1.0));
    }

    #[test]
    fn speedup_clamped_at_sequencing_width() {
        let p = SelectionPrediction {
            adv_agg: 10_000.0,
            ..sample()
        };
        let s = p.predicted_speedup(1000, 1.0);
        // At IPC 1 on an 8-wide machine, no more than 8x is predictable.
        assert!((s - 8.0).abs() < 1e-9);
        assert!(p.predicted_ipc(1000, 1.0) <= 8.0 + 1e-9);
    }

    #[test]
    fn empty_prediction_is_neutral() {
        let p = SelectionPrediction::default();
        assert_eq!(p.predicted_speedup(1000, 2.0), 1.0);
    }
}
