//! Selection parameters: the paper's "few intuitive high level parameters".

use crate::ParamsError;

/// Parameters of the aggregate-advantage model and the selection process.
///
/// These are exactly the inputs the paper's p-thread selection tool takes
/// (§4.1): processor sequencing width and memory latency, the unassisted
/// program IPC, and the p-thread construction constraints (maximum length,
/// optimization/merging switches). The slicing scope constrains the slicer
/// upstream ([`preexec_slice::SliceForestBuilder`]) and is recorded here
/// for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionParams {
    /// Sequencing (fetch) width of the processor, `BW_seq`. Paper: 8.
    pub bw_seq: f64,
    /// Unassisted main-thread IPC of the sample, used to estimate the main
    /// thread's effective sequencing rate.
    pub ipc: f64,
    /// `L_cm`: the miss latency a p-thread can usefully tolerate, in
    /// cycles. Paper: 70-cycle memory (plus L2 access seen by the core).
    pub miss_latency: f64,
    /// Maximum p-thread body length, applied *after* optimization.
    /// Paper default: 32.
    pub max_pthread_len: usize,
    /// Slicing scope used upstream (recorded for reports). Paper: 1024.
    pub slicing_scope: usize,
    /// Apply p-thread optimization (store–load elimination, constant
    /// folding, move elimination) before scoring.
    pub optimize: bool,
    /// Merge selected p-threads with matching dataflow prefixes.
    pub merge: bool,
}

impl SelectionParams {
    /// `BW_seq-mt`: the main thread's expected sequencing rate — "the
    /// average of the unassisted main thread IPC and the sequencing width
    /// of the processor, weighted 2-to-1 in favor of the IPC" (§3.1).
    ///
    /// ```
    /// use preexec_core::SelectionParams;
    /// let p = SelectionParams { bw_seq: 4.0, ipc: 1.0, ..SelectionParams::default() };
    /// assert_eq!(p.bw_seq_mt(), 2.0); // the paper's working example
    /// ```
    pub fn bw_seq_mt(&self) -> f64 {
        (2.0 * self.ipc + self.bw_seq) / 3.0
    }

    /// Overhead per p-thread instruction: sequencing cost `1 / BW_seq`
    /// discounted by expected main-thread utilization `BW_seq-mt / BW_seq`
    /// (§3.1, Equation 4).
    ///
    /// ```
    /// use preexec_core::SelectionParams;
    /// let p = SelectionParams { bw_seq: 4.0, ipc: 1.0, ..SelectionParams::default() };
    /// assert_eq!(p.oh_per_inst(), 0.125); // the paper's working example
    /// ```
    pub fn oh_per_inst(&self) -> f64 {
        (1.0 / self.bw_seq) * (self.bw_seq_mt() / self.bw_seq)
    }

    /// The paper's working-example configuration (§3.1): 4-wide processor,
    /// IPC 1, 8-cycle miss latency, p-threads shorter than 8 instructions.
    pub fn working_example() -> SelectionParams {
        SelectionParams {
            bw_seq: 4.0,
            ipc: 1.0,
            miss_latency: 8.0,
            max_pthread_len: 7,
            slicing_scope: 40,
            optimize: false,
            merge: false,
        }
    }

    /// Validates the parameters: every invalid field maps to a distinct
    /// [`ParamsError`] variant (the first offending field, in declaration
    /// order, is reported). Rejects any non-positive or non-finite
    /// quantity, and an IPC above the sequencing width.
    ///
    /// # Errors
    ///
    /// Returns the variant naming the invalid field.
    pub fn try_validate(&self) -> Result<(), ParamsError> {
        if !(self.bw_seq.is_finite() && self.bw_seq > 0.0) {
            return Err(ParamsError::BadBwSeq(self.bw_seq));
        }
        if !(self.ipc.is_finite() && self.ipc > 0.0) {
            return Err(ParamsError::BadIpc(self.ipc));
        }
        if self.ipc > self.bw_seq {
            return Err(ParamsError::IpcExceedsWidth {
                ipc: self.ipc,
                bw_seq: self.bw_seq,
            });
        }
        if !(self.miss_latency.is_finite() && self.miss_latency > 0.0) {
            return Err(ParamsError::BadMissLatency(self.miss_latency));
        }
        if self.max_pthread_len == 0 {
            return Err(ParamsError::ZeroMaxPthreadLen);
        }
        if self.slicing_scope == 0 {
            return Err(ParamsError::ZeroSlicingScope);
        }
        Ok(())
    }
}

impl Default for SelectionParams {
    /// The paper's default evaluation configuration: 8-wide, 70-cycle
    /// memory, 32-instruction p-threads from 1024-instruction scopes, with
    /// optimization and merging on. `ipc` defaults to 1.0 and should be
    /// set from an unassisted timing run of the sample.
    fn default() -> SelectionParams {
        SelectionParams {
            bw_seq: 8.0,
            ipc: 1.0,
            miss_latency: 70.0,
            max_pthread_len: 32,
            slicing_scope: 1024,
            optimize: true,
            merge: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn working_example_rates() {
        let p = SelectionParams::working_example();
        assert_eq!(p.bw_seq_mt(), 2.0);
        assert_eq!(p.oh_per_inst(), 0.125);
    }

    #[test]
    fn default_rates() {
        let p = SelectionParams::default();
        // (2*1 + 8)/3 = 10/3
        assert!((p.bw_seq_mt() - 10.0 / 3.0).abs() < 1e-12);
        assert!(p.oh_per_inst() > 0.0);
    }

    #[test]
    fn higher_ipc_means_higher_overhead() {
        let lo = SelectionParams {
            ipc: 1.0,
            ..SelectionParams::default()
        };
        let hi = SelectionParams {
            ipc: 4.0,
            ..SelectionParams::default()
        };
        assert!(hi.oh_per_inst() > lo.oh_per_inst());
    }

    #[test]
    fn validate_accepts_defaults() {
        assert_eq!(SelectionParams::default().try_validate(), Ok(()));
        assert_eq!(SelectionParams::working_example().try_validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_ipc() {
        let e = SelectionParams {
            ipc: 0.0,
            ..SelectionParams::default()
        }
        .try_validate()
        .unwrap_err();
        assert!(e.to_string().contains("ipc"), "{e}");
    }

    #[test]
    fn validate_rejects_ipc_above_width() {
        let e = SelectionParams {
            ipc: 9.0,
            ..SelectionParams::default()
        }
        .try_validate()
        .unwrap_err();
        assert!(e.to_string().contains("ipc"), "{e}");
    }

    #[test]
    fn try_validate_maps_each_field_to_a_distinct_variant() {
        use crate::ParamsError;
        let base = SelectionParams::default;
        assert!(matches!(
            SelectionParams {
                bw_seq: f64::NAN,
                ..base()
            }
            .try_validate(),
            Err(ParamsError::BadBwSeq(_))
        ));
        assert!(matches!(
            SelectionParams {
                bw_seq: -8.0,
                ..base()
            }
            .try_validate(),
            Err(ParamsError::BadBwSeq(_))
        ));
        assert!(matches!(
            SelectionParams {
                bw_seq: 0.0,
                ..base()
            }
            .try_validate(),
            Err(ParamsError::BadBwSeq(_))
        ));
        assert!(matches!(
            SelectionParams {
                ipc: f64::NAN,
                ..base()
            }
            .try_validate(),
            Err(ParamsError::BadIpc(_))
        ));
        assert!(matches!(
            SelectionParams {
                ipc: -1.0,
                ..base()
            }
            .try_validate(),
            Err(ParamsError::BadIpc(_))
        ));
        assert!(matches!(
            SelectionParams { ipc: 0.0, ..base() }.try_validate(),
            Err(ParamsError::BadIpc(_))
        ));
        assert!(matches!(
            SelectionParams { ipc: 9.0, ..base() }.try_validate(),
            Err(ParamsError::IpcExceedsWidth { .. })
        ));
        assert!(matches!(
            SelectionParams {
                miss_latency: f64::INFINITY,
                ..base()
            }
            .try_validate(),
            Err(ParamsError::BadMissLatency(_))
        ));
        assert!(matches!(
            SelectionParams {
                miss_latency: 0.0,
                ..base()
            }
            .try_validate(),
            Err(ParamsError::BadMissLatency(_))
        ));
        assert!(matches!(
            SelectionParams {
                max_pthread_len: 0,
                ..base()
            }
            .try_validate(),
            Err(ParamsError::ZeroMaxPthreadLen)
        ));
        assert!(matches!(
            SelectionParams {
                slicing_scope: 0,
                ..base()
            }
            .try_validate(),
            Err(ParamsError::ZeroSlicingScope)
        ));
        assert_eq!(base().try_validate(), Ok(()));
    }
}
