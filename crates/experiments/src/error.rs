//! Typed errors for the experiment pipeline.
//!
//! [`PipelineError`] is the top of the workspace's error taxonomy: every
//! fault a full trace → slice → select → simulate run can hit surfaces
//! here, either as a pipeline-level configuration problem or as a wrapped
//! error from the layer that detected it.

use preexec_core::{ParamsError, SelectError};
use preexec_func::ExecError;
use preexec_slice::SliceError;
use preexec_timing::{MachineError, SimError};
use std::error::Error;
use std::fmt;

/// Any error a pipeline run can produce.
///
/// Configuration variants name the offending [`PipelineConfig`] field and
/// carry the rejected value; wrapper variants delegate to the layer that
/// produced them and expose it through [`Error::source`].
///
/// [`PipelineConfig`]: crate::PipelineConfig
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// `scope` was zero.
    ZeroScope,
    /// `max_slice_len` was zero.
    ZeroMaxSliceLen,
    /// `max_pthread_len` was zero.
    ZeroMaxPthreadLen,
    /// `budget` was zero: nothing would be traced or simulated.
    ZeroBudget,
    /// `model_miss_latency` was overridden with a NaN, infinite, negative,
    /// or zero value.
    BadModelMissLatency(f64),
    /// `model_width` was overridden with a NaN, infinite, negative, or
    /// zero value.
    BadModelWidth(f64),
    /// The machine parameters failed validation.
    Machine(MachineError),
    /// The derived selection parameters failed validation.
    Params(ParamsError),
    /// The functional trace faulted.
    Exec(ExecError),
    /// Slicing failed.
    Slice(SliceError),
    /// The timing simulator faulted.
    Sim(SimError),
    /// The run was cancelled at a stage boundary (client `cancel`, or a
    /// service-level abort). Carries the stage that was about to start.
    Cancelled {
        /// The stage name the gate rejected (`"trace"`, `"base_sim"`,
        /// `"select"`, `"assisted_sim"`, or `"queued"` before any work).
        stage: &'static str,
    },
    /// The run's wall-clock deadline expired before the named stage
    /// could start. Deadlines are only observed at stage boundaries — a
    /// stage that is already running finishes (its own watchdogs bound
    /// it), and the boundary check reports the overrun.
    DeadlineExceeded {
        /// The stage name the gate rejected.
        stage: &'static str,
        /// How far past the deadline the boundary check ran.
        over_ms: u64,
    },
}

impl PipelineError {
    /// Stable machine-readable code naming the variant — what clients
    /// and the wire protocol dispatch on. Human messages may be
    /// reworded; these strings must not change.
    ///
    /// `config.*` codes are rejected before any work starts;
    /// `pipeline.*` codes are runtime stage faults.
    pub fn code(&self) -> &'static str {
        match self {
            PipelineError::ZeroScope => "config.zero_scope",
            PipelineError::ZeroMaxSliceLen => "config.zero_max_slice_len",
            PipelineError::ZeroMaxPthreadLen => "config.zero_max_pthread_len",
            PipelineError::ZeroBudget => "config.zero_budget",
            PipelineError::BadModelMissLatency(_) => "config.bad_model_miss_latency",
            PipelineError::BadModelWidth(_) => "config.bad_model_width",
            PipelineError::Machine(_) => "config.machine",
            PipelineError::Params(_) => "config.selection_params",
            PipelineError::Exec(_) => "pipeline.exec",
            PipelineError::Slice(_) => "pipeline.slice",
            PipelineError::Sim(_) => "pipeline.sim",
            PipelineError::Cancelled { .. } => "pipeline.cancelled",
            PipelineError::DeadlineExceeded { .. } => "pipeline.deadline_exceeded",
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::ZeroScope => write!(f, "slicing scope must be positive"),
            PipelineError::ZeroMaxSliceLen => {
                write!(f, "max slice length must be positive")
            }
            PipelineError::ZeroMaxPthreadLen => {
                write!(f, "max p-thread length must be positive")
            }
            PipelineError::ZeroBudget => {
                write!(f, "instruction budget must be positive")
            }
            PipelineError::BadModelMissLatency(x) => {
                write!(
                    f,
                    "model miss latency override must be finite and positive, got {x}"
                )
            }
            PipelineError::BadModelWidth(x) => {
                write!(
                    f,
                    "model width override must be finite and positive, got {x}"
                )
            }
            PipelineError::Machine(e) => write!(f, "invalid machine configuration: {e}"),
            PipelineError::Params(e) => write!(f, "invalid selection parameters: {e}"),
            PipelineError::Exec(e) => write!(f, "functional trace fault: {e}"),
            PipelineError::Slice(e) => write!(f, "slicing fault: {e}"),
            PipelineError::Sim(e) => write!(f, "timing simulation fault: {e}"),
            PipelineError::Cancelled { stage } => {
                write!(f, "run cancelled before the {stage} stage")
            }
            PipelineError::DeadlineExceeded { stage, over_ms } => {
                write!(f, "deadline exceeded {over_ms} ms before the {stage} stage")
            }
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Machine(e) => Some(e),
            PipelineError::Params(e) => Some(e),
            PipelineError::Exec(e) => Some(e),
            PipelineError::Slice(e) => Some(e),
            PipelineError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MachineError> for PipelineError {
    fn from(e: MachineError) -> PipelineError {
        PipelineError::Machine(e)
    }
}

impl From<ParamsError> for PipelineError {
    fn from(e: ParamsError) -> PipelineError {
        PipelineError::Params(e)
    }
}

impl From<ExecError> for PipelineError {
    fn from(e: ExecError) -> PipelineError {
        PipelineError::Exec(e)
    }
}

impl From<SliceError> for PipelineError {
    fn from(e: SliceError) -> PipelineError {
        PipelineError::Slice(e)
    }
}

impl From<SimError> for PipelineError {
    fn from(e: SimError) -> PipelineError {
        PipelineError::Sim(e)
    }
}

/// Selection-driver faults fold into the existing taxonomy: parameter
/// rejections keep the `config.selection_params` code and non-finite
/// scores surface as the slicing fault they encode (degenerate slice
/// statistics), keeping the wire-visible code set stable.
impl From<SelectError> for PipelineError {
    fn from(e: SelectError) -> PipelineError {
        match e {
            SelectError::Params(p) => PipelineError::Params(p),
            SelectError::Score(s) => PipelineError::Slice(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_has_a_distinct_code() {
        let codes = [
            PipelineError::ZeroScope.code(),
            PipelineError::ZeroMaxSliceLen.code(),
            PipelineError::ZeroMaxPthreadLen.code(),
            PipelineError::ZeroBudget.code(),
            PipelineError::BadModelMissLatency(0.0).code(),
            PipelineError::BadModelWidth(0.0).code(),
            PipelineError::Machine(MachineError::ZeroWidth).code(),
            PipelineError::Params(ParamsError::ZeroMaxPthreadLen).code(),
            PipelineError::Exec(ExecError::CpuHalted).code(),
            PipelineError::Slice(SliceError::ZeroScope).code(),
            PipelineError::Sim(SimError::Machine(MachineError::ZeroWidth)).code(),
            PipelineError::Cancelled { stage: "select" }.code(),
            PipelineError::DeadlineExceeded {
                stage: "select",
                over_ms: 3,
            }
            .code(),
        ];
        for (i, a) in codes.iter().enumerate() {
            for b in &codes[i + 1..] {
                assert_ne!(a, b, "duplicate error code `{a}`");
            }
            assert!(
                a.starts_with("config.") || a.starts_with("pipeline."),
                "code `{a}` outside the taxonomy"
            );
        }
    }

    #[test]
    fn wrapped_errors_expose_sources() {
        let e: PipelineError = MachineError::ZeroWidth.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("machine"));
        let e: PipelineError = ParamsError::ZeroMaxPthreadLen.into();
        assert!(e.source().is_some());
        let e = PipelineError::ZeroBudget;
        assert!(e.source().is_none());
        assert!(e.to_string().contains("budget"));
    }

    #[test]
    fn select_errors_fold_into_the_existing_taxonomy() {
        let e: PipelineError = SelectError::Params(ParamsError::ZeroMaxPthreadLen).into();
        assert_eq!(e.code(), "config.selection_params");
        let e: PipelineError =
            SelectError::Score(SliceError::NonFiniteScore { pc: 7, node: 3 }).into();
        assert_eq!(e.code(), "pipeline.slice");
        assert!(e.to_string().contains("non-finite"));
    }
}
