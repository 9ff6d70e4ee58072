//! Typed errors for the selection layer.

use std::error::Error;
use std::fmt;

/// A rejected [`SelectionParams`](crate::SelectionParams) field. Each
/// invalid field maps to a distinct variant carrying the offending value,
/// so callers (and tests) can tell *which* parameter was bad.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamsError {
    /// `bw_seq` was NaN, infinite, zero, or negative.
    BadBwSeq(f64),
    /// `ipc` was NaN, infinite, zero, or negative.
    BadIpc(f64),
    /// `ipc` exceeded `bw_seq` (a program cannot retire faster than the
    /// processor sequences).
    IpcExceedsWidth {
        /// The offending IPC.
        ipc: f64,
        /// The sequencing width it exceeded.
        bw_seq: f64,
    },
    /// `miss_latency` was NaN, infinite, zero, or negative.
    BadMissLatency(f64),
    /// `max_pthread_len` was zero.
    ZeroMaxPthreadLen,
    /// `slicing_scope` was zero.
    ZeroSlicingScope,
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::BadBwSeq(v) => {
                write!(f, "bw_seq must be positive and finite, got {v}")
            }
            ParamsError::BadIpc(v) => {
                write!(f, "ipc must be positive and finite, got {v}")
            }
            ParamsError::IpcExceedsWidth { ipc, bw_seq } => {
                write!(
                    f,
                    "ipc must be in (0, bw_seq]: ipc {ipc} exceeds bw_seq {bw_seq}"
                )
            }
            ParamsError::BadMissLatency(v) => {
                write!(f, "miss_latency must be positive and finite, got {v}")
            }
            ParamsError::ZeroMaxPthreadLen => write!(f, "max_pthread_len must be positive"),
            ParamsError::ZeroSlicingScope => write!(f, "slicing_scope must be positive"),
        }
    }
}

impl Error for ParamsError {}

/// A fault from the selection driver
/// ([`try_select_pthreads_stats`](crate::select::try_select_pthreads_stats)):
/// either the parameters were rejected up front or a candidate's score
/// came out non-finite mid-run.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectError {
    /// The selection parameters failed validation.
    Params(ParamsError),
    /// A candidate's aggregate advantage evaluated to NaN or ±∞ (see
    /// [`preexec_slice::SliceError::NonFiniteScore`]).
    Score(preexec_slice::SliceError),
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Delegate verbatim: the panicking wrappers surface these
            // messages and must match the historical `validate()` text.
            SelectError::Params(e) => e.fmt(f),
            SelectError::Score(e) => e.fmt(f),
        }
    }
}

impl Error for SelectError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SelectError::Params(e) => Some(e),
            SelectError::Score(e) => Some(e),
        }
    }
}

impl From<ParamsError> for SelectError {
    fn from(e: ParamsError) -> SelectError {
        SelectError::Params(e)
    }
}

impl From<preexec_slice::SliceError> for SelectError {
    fn from(e: preexec_slice::SliceError) -> SelectError {
        SelectError::Score(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_error_wraps_both_layers() {
        let e: SelectError = ParamsError::ZeroMaxPthreadLen.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("max_pthread_len"));
        let e: SelectError = preexec_slice::SliceError::NonFiniteScore { pc: 7, node: 3 }.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("non-finite"));
    }

    #[test]
    fn display_names_the_field() {
        assert!(ParamsError::BadBwSeq(f64::NAN)
            .to_string()
            .contains("bw_seq"));
        assert!(ParamsError::BadIpc(-1.0).to_string().contains("ipc"));
        assert!(ParamsError::IpcExceedsWidth {
            ipc: 9.0,
            bw_seq: 8.0
        }
        .to_string()
        .contains("exceeds"));
        assert!(ParamsError::BadMissLatency(0.0)
            .to_string()
            .contains("miss_latency"));
        assert!(ParamsError::ZeroMaxPthreadLen
            .to_string()
            .contains("max_pthread_len"));
        assert!(ParamsError::ZeroSlicingScope
            .to_string()
            .contains("slicing_scope"));
    }
}
