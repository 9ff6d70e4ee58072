//! The workspace-wide error umbrella.
//!
//! Every layer of the framework reports faults through its own typed enum
//! ([`IsaError`], [`ExecError`], [`SliceError`], [`ParamsError`],
//! [`SimError`], [`PipelineError`]); [`Error`] unifies them for callers
//! that drive several layers at once (the toolflow binaries, integration
//! tests, downstream embedders). `From` impls let `?` lift any layer error
//! into it.
//!
//! [`IsaError`]: preexec_isa::IsaError
//! [`ExecError`]: preexec_func::ExecError
//! [`SliceError`]: preexec_slice::SliceError
//! [`ParamsError`]: preexec_core::ParamsError
//! [`SimError`]: preexec_timing::SimError
//! [`PipelineError`]: preexec_experiments::PipelineError

use std::fmt;

/// Any error the framework can produce, by originating layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Assembling or building a program failed.
    Isa(preexec_isa::IsaError),
    /// The functional simulator faulted.
    Exec(preexec_func::ExecError),
    /// Slicing or slice-file I/O failed.
    Slice(preexec_slice::SliceError),
    /// Selection parameters were invalid.
    Params(preexec_core::ParamsError),
    /// The timing simulator faulted.
    Sim(preexec_timing::SimError),
    /// The experiment pipeline faulted.
    Pipeline(preexec_experiments::PipelineError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Isa(e) => write!(f, "isa: {e}"),
            Error::Exec(e) => write!(f, "func: {e}"),
            Error::Slice(e) => write!(f, "slice: {e}"),
            Error::Params(e) => write!(f, "core: {e}"),
            Error::Sim(e) => write!(f, "timing: {e}"),
            Error::Pipeline(e) => write!(f, "pipeline: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Isa(e) => Some(e),
            Error::Exec(e) => Some(e),
            Error::Slice(e) => Some(e),
            Error::Params(e) => Some(e),
            Error::Sim(e) => Some(e),
            Error::Pipeline(e) => Some(e),
        }
    }
}

impl From<preexec_isa::IsaError> for Error {
    fn from(e: preexec_isa::IsaError) -> Error {
        Error::Isa(e)
    }
}

impl From<preexec_isa::AsmError> for Error {
    fn from(e: preexec_isa::AsmError) -> Error {
        Error::Isa(e.into())
    }
}

impl From<preexec_isa::BuildError> for Error {
    fn from(e: preexec_isa::BuildError) -> Error {
        Error::Isa(e.into())
    }
}

impl From<preexec_func::ExecError> for Error {
    fn from(e: preexec_func::ExecError) -> Error {
        Error::Exec(e)
    }
}

impl From<preexec_slice::SliceError> for Error {
    fn from(e: preexec_slice::SliceError) -> Error {
        Error::Slice(e)
    }
}

impl From<preexec_core::ParamsError> for Error {
    fn from(e: preexec_core::ParamsError) -> Error {
        Error::Params(e)
    }
}

impl From<preexec_timing::SimError> for Error {
    fn from(e: preexec_timing::SimError) -> Error {
        Error::Sim(e)
    }
}

impl From<preexec_experiments::PipelineError> for Error {
    fn from(e: preexec_experiments::PipelineError) -> Error {
        Error::Pipeline(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn lifts_every_layer() {
        let e: Error = preexec_isa::assemble("t", "frobnicate r1")
            .unwrap_err()
            .into();
        assert!(matches!(e, Error::Isa(_)));
        assert!(e.source().is_some());
        let e: Error = preexec_core::ParamsError::ZeroMaxPthreadLen.into();
        assert!(e.to_string().starts_with("core:"));
        let e: Error =
            preexec_timing::SimError::Machine(preexec_timing::MachineError::ZeroWidth).into();
        assert!(e.to_string().contains("width"));
        let e: Error = preexec_experiments::PipelineError::ZeroBudget.into();
        assert!(matches!(e, Error::Pipeline(_)));
    }
}
