//! The unified policy specification — one typed value describing
//! everything a caller may choose about a pipeline run.
//!
//! [`PolicySpec`] is the one source of truth flowing through
//! [`Pipeline`](crate::Pipeline), the daemon's `submit`/`submit_batch`
//! verbs (the protocol's nested `policy` object carries its deadline),
//! and the WAL round-trip. Selection always runs serially behind the
//! static screen: neither is a policy choice, since neither changes a
//! result.

use crate::pipeline::PipelineConfig;
use crate::{PipelineError, SlicingMode};

/// The complete, typed policy of one pipeline run: model/budget
/// configuration, slicing mode, and the wall-clock deadline. What a
/// workload runs *on* (program, input) stays with the caller;
/// everything about *how* it runs lives here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicySpec {
    /// Machine, model, and budget configuration.
    pub cfg: PipelineConfig,
    /// How the trace stage extracts slices (library-only: no front end
    /// sets it).
    pub slicing: SlicingMode,
    /// Optional wall-clock deadline in milliseconds, observed at stage
    /// boundaries (service-level; ignored by in-process runs without a
    /// gate).
    pub deadline_ms: Option<u64>,
}

impl Default for PolicySpec {
    /// The repo's standard quick-run policy: paper defaults at a
    /// 120 k-instruction budget, windowed slicing, no deadline.
    fn default() -> PolicySpec {
        PolicySpec::paper_default(120_000)
    }
}

impl PolicySpec {
    /// The paper-default policy at the given instruction budget.
    pub fn paper_default(budget: u64) -> PolicySpec {
        PolicySpec {
            cfg: PipelineConfig::paper_default(budget),
            slicing: SlicingMode::Windowed,
            deadline_ms: None,
        }
    }

    /// Validates the spec: every other field is valid by construction,
    /// so this is the underlying [`PipelineConfig`]'s check.
    ///
    /// # Errors
    ///
    /// [`PipelineError`] config variants for bad `cfg` fields.
    pub fn try_validate(&self) -> Result<(), PipelineError> {
        self.cfg.try_validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_validates() {
        let spec = PolicySpec::default();
        assert!(spec.try_validate().is_ok());
        assert_eq!(spec.slicing, SlicingMode::Windowed);
        assert_eq!(spec.deadline_ms, None);
    }

    #[test]
    fn bad_pipeline_config_surfaces() {
        let spec = PolicySpec {
            cfg: PipelineConfig {
                budget: 0,
                ..PipelineConfig::paper_default(1)
            },
            ..PolicySpec::default()
        };
        assert_eq!(spec.try_validate().unwrap_err(), PipelineError::ZeroBudget);
    }
}
