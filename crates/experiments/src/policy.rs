//! The unified policy specification — one typed value describing
//! *everything* configurable about a pipeline run.
//!
//! Nine PRs of organic growth left the configuration surface scattered:
//! `PipelineConfig` carried the model knobs, while slicing mode,
//! screening, and deadlines each grew their own builder setter, toolflow
//! flag, and flat protocol field. [`PolicySpec`] collapses that sprawl
//! into a single serde-free typed struct that is the one source of truth
//! flowing through [`Pipeline`](crate::Pipeline), the toolflow CLI, the
//! daemon's `submit`/`submit_batch` verbs (the protocol's nested
//! `policy` object), and the WAL round-trip.
//!
//! Validation is centralized here too: [`PolicySpec::try_validate`]
//! checks the underlying [`PipelineConfig`], the adaptive knobs, and
//! the *combinations* — adaptive selection requires the windowed
//! slicing path (the phased forest builder slices through the window;
//! the on-demand re-execution path keeps none), so
//! `adaptive + ondemand` is rejected with the typed
//! [`PipelineError::ConflictingPolicy`] code every layer reuses for
//! contradictory policy inputs.

use crate::pipeline::PipelineConfig;
use crate::{PipelineError, SlicingMode};
use preexec_func::PhaseConfig;

/// Knobs of the phase-adaptive selection path. All integers, so specs
/// round-trip exactly through JSON and the WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Run phase-adaptive per-phase policy selection. Off by default —
    /// and `false` guarantees byte-identical output to a non-adaptive
    /// build of the same spec.
    pub enabled: bool,
    /// Phase-detector deviation threshold, in permille of the current
    /// phase's mean miss rate (see [`preexec_func::PhaseConfig`]).
    pub threshold_permille: u64,
    /// Consecutive deviating chunks required to confirm a phase shift.
    pub confirm: u64,
    /// Minimum chunks per phase before a shift out of it can confirm.
    pub min_phase_chunks: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> AdaptiveConfig {
        let d = PhaseConfig::default();
        AdaptiveConfig {
            enabled: false,
            threshold_permille: d.threshold_permille,
            confirm: d.confirm,
            min_phase_chunks: d.min_phase_chunks,
        }
    }
}

impl AdaptiveConfig {
    /// The detector configuration this spec implies.
    pub fn phase_config(&self) -> PhaseConfig {
        PhaseConfig {
            threshold_permille: self.threshold_permille,
            confirm: self.confirm,
            min_phase_chunks: self.min_phase_chunks,
        }
    }
}

/// The complete, typed policy of one pipeline run: model/budget
/// configuration, slicing mode, screening, adaptive selection, and the
/// wall-clock deadline. What a workload
/// runs *on* (program, input) stays with the caller; everything about
/// *how* it runs lives here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicySpec {
    /// Machine, model, and budget configuration.
    pub cfg: PipelineConfig,
    /// How the trace stage extracts slices.
    pub slicing: SlicingMode,
    /// The static ADVagg screening pre-pass (on by default; never
    /// changes the selected set).
    pub screening: bool,
    /// Phase-adaptive selection knobs.
    pub adaptive: AdaptiveConfig,
    /// Optional wall-clock deadline in milliseconds, observed at stage
    /// boundaries (service-level; ignored by in-process runs without a
    /// gate).
    pub deadline_ms: Option<u64>,
}

impl Default for PolicySpec {
    /// The repo's standard quick-run policy: paper defaults at a
    /// 120 k-instruction budget, windowed slicing, screening on,
    /// adaptive off, no deadline.
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
            screening: true,
            adaptive: AdaptiveConfig::default(),
            deadline_ms: None,
        }
    }

    /// Validates the spec: the underlying [`PipelineConfig`], the
    /// adaptive knobs, and the cross-field combinations.
    ///
    /// # Errors
    ///
    /// [`PipelineError`] config variants for bad `cfg` fields;
    /// [`PipelineError::BadAdaptive`] for a zero adaptive knob;
    /// [`PipelineError::ConflictingPolicy`] (key `"slice_mode"`) when
    /// adaptive selection is combined with on-demand slicing.
    pub fn try_validate(&self) -> Result<(), PipelineError> {
        self.cfg.try_validate()?;
        if self.adaptive.enabled {
            if self.adaptive.threshold_permille == 0 {
                return Err(PipelineError::BadAdaptive {
                    field: "threshold_permille",
                });
            }
            if self.adaptive.confirm == 0 {
                return Err(PipelineError::BadAdaptive { field: "confirm" });
            }
            if self.adaptive.min_phase_chunks == 0 {
                return Err(PipelineError::BadAdaptive {
                    field: "min_phase_chunks",
                });
            }
            if matches!(self.slicing, SlicingMode::OnDemand { .. }) {
                return Err(PipelineError::ConflictingPolicy { key: "slice_mode" });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_CHECKPOINT_EVERY;

    #[test]
    fn default_spec_validates_and_is_static() {
        let spec = PolicySpec::default();
        assert!(spec.try_validate().is_ok());
        assert!(!spec.adaptive.enabled);
        assert!(spec.screening);
        assert_eq!(spec.slicing, SlicingMode::Windowed);
        assert_eq!(spec.deadline_ms, None);
    }

    #[test]
    fn adaptive_defaults_mirror_the_detector_defaults() {
        let a = AdaptiveConfig::default();
        assert_eq!(a.phase_config(), PhaseConfig::default());
    }

    #[test]
    fn adaptive_rejects_ondemand_with_the_conflict_code() {
        let spec = PolicySpec {
            slicing: SlicingMode::OnDemand {
                checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            },
            adaptive: AdaptiveConfig {
                enabled: true,
                ..AdaptiveConfig::default()
            },
            ..PolicySpec::default()
        };
        let e = spec.try_validate().unwrap_err();
        assert_eq!(e, PipelineError::ConflictingPolicy { key: "slice_mode" });
        assert_eq!(e.code(), "config.conflicting_policy");
        // The same combination with adaptive *off* is fine.
        let off = PolicySpec {
            adaptive: AdaptiveConfig::default(),
            ..spec
        };
        assert!(off.try_validate().is_ok());
    }

    #[test]
    fn zero_adaptive_knobs_are_rejected_by_name() {
        for (field, adaptive) in [
            (
                "threshold_permille",
                AdaptiveConfig {
                    enabled: true,
                    threshold_permille: 0,
                    ..AdaptiveConfig::default()
                },
            ),
            (
                "confirm",
                AdaptiveConfig {
                    enabled: true,
                    confirm: 0,
                    ..AdaptiveConfig::default()
                },
            ),
            (
                "min_phase_chunks",
                AdaptiveConfig {
                    enabled: true,
                    min_phase_chunks: 0,
                    ..AdaptiveConfig::default()
                },
            ),
        ] {
            let spec = PolicySpec {
                adaptive,
                ..PolicySpec::default()
            };
            assert_eq!(
                spec.try_validate().unwrap_err(),
                PipelineError::BadAdaptive { field }
            );
        }
        // Disabled adaptive skips the knob checks (the knobs are inert).
        let spec = PolicySpec {
            adaptive: AdaptiveConfig {
                confirm: 0,
                ..AdaptiveConfig::default()
            },
            ..PolicySpec::default()
        };
        assert!(spec.try_validate().is_ok());
    }

    #[test]
    fn bad_pipeline_config_still_surfaces_first() {
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
