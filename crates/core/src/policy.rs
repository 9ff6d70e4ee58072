//! Per-phase policy choice for adaptive selection.
//!
//! The paper scores candidates under one *static* policy — one slicing
//! scope, merging on or off, one ADVagg parameterization — for the whole
//! sample. "Beyond Static Policies" (PAPERS.md) argues a single static
//! policy loses to per-phase choices. This module supplies the dynamic
//! half: a small fixed space of policy *variants* and a deterministic
//! chooser that re-runs selection under each variant on one phase's
//! slice forest and keeps the variant with the best phase payoff.
//!
//! # The payoff model
//!
//! The static selector maximizes `ADVagg = LTagg − OHagg`, which weighs
//! a cycle of sequencing overhead exactly as much as a cycle of hidden
//! latency. That equivalence only holds when the main thread leaves
//! fetch bandwidth idle — i.e. in miss-heavy phases. In a phase that
//! rarely misses, the main thread uses the front end well and every
//! p-thread instruction steals real issue slots. The chooser therefore
//! evaluates each variant's *outcome* under a phase-weighted payoff
//!
//! ```text
//! J_phase = LTagg − κ(phase) · OHagg,   κ = 1 + 4 / (1 + misses-per-kilo-inst)
//! ```
//!
//! κ → 1 in miss-heavy phases (overhead is nearly free, the static
//! objective is already right) and grows toward 5 in miss-light phases
//! (overhead is expensive, leaner selections win). The static variant is
//! first in the space and ties break toward the lowest index, so the
//! chosen payoff is by construction ≥ the static variant's payoff and a
//! phase only diverges from the static policy when a variant is
//! *strictly* better under its own phase's κ.
//!
//! # The variant space
//!
//! Three axes, per the framework's knobs:
//!
//! - **scope** — the slicing window cannot be re-cut after the trace,
//!   so the scope axis is expressed through its selection-time proxy:
//!   halving `max_pthread_len` bounds how far back into the scope a
//!   candidate body may reach (`SelectionParams::slicing_scope` itself
//!   is advisory and recorded for reporting only);
//! - **merge** — trigger-prefix merging on/off;
//! - **ADVagg variant** — the model parameterization: either the global
//!   sample IPC (as in the paper) or a phase-local IPC estimate
//!   self-calibrated against the sample (see [`phase_ipc_estimate`]),
//!   and optimized vs. raw bodies.
//!
//! Everything here is deterministic: the variants are a fixed table,
//! each selection run is bit-identical at any thread count, and the
//! argmax breaks ties by table order.

use crate::par::{ParStats, Parallelism};
use crate::{ScreenStats, SelectError, Selection, SelectionParams};
use preexec_slice::SliceForest;

/// One phase's trace summary, as the chooser needs it.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    /// Measured instructions attributed to the phase.
    pub insts: u64,
    /// L2-miss loads among them.
    pub l2_misses: u64,
}

impl PhaseStats {
    /// Misses per thousand instructions (0 for an empty phase).
    pub fn misses_per_kinst(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            1000.0 * self.l2_misses as f64 / self.insts as f64
        }
    }
}

/// One point in the policy space: a named delta over the static
/// selection parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyVariant {
    /// Stable name, used in reports and results tables.
    pub name: &'static str,
    /// Scope axis: halve `max_pthread_len` (and the advisory
    /// `slicing_scope`), bounding candidate reach.
    pub halve_scope: bool,
    /// Merge axis: override `merge` (None keeps the static setting).
    pub merge: Option<bool>,
    /// ADVagg axis: override `optimize` (None keeps the static setting).
    pub optimize: Option<bool>,
    /// ADVagg axis: replace the global sample IPC with the phase-local
    /// estimate from [`phase_ipc_estimate`].
    pub phase_ipc: bool,
}

/// The fixed policy space. `POLICY_SPACE[0]` is the static policy (no
/// deltas); the chooser's tie-break toward index 0 makes it the default.
pub const POLICY_SPACE: &[PolicyVariant] = &[
    PolicyVariant {
        name: "static",
        halve_scope: false,
        merge: None,
        optimize: None,
        phase_ipc: false,
    },
    PolicyVariant {
        name: "phase-ipc",
        halve_scope: false,
        merge: None,
        optimize: None,
        phase_ipc: true,
    },
    PolicyVariant {
        name: "half-scope",
        halve_scope: true,
        merge: None,
        optimize: None,
        phase_ipc: false,
    },
    PolicyVariant {
        name: "half-scope+phase-ipc",
        halve_scope: true,
        merge: None,
        optimize: None,
        phase_ipc: true,
    },
    PolicyVariant {
        name: "no-merge",
        halve_scope: false,
        merge: Some(false),
        optimize: None,
        phase_ipc: false,
    },
    PolicyVariant {
        name: "raw-bodies",
        halve_scope: false,
        merge: None,
        optimize: Some(false),
        phase_ipc: false,
    },
];

/// Phase-local IPC estimate, self-calibrated against the whole sample.
///
/// A simple stall-accounting model `IPC = IPC₀ / (1 + rate · L_cm)` —
/// every miss serializes `L_cm` cycles against otherwise-steady issue —
/// inverted at the *sample* level to recover the workload's implied
/// no-miss rate `IPC₀` from the measured `base.ipc`, then re-applied at
/// the phase's own miss rate. Clamped to the selector's valid range
/// `(0.05, bw_seq]`.
///
/// Anchoring on the measurement (rather than an absolute `BW_seq`
/// ceiling) makes the estimate exact when the phase *is* the sample:
/// equal miss rates return `base.ipc` bit-for-bit, so a single-phase
/// trace ties the `phase-ipc` variant against `static` and the
/// tie-break keeps the static policy. Only a genuine rate contrast
/// between phases can move the estimate.
pub fn phase_ipc_estimate(base: &SelectionParams, sample: PhaseStats, phase: PhaseStats) -> f64 {
    if phase.insts == 0 || sample.insts == 0 {
        return base.ipc;
    }
    // Equal rates (exact integer cross-product) short-circuit to the
    // measured IPC so the round-trip is bitwise, not merely close.
    if phase.l2_misses as u128 * sample.insts as u128
        == sample.l2_misses as u128 * phase.insts as u128
    {
        return base.ipc;
    }
    let rate_s = sample.l2_misses as f64 / sample.insts as f64;
    let rate_p = phase.l2_misses as f64 / phase.insts as f64;
    let ipc0 = base.ipc * (1.0 + rate_s * base.miss_latency);
    (ipc0 / (1.0 + rate_p * base.miss_latency)).clamp(0.05, base.bw_seq)
}

/// The phase's overhead weight κ (see the module docs).
pub fn overhead_weight(phase: PhaseStats) -> f64 {
    1.0 + 4.0 / (1.0 + phase.misses_per_kinst())
}

/// The phase payoff of a selection outcome under overhead weight κ.
pub fn phase_payoff(selection: &Selection, kappa: f64) -> f64 {
    selection.prediction.lt_agg - kappa * selection.prediction.oh_agg
}

/// Materializes a variant's selection parameters over the static base.
/// `sample` is the whole trace's summary — the calibration anchor for
/// the phase-local IPC estimate.
pub fn variant_params(
    variant: &PolicyVariant,
    base: &SelectionParams,
    sample: PhaseStats,
    phase: PhaseStats,
) -> SelectionParams {
    let mut p = *base;
    if variant.halve_scope {
        p.max_pthread_len = (p.max_pthread_len / 2).max(1);
        p.slicing_scope = (p.slicing_scope / 2).max(1);
    }
    if let Some(m) = variant.merge {
        p.merge = m;
    }
    if let Some(o) = variant.optimize {
        p.optimize = o;
    }
    if variant.phase_ipc {
        p.ipc = phase_ipc_estimate(base, sample, phase);
    }
    p
}

/// The chooser's verdict for one phase.
#[derive(Debug, Clone)]
pub struct PhasePolicyChoice {
    /// Index of the winning variant in [`POLICY_SPACE`].
    pub index: usize,
    /// Its name.
    pub name: &'static str,
    /// The winning selection (what the phase should run).
    pub selection: Selection,
    /// Its payoff `J_phase`.
    pub payoff: f64,
    /// The static variant's payoff on the same phase (index 0) — the
    /// baseline the results table compares against.
    pub static_payoff: f64,
    /// The overhead weight κ the phase was judged under.
    pub kappa: f64,
}

/// Runs every variant of [`POLICY_SPACE`] on one phase's forest and
/// returns the best under the phase payoff (ties keep the lowest index,
/// i.e. the static policy). Bit-identical at any `par` because each
/// underlying selection run is.
///
/// # Errors
///
/// Returns the first [`SelectError`] any variant's selection run hits
/// (variant parameters are derived from validated static parameters and
/// stay valid by construction, so in practice this mirrors the static
/// selector's error surface).
pub fn try_choose_policy(
    forest: &SliceForest,
    base: &SelectionParams,
    sample: PhaseStats,
    phase: PhaseStats,
    par: Parallelism,
    screening: bool,
) -> Result<(PhasePolicyChoice, ParStats, ScreenStats), SelectError> {
    let kappa = overhead_weight(phase);
    let mut pstats = ParStats::default();
    let mut sstats = ScreenStats::default();
    let mut best: Option<PhasePolicyChoice> = None;
    let mut static_payoff = 0.0;
    for (index, variant) in POLICY_SPACE.iter().enumerate() {
        let params = variant_params(variant, base, sample, phase);
        let (selection, ps, ss) =
            crate::try_select_pthreads_stats(forest, &params, par, screening)?;
        pstats.absorb(&ps);
        sstats.absorb(&ss);
        let payoff = phase_payoff(&selection, kappa);
        if index == 0 {
            static_payoff = payoff;
        }
        let wins = match &best {
            None => true,
            // Strictly-greater via total order: NaN never dethrones.
            Some(b) => payoff.total_cmp(&b.payoff) == std::cmp::Ordering::Greater,
        };
        if wins {
            best = Some(PhasePolicyChoice {
                index,
                name: variant.name,
                selection,
                payoff,
                static_payoff,
                kappa,
            });
        }
    }
    let mut choice = match best {
        Some(c) => c,
        // POLICY_SPACE is non-empty; unreachable in practice.
        None => {
            return Err(SelectError::Params(crate::ParamsError::ZeroMaxPthreadLen));
        }
    };
    choice.static_payoff = static_payoff;
    Ok((choice, pstats, sstats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_func::{run_trace, TraceConfig};
    use preexec_isa::assemble;
    use preexec_slice::SliceForestBuilder;

    fn miss_forest() -> SliceForest {
        let p = assemble(
            "t",
            "li r1, 0x100000\n li r2, 0\n li r3, 256\n\
             top: bge r2, r3, done\n ld r4, 0(r1)\n addi r1, r1, 64\n addi r2, r2, 1\n j top\n\
             done: halt",
        )
        .unwrap();
        let mut b = SliceForestBuilder::new(1024, 32);
        run_trace(&p, &TraceConfig::default(), |d| b.observe(d));
        b.finish()
    }

    #[test]
    fn static_variant_is_first_and_identity() {
        let base = SelectionParams {
            ipc: 0.5,
            ..SelectionParams::default()
        };
        let sample = PhaseStats {
            insts: 40_000,
            l2_misses: 1600,
        };
        let phase = PhaseStats {
            insts: 10_000,
            l2_misses: 400,
        };
        assert_eq!(POLICY_SPACE[0].name, "static");
        assert_eq!(variant_params(&POLICY_SPACE[0], &base, sample, phase), base);
    }

    #[test]
    fn variant_params_stay_valid() {
        let base = SelectionParams {
            ipc: 0.5,
            max_pthread_len: 1,
            ..SelectionParams::default()
        };
        let sample = PhaseStats {
            insts: 1_001_000,
            l2_misses: 1000,
        };
        for v in POLICY_SPACE {
            for phase in [
                PhaseStats::default(),
                PhaseStats {
                    insts: 1_000_000,
                    l2_misses: 0,
                },
                PhaseStats {
                    insts: 1000,
                    l2_misses: 1000,
                },
            ] {
                let p = variant_params(v, &base, sample, phase);
                assert!(
                    p.try_validate().is_ok(),
                    "variant {} invalid: {p:?}",
                    v.name
                );
            }
        }
    }

    #[test]
    fn overhead_weight_tracks_miss_intensity() {
        let light = overhead_weight(PhaseStats {
            insts: 100_000,
            l2_misses: 0,
        });
        let heavy = overhead_weight(PhaseStats {
            insts: 100_000,
            l2_misses: 10_000,
        });
        assert!((light - 5.0).abs() < 1e-12);
        assert!(heavy < 1.05 && heavy > 1.0);
    }

    #[test]
    fn phase_ipc_estimate_is_monotone_in_miss_rate() {
        let base = SelectionParams {
            ipc: 0.5,
            ..SelectionParams::default()
        };
        let sample = PhaseStats {
            insts: 20_000,
            l2_misses: 1_000,
        };
        let lo = phase_ipc_estimate(
            &base,
            sample,
            PhaseStats {
                insts: 10_000,
                l2_misses: 10,
            },
        );
        let hi = phase_ipc_estimate(
            &base,
            sample,
            PhaseStats {
                insts: 10_000,
                l2_misses: 2_000,
            },
        );
        assert!(lo > hi);
        assert!(hi >= 0.05 && lo <= base.bw_seq);
        // Lighter-than-sample phases sit above the measured IPC,
        // heavier ones below: the sample anchors the scale.
        assert!(lo > base.ipc && hi < base.ipc);
    }

    #[test]
    fn phase_ipc_estimate_is_exact_on_the_sample_itself() {
        // Equal miss rates — including the whole-trace-as-one-phase
        // case — return the measured IPC bit-for-bit, so the phase-ipc
        // variant ties static instead of drifting on float rounding.
        let base = SelectionParams {
            ipc: 0.731,
            ..SelectionParams::default()
        };
        let sample = PhaseStats {
            insts: 120_000,
            l2_misses: 16_804,
        };
        assert_eq!(
            phase_ipc_estimate(&base, sample, sample).to_bits(),
            base.ipc.to_bits()
        );
        // Same rate at different magnitude counts as equal too.
        let scaled = PhaseStats {
            insts: 30_000,
            l2_misses: 4_201,
        };
        assert_eq!(
            phase_ipc_estimate(&base, sample, scaled).to_bits(),
            base.ipc.to_bits()
        );
    }

    #[test]
    fn chosen_payoff_never_loses_to_static() {
        let forest = miss_forest();
        let base = SelectionParams {
            ipc: 0.5,
            ..SelectionParams::default()
        };
        let sample = PhaseStats {
            insts: 4000,
            l2_misses: 260,
        };
        for phase in [
            PhaseStats {
                insts: 2000,
                l2_misses: 256,
            },
            PhaseStats {
                insts: 2000,
                l2_misses: 4,
            },
        ] {
            let (choice, _, _) =
                try_choose_policy(&forest, &base, sample, phase, Parallelism::serial(), true)
                    .unwrap();
            assert!(
                choice.payoff >= choice.static_payoff,
                "{}: {} < {}",
                choice.name,
                choice.payoff,
                choice.static_payoff
            );
        }
    }

    #[test]
    fn choice_is_thread_count_invariant() {
        let forest = miss_forest();
        let base = SelectionParams {
            ipc: 0.5,
            ..SelectionParams::default()
        };
        let sample = PhaseStats {
            insts: 6000,
            l2_misses: 300,
        };
        let phase = PhaseStats {
            insts: 2000,
            l2_misses: 64,
        };
        let (a, _, _) =
            try_choose_policy(&forest, &base, sample, phase, Parallelism::serial(), true).unwrap();
        let (b, _, _) =
            try_choose_policy(&forest, &base, sample, phase, Parallelism::new(4), false).unwrap();
        assert_eq!(a.index, b.index);
        assert_eq!(format!("{:?}", a.selection), format!("{:?}", b.selection));
        assert_eq!(a.payoff.to_bits(), b.payoff.to_bits());
    }

    #[test]
    fn empty_phase_forest_chooses_static() {
        let forest = SliceForest::from_parts(Vec::new(), Vec::new(), 0);
        let base = SelectionParams {
            ipc: 0.5,
            ..SelectionParams::default()
        };
        let (choice, _, _) = try_choose_policy(
            &forest,
            &base,
            PhaseStats {
                insts: 1000,
                l2_misses: 10,
            },
            PhaseStats::default(),
            Parallelism::serial(),
            true,
        )
        .unwrap();
        assert_eq!(
            choice.index, 0,
            "no misses -> every payoff 0 -> tie keeps static"
        );
        assert!(choice.selection.pthreads.is_empty());
    }
}
