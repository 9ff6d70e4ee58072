//! Pins phase-adaptive selection where it pays: bzip2 and twolf on the
//! test input at `threshold_permille = 25`, `min_phase_chunks = 2` and a
//! 200 k budget. On both, some phase's policy diverges from the static
//! choice and the adaptive selection runs faster in the assisted timing
//! simulation than the static one — the measured reason adaptive
//! selection exists.
//!
//! The constants are FNV-1a-64 digests of the `Debug` text of the
//! `PipelineResult` and of the `AdaptiveReport` (`Debug` round-trips
//! every `f64` exactly) and of the `write_forest` bytes, so any change to
//! the trace path, the phase detector or the chooser that moves a result
//! shows up here.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec::experiments::{AdaptiveConfig, Pipeline, PipelineConfig, PolicySpec};
use preexec::slice::write_forest;
use preexec::workloads::{by_name, InputSet};

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(kernel, Debug(result), Debug(adaptive report), forest bytes)`.
const PINNED: [(&str, u64, u64, u64); 2] = [
    (
        "bzip2",
        0x2372_11e0_0490_d243,
        0x2265_5a49_0d16_bd7b,
        0xc50d_bb51_bad6_d428,
    ),
    (
        "twolf",
        0xf848_f9d7_4e9d_353f,
        0x055a_278d_d18c_ea6b,
        0x43c3_448b_dcce_5397,
    ),
];

#[test]
fn adaptive_results_are_pinned_and_beat_static_in_the_timing_sim() {
    let cfg = PipelineConfig::paper_default(200_000);
    let adaptive = AdaptiveConfig {
        enabled: true,
        threshold_permille: 25,
        min_phase_chunks: 2,
        ..AdaptiveConfig::default()
    };
    for (name, result, report, forest) in PINNED {
        let p = by_name(name).unwrap().build(InputSet::Test);
        let out = Pipeline::new(&p)
            .policy(PolicySpec {
                cfg,
                adaptive,
                ..PolicySpec::default()
            })
            .run()
            .unwrap();
        assert_eq!(
            fnv1a64(format!("{:?}", out.result).as_bytes()),
            result,
            "{name}: result"
        );
        assert_eq!(
            fnv1a64(format!("{:?}", out.adaptive).as_bytes()),
            report,
            "{name}: report"
        );
        assert_eq!(
            fnv1a64(write_forest(&out.forest).as_bytes()),
            forest,
            "{name}: forest"
        );
        let divergent = out.adaptive.as_ref().map_or(0, |r| r.divergent_phases);
        assert!(divergent > 0, "{name}: no phase diverged from static");

        // The static pipeline, finished from the adaptive run's global
        // forest (byte-identical to a windowed trace).
        let fixed = Pipeline::new(&p)
            .config(cfg)
            .artifacts(out.forest.clone(), out.result.stats.clone())
            .run()
            .unwrap();
        let (a, s) = (out.result.assisted.ipc(), fixed.result.assisted.ipc());
        assert!(
            a > s,
            "{name}: adaptive assisted IPC {a} not above static {s}"
        );
    }
}
