//! The on-demand re-execution slicing contracts (DESIGN.md §17):
//!
//! 1. **Byte identity** — `SlicingMode::OnDemand` produces the same
//!    slice forest bytes, the same trace statistics, and the same final
//!    `PipelineResult` as the windowed path, for any program, any
//!    checkpoint cadence, and any scope. Checkpoints and replay
//!    intervals are an implementation detail; they must never be
//!    observable in the results.
//! 2. **Unbounded scope** — scopes far past anything a resident window
//!    was sized for still run (the bounded-memory half lives in
//!    `tests/ondemand_memory`, where the residency gauge can be read
//!    without cross-test races).
//!
//! The identity half is a property test over randomized pointer-chase
//! programs, cadences, and scopes, so checkpoint boundaries land
//! anywhere relative to warm-up ends, problem loads, and scope edges.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec_experiments::{Pipeline, PipelineConfig, PolicySpec, SlicingMode};
use preexec_isa::{Program, ProgramBuilder, Reg};
use preexec_slice::write_forest;
use preexec_workloads::{suite, InputSet};
use proptest::prelude::*;

/// A randomized pointer-chase kernel with a store/reload side channel so
/// replay must reconstruct dirtied granules: unbounded loop,
/// budget-terminated, footprints past the L2.
fn chase_program(seed: u64, table_pow: u32, stride: u64, filler: u8) -> Program {
    let n = 1u64 << table_pow;
    let stride = stride | 1; // odd ⇒ coprime with a power of two
    let table: Vec<u8> = (0..n)
        .flat_map(|i| ((i + stride) % n).to_le_bytes())
        .collect();
    let base = 0x1000_0000u64;
    let scratch = 0x2000_0000u64;

    let (tbase, cur, addr, acc, s, sp) = (
        Reg::new(1),
        Reg::new(2),
        Reg::new(3),
        Reg::new(4),
        Reg::new(5),
        Reg::new(6),
    );
    let mut b = ProgramBuilder::new("chase");
    b.li(tbase, base as i64);
    b.li(cur, (seed % n) as i64);
    b.li(s, (seed | 1) as i64);
    b.li(sp, scratch as i64);
    b.label("top");
    b.sll(addr, cur, 3);
    b.add(addr, addr, tbase);
    b.ld(cur, 0, addr); // the problem load: serialized pointer chase
    b.sd(acc, 0, sp);
    for k in 0..(filler % 4) {
        match k {
            0 => b.add(acc, acc, cur),
            1 => b.xor(s, s, acc),
            2 => b.mul(s, s, cur),
            _ => b.srl(acc, s, 7),
        };
    }
    b.ld(acc, 0, sp);
    b.j("top");
    b.data(base, table);
    b.build().expect("chase kernel builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On-demand == windowed over random programs, cadences, and scopes:
    /// same forest bytes, same trace stats.
    #[test]
    fn ondemand_equals_windowed_on_random_programs(
        seed in any::<u64>(),
        table_pow in 10u32..14,          // 8 KB .. 64 KB footprint
        stride in 1u64..1024,
        filler in any::<u8>(),
        checkpoint_every in 1u64..3000,  // degenerate 1-inst intervals included
        scope in 1usize..4096,
        budget in 1_000u64..6_000,
    ) {
        let p = chase_program(seed, table_pow, stride, filler);
        let mut cfg = PipelineConfig::paper_default(budget);
        cfg.scope = scope;
        let windowed = Pipeline::new(&p).config(cfg).trace().unwrap();
        let ondemand = Pipeline::new(&p)
            .policy(PolicySpec {
                cfg,
                slicing: SlicingMode::OnDemand { checkpoint_every },
                ..PolicySpec::default()
            })
            .trace()
            .unwrap();
        prop_assert_eq!(write_forest(&ondemand.forest), write_forest(&windowed.forest));
        prop_assert_eq!(
            format!("{:?}", ondemand.stats),
            format!("{:?}", windowed.stats)
        );
    }
}

#[test]
fn ondemand_matches_windowed_on_real_workloads() {
    // The tentpole identity on the integration workloads: on-demand
    // output is byte-identical to the windowed pipeline on vpr.r and
    // mcf. Debug formatting round-trips every f64, so string equality is
    // bitwise equality.
    for name in ["vpr.r", "mcf"] {
        let w = suite()
            .into_iter()
            .find(|w| w.name == name)
            .expect("suite has workload");
        let p = w.build(InputSet::Train);
        let cfg = PipelineConfig::paper_default(30_000);

        let windowed = Pipeline::new(&p).config(cfg).run().expect("windowed run");
        assert!(
            windowed.result.stats.l2_misses > 0,
            "{name}: trivial run proves nothing"
        );
        let ondemand = Pipeline::new(&p)
            .policy(PolicySpec {
                cfg,
                slicing: SlicingMode::OnDemand {
                    checkpoint_every: 1021,
                },
                ..PolicySpec::default()
            })
            .run()
            .expect("ondemand run");
        assert_eq!(
            format!("{:?}", ondemand.result),
            format!("{:?}", windowed.result),
            "{name}: ondemand differs from windowed"
        );
        assert_eq!(
            write_forest(&ondemand.forest),
            write_forest(&windowed.forest),
            "{name}: ondemand forest differs"
        );
    }
}
