//! Pins the timing simulator's exact output beyond `SimMode::Normal`.
//!
//! For bzip2, mcf, vpr.r and gap on the train input at a 20 k budget, the
//! p-threads that `Pipeline::run` selects are simulated under every
//! `SimMode`, on a perfect-L2 base run, on a 4-wide machine, at 140-cycle
//! memory latency, and under a cycle watchdog small enough to time out.
//! Each constant is the FNV-1a-64 digest of `format!("{:?}", SimResult)`
//! (cycles, retirement, launch, squash and memory statistics), so a
//! change to the simulator's bookkeeping that moves any field of any of
//! these runs fails here.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec::core::StaticPThread;
use preexec::experiments::{Pipeline, PipelineConfig};
use preexec::isa::Program;
use preexec::slice::fnv1a64;
use preexec::timing::{simulate, MachineParams, SimConfig, SimMode, SimResult};
use preexec::workloads::{by_name, InputSet};

const BUDGET: u64 = 20_000;

/// The cycle cap of the watchdog run: well short of any kernel draining
/// its budget.
const WATCHDOG_CYCLES: u64 = 5_000;

/// The run labels, in the order of each kernel's digest row.
const RUNS: [&str; 9] = [
    "base",
    "normal",
    "overhead_execute",
    "overhead_sequence",
    "latency_tolerance_only",
    "base_perfect_l2",
    "width4",
    "mem_latency140",
    "watchdog",
];

/// `(kernel, digests in RUNS order)`. The bzip2, mcf and vpr.r rows were
/// recorded before the simulator's bookkeeping was rewritten without
/// hashing; the gap row before guest memory stopped copying the data
/// segments. gap is the one kernel here that stores (2 013 stores in its
/// base run), so its row pins the store queue, store-to-load forwarding
/// and the written granules of guest memory.
const PINNED: [(&str, [u64; 9]); 4] = [
    (
        "bzip2",
        [
            0xdfee_925b_9d14_d88a,
            0xd856_dd10_90fa_356e,
            0xd96e_e4ba_e0ca_70f5,
            0x428e_4448_7853_5781,
            0xd856_dd10_90fa_356e,
            0xd714_51c1_efe8_c827,
            0x54ce_98ec_d684_47f4,
            0x1460_39ef_0c87_7571,
            0xc078_2318_861b_ad4d,
        ],
    ),
    (
        "mcf",
        [
            0x0154_1a3c_6791_9814,
            0x17ea_50de_b245_b205,
            0x0bfa_7f46_aecb_42d9,
            0xe034_6f47_ee80_67aa,
            0x2db9_369d_17d9_f5d8,
            0xb3f7_f122_db71_7d26,
            0x9965_9702_fce2_6d91,
            0x70c0_8b55_6495_db4b,
            0x683e_cc5c_52aa_c0c2,
        ],
    ),
    (
        "vpr.r",
        [
            0x29e7_c584_f3dd_4dbb,
            0x4d49_2148_8e82_2d9b,
            0xcd5e_4eb1_b1bd_dbbf,
            0xba78_5557_59c4_f259,
            0x933f_e8ed_7a14_503f,
            0x4d02_79bd_f1f2_0ea0,
            0xd31d_b41e_80ea_32ca,
            0x409a_3091_7cd1_d508,
            0x0fc0_bfea_904b_2cba,
        ],
    ),
    (
        "gap",
        [
            0x284d_55db_f29f_92b8,
            0x8c31_ead4_c872_b403,
            0xecf2_081a_cb3f_65ce,
            0xe3b0_a215_0b18_8a2b,
            0x8c31_ead4_c872_b403,
            0x0ac4_274a_82a0_766e,
            0x4f88_eadb_eb9c_e749,
            0xa375_5bab_3997_d422,
            0xfc11_f0e6_37ab_1ee7,
        ],
    ),
];

/// The `SimConfig` the pipeline uses at `BUDGET`, with the run's knobs.
fn config(machine: MachineParams, mode: SimMode, perfect_l2: bool) -> SimConfig {
    SimConfig {
        machine,
        mode,
        perfect_l2,
        max_insts: BUDGET,
        max_cycles: BUDGET.saturating_mul(64).max(1 << 22),
        ..SimConfig::default()
    }
}

/// Every pinned run of one kernel, in `RUNS` order.
fn runs(p: &Program, pts: &[StaticPThread]) -> Vec<SimResult> {
    let m = MachineParams::paper_default();
    let mut out = vec![
        simulate(p, &[], &config(m, SimMode::Normal, false)),
        simulate(p, pts, &config(m, SimMode::Normal, false)),
        simulate(p, pts, &config(m, SimMode::OverheadExecute, false)),
        simulate(p, pts, &config(m, SimMode::OverheadSequence, false)),
        simulate(p, pts, &config(m, SimMode::LatencyToleranceOnly, false)),
        simulate(p, &[], &config(m, SimMode::Normal, true)),
        simulate(p, pts, &config(m.with_width(4), SimMode::Normal, false)),
        simulate(
            p,
            pts,
            &config(m.with_mem_latency(140), SimMode::Normal, false),
        ),
    ];
    let watchdog = SimConfig {
        max_cycles: WATCHDOG_CYCLES,
        ..config(m, SimMode::Normal, false)
    };
    out.push(simulate(p, pts, &watchdog));
    out
}

#[test]
fn sim_results_are_pinned_in_every_mode() {
    let mut actual = Vec::new();
    let mut mismatches = Vec::new();
    for (name, want) in PINNED {
        let p = by_name(name).unwrap().build(InputSet::Train);
        let out = Pipeline::new(&p)
            .config(PipelineConfig::paper_default(BUDGET))
            .run()
            .unwrap();
        let pts = &out.result.selection.pthreads;
        assert!(
            !pts.is_empty(),
            "{name}: the pipeline selected no p-threads"
        );

        let results = runs(&p, pts);
        // The pinned base and normal runs are the pipeline's own two
        // simulations.
        assert_eq!(
            format!("{:?}", results[0]),
            format!("{:?}", out.result.base),
            "{name}"
        );
        assert_eq!(
            format!("{:?}", results[1]),
            format!("{:?}", out.result.assisted),
            "{name}"
        );
        let watchdog = &results[8];
        assert!(watchdog.timed_out, "{name}: the watchdog run drained");
        assert_eq!(watchdog.cycles, WATCHDOG_CYCLES, "{name}");

        let got: Vec<u64> = results
            .iter()
            .map(|r| fnv1a64(format!("{r:?}").as_bytes()))
            .collect();
        for ((run, &g), &w) in RUNS.iter().zip(&got).zip(&want) {
            if g != w {
                mismatches.push(format!("{name}/{run}: {g:#018x} != pinned {w:#018x}"));
            }
        }
        actual.push(format!("(\"{name}\", {got:#018x?})"));
    }
    assert!(
        mismatches.is_empty(),
        "{}\nactual digests:\n{}",
        mismatches.join("\n"),
        actual.join(",\n")
    );
}
