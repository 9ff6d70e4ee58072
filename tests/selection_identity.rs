//! Pins every candidate's score on every kernel, not only the selection.
//!
//! For the ten kernels on train, test and alt at a 20 k budget, each
//! constant is the FNV-1a-64 digest of every candidate's advantage and
//! optimized body, in tree and node order, under the selection
//! parameters the pipeline derives from the kernel's base run (see
//! `common::candidate_digest`). At this budget mcf's one tree holds 4 312
//! nodes on train against at most 93 for any other kernel's, so the
//! digests cover the deep, branching tree where scoring costs the most.
//! A change to body construction, the optimizer, SCDH or the advantage
//! arithmetic that moves any bit of any candidate fails here, even when
//! the selection does not move.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

const BUDGET: u64 = 20_000;

/// `(kernel/input, digest)` in `common::kernel_cases` order, recorded
/// before selection stopped keeping a body per candidate.
const PINNED: [(&str, u64); 30] = [
    ("bzip2/train", 0xee82_ca73_3ecb_b693),
    ("crafty/train", 0xf5b5_d94b_4fd9_fc62),
    ("gap/train", 0x39dd_8517_d9a1_a825),
    ("gcc/train", 0x9a18_d0d9_6ac4_24b9),
    ("mcf/train", 0x7c5d_bb98_3c09_d7a2),
    ("parser/train", 0x346d_fb0e_82f5_6f31),
    ("twolf/train", 0xf3bc_1f15_1d88_ad6c),
    ("vortex/train", 0x6dbe_4799_3308_e1b8),
    ("vpr.p/train", 0x0a42_8b0f_20c6_98d6),
    ("vpr.r/train", 0x4582_05b2_5aa3_7ed5),
    ("bzip2/test", 0xf769_d8de_e9e5_0f87),
    ("crafty/test", 0x2a29_843e_9a79_0762),
    ("gap/test", 0xd0c0_4bf7_23e4_0f26),
    ("gcc/test", 0xcbf2_9ce4_8422_2325),
    ("mcf/test", 0x0de6_60e4_3a8b_5531),
    ("parser/test", 0x8ac1_6f84_053c_ae0c),
    ("twolf/test", 0x02f5_f98c_8ec8_a38c),
    ("vortex/test", 0xa016_40e4_e54a_4694),
    ("vpr.p/test", 0x4cb4_2e90_c2d6_b374),
    ("vpr.r/test", 0x4313_3d22_a54d_8ba4),
    ("bzip2/alt", 0x23aa_4b13_8d7d_6319),
    ("crafty/alt", 0x5ec6_b486_5c1f_f93a),
    ("gap/alt", 0x6791_b4fa_3d48_05ae),
    ("gcc/alt", 0x3b07_a22b_9a88_7089),
    ("mcf/alt", 0x417f_8066_4c74_6054),
    ("parser/alt", 0x850f_f119_c3da_8cbc),
    ("twolf/alt", 0xf3bc_1f15_1d88_ad6c),
    ("vortex/alt", 0x3c43_5bb5_a6d5_dce6),
    ("vpr.p/alt", 0x2395_1621_e9c3_5cc4),
    ("vpr.r/alt", 0xe6af_aea6_9ab4_5681),
];

#[test]
fn every_candidate_score_is_pinned() {
    let cases = common::kernel_cases(BUDGET);
    assert_eq!(cases.len(), PINNED.len());
    let mut actual = Vec::new();
    let mut mismatches = Vec::new();
    for (case, (label, want)) in cases.iter().zip(PINNED) {
        assert_eq!(case.label, label);
        let got = common::candidate_digest(&case.forest, &case.params);
        if got != want {
            mismatches.push(format!("{label}: {got:#018x} != pinned {want:#018x}"));
        }
        actual.push(format!("(\"{label}\", {got:#018x}),"));
    }
    // mcf's tree dominates: the digests must cover the case where
    // scoring is expensive.
    let largest = |label: &str| {
        let case = cases.iter().find(|c| c.label == label).unwrap();
        case.forest.trees().map(|(_, t)| t.len()).max().unwrap_or(0)
    };
    for input in ["train", "test", "alt"] {
        let mcf = largest(&format!("mcf/{input}"));
        for case in cases.iter().filter(|c| c.label.ends_with(input)) {
            if !case.label.starts_with("mcf/") {
                let other = largest(&case.label);
                assert!(mcf > 20 * other, "{}: {other} vs mcf {mcf}", case.label);
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{}\nactual digests:\n{}",
        mismatches.join("\n"),
        actual.join("\n")
    );
}
