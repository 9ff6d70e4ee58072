//! Pins the exact text of the paper's tables and figures.
//!
//! Each constant is the FNV-1a-64 digest of one table's or figure's
//! rendered output at a 10 000-instruction budget per kernel, recorded
//! before the tables and figures moved onto the `Pipeline` builder. One
//! is pinned per way of composing the chain: `table1` (a cold trace beside two simulations),
//! `table2` (a pipeline run plus the validation modes), `fig4` (one
//! pipeline run per bar, the shape `fig5`, `fig8` and `width_xval`
//! share), `fig6` (per-region traces of its own) and `fig7` (the
//! cross-input runs). One test each, so they run in parallel.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec::experiments::{figures, tables};
use preexec::slice::fnv1a64;

const BUDGET: u64 = 10_000;

fn assert_digest(name: &str, text: &str, want: u64) {
    let got = fnv1a64(text.as_bytes());
    assert_eq!(
        got, want,
        "{name} at budget {BUDGET} rendered {got:#018x}, pinned {want:#018x}:\n{text}"
    );
}

#[test]
fn table1_is_pinned() {
    let rows = tables::table1(BUDGET).unwrap();
    assert_digest(
        "table1",
        &tables::render_table1(&rows),
        0x6b32_650d_6d31_8642,
    );
}

#[test]
fn table2_is_pinned() {
    let rows = tables::table2(BUDGET).unwrap();
    assert_digest(
        "table2",
        &tables::render_table2(&rows),
        0x53bf_5efe_5738_2ce3,
    );
}

#[test]
fn fig4_is_pinned() {
    let fig = figures::fig4(BUDGET).unwrap();
    assert_digest("fig4", &fig.render(), 0x1e30_ea57_d4d8_1e68);
}

#[test]
fn fig6_is_pinned() {
    let fig = figures::fig6(BUDGET).unwrap();
    assert_digest("fig6", &fig.render(), 0x94b1_9623_967d_9c3f);
}

#[test]
fn fig7_is_pinned() {
    let fig = figures::fig7(BUDGET).unwrap();
    assert_digest("fig7", &fig.render(), 0xf6d8_18e7_03fb_1524);
}
