//! Helpers shared by the root test binaries.

#![allow(dead_code)]

pub mod oracle;

use preexec::core::select::score_tree_nodes;
use preexec::core::{candidate_body, optimize_body, SelectionParams};
use preexec::experiments::pipeline::{selection_params, try_sim};
use preexec::experiments::{Pipeline, PipelineConfig};
use preexec::slice::SliceForest;
use preexec::timing::SimMode;
use preexec::workloads::{suite, InputSet};
use std::fmt::Write as _;

/// One kernel on one input: its slice forest at a budget and the
/// selection parameters the pipeline derives from its base run.
pub struct KernelCase {
    /// `kernel/input`, e.g. `mcf/train`.
    pub label: String,
    /// The traced slice forest.
    pub forest: SliceForest,
    /// `selection_params` at the measured base IPC (optimization and
    /// merging on, as the pipeline runs).
    pub params: SelectionParams,
}

/// Every kernel on train, test and alt (30 cases, input-major), traced
/// and base-simulated under `PipelineConfig::paper_default(budget)`.
pub fn kernel_cases(budget: u64) -> Vec<KernelCase> {
    let cfg = PipelineConfig::paper_default(budget);
    let mut out = Vec::new();
    for input in [InputSet::Train, InputSet::Test, InputSet::Alt] {
        for w in suite() {
            let p = w.build(input);
            let arts = Pipeline::new(&p).config(cfg).trace().expect("trace");
            let base = try_sim(&p, &[], &cfg, SimMode::Normal).expect("base run");
            out.push(KernelCase {
                label: format!("{}/{}", w.name, input.name()),
                forest: arts.forest,
                params: selection_params(&cfg, base.ipc()),
            });
        }
    }
    out
}

/// FNV-1a 64 as a `fmt::Write` sink, so long renderings hash without
/// being held in memory. Equal to `preexec::slice::fnv1a64` of the
/// concatenated text.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// The digest of every candidate of every tree of `forest`, in tree and
/// node order: its advantage (`Debug`, which round-trips every `f64`
/// exactly) and its executable (optimized, when `params.optimize`) body,
/// rendered field by field so the digest does not depend on how the body
/// type stores its dependences. A candidate the scorer rejects renders as
/// `none`.
pub fn candidate_digest(forest: &SliceForest, params: &SelectionParams) -> u64 {
    let mut h = Fnv::default();
    for (pc, tree) in forest.trees() {
        let table = score_tree_nodes(tree, &|p| forest.dc_trig(p), params);
        for (node, slot) in table.iter().enumerate().skip(1) {
            match slot {
                None => writeln!(h, "{pc}/{node} none"),
                Some(adv) => {
                    let main = candidate_body(tree, node);
                    let exec = if params.optimize {
                        optimize_body(&main)
                    } else {
                        main
                    };
                    let body = exec.insts();
                    let insts: Vec<_> = body.iter().map(|b| b.inst).collect();
                    let deps: Vec<&[usize]> = body.iter().map(|b| &b.deps[..]).collect();
                    let dists: Vec<f64> = body.iter().map(|b| b.mt_dist).collect();
                    writeln!(h, "{pc}/{node} {adv:?} {insts:?} {deps:?} {dists:?}")
                }
            }
            .expect("hashing cannot fail");
        }
    }
    h.0
}
