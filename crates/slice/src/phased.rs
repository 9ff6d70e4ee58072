//! Phase-partitioned slice-forest construction.
//!
//! The adaptive selection pipeline needs two views of one trace pass:
//! the ordinary *global* forest (so everything downstream of a
//! non-adaptive run — slice files, caches, reports — stays byte-
//! identical), and a *per-phase* forest for each detected program phase
//! so selection can be re-run per phase. [`PhasedForestBuilder`]
//! produces both from a single pass over the trace.
//!
//! One continuous [`SliceWindow`] spans all phases: a slice extracted
//! just after a phase boundary may legitimately reach back into the
//! previous phase (the dependences do not restart), exactly as in the
//! unpartitioned builder. Each extracted slice is therefore computed
//! once and folded into two trees: the global one and the current
//! phase's. The global view is *definitionally* identical to what
//! [`SliceForestBuilder`] builds — same window, same extraction, same
//! insertion order.
//!
//! [`SliceForestBuilder`]: crate::SliceForestBuilder

use crate::{ForestBank, SliceError, SliceForest, SliceWindow};
use preexec_func::DynInst;

/// Builds a global [`SliceForest`] *and* one forest per program phase
/// from a single trace pass. Phases are externally driven: the caller
/// (who runs the phase detector over chunk statistics) calls
/// [`begin_phase`](Self::begin_phase) at each confirmed shift; every
/// observed instruction lands in the most recently begun phase.
#[derive(Debug)]
pub struct PhasedForestBuilder {
    window: SliceWindow,
    max_slice_len: usize,
    global: ForestBank,
    phases: Vec<ForestBank>,
}

impl PhasedForestBuilder {
    /// A builder with the given slicing `scope` and `max_slice_len`,
    /// starting in phase 0.
    ///
    /// # Errors
    ///
    /// Returns [`SliceError::ZeroScope`] or
    /// [`SliceError::ZeroMaxSliceLen`] when the corresponding parameter
    /// is zero.
    pub fn try_new(scope: usize, max_slice_len: usize) -> Result<PhasedForestBuilder, SliceError> {
        if max_slice_len == 0 {
            return Err(SliceError::ZeroMaxSliceLen);
        }
        Ok(PhasedForestBuilder {
            window: SliceWindow::try_new(scope)?,
            max_slice_len,
            global: ForestBank::new(),
            phases: vec![ForestBank::new()],
        })
    }

    /// Number of phases begun so far (≥ 1).
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// Starts a new phase: subsequent observations accumulate into a
    /// fresh per-phase bank. The slicing window is *not* reset.
    pub fn begin_phase(&mut self) {
        self.phases.push(ForestBank::new());
    }

    /// Observes a warm-up instruction: enters the window only (mirrors
    /// [`SliceForestBuilder::observe_warmup`]).
    ///
    /// [`SliceForestBuilder::observe_warmup`]: crate::SliceForestBuilder::observe_warmup
    pub fn observe_warmup(&mut self, d: &DynInst) {
        self.window.push(d);
    }

    /// Observes one traced dynamic instruction, updating the global
    /// bank and the current phase's bank; an L2-miss load extracts one
    /// slice and folds it into both trees.
    pub fn observe(&mut self, d: &DynInst) {
        self.global.count(d.pc);
        // `phases` is never empty (the builder starts in phase 0).
        if let Some(bank) = self.phases.last_mut() {
            bank.count(d.pc);
        }
        self.window.push(d);
        if d.is_l2_miss_load() {
            let slice = self.window.slice_latest(self.max_slice_len);
            self.global.insert(d.pc, d.inst, &slice);
            if let Some(bank) = self.phases.last_mut() {
                bank.insert(d.pc, d.inst, &slice);
            }
        }
    }

    /// Finishes, producing the global forest plus one forest per phase.
    pub fn finish(self) -> PhasedForest {
        PhasedForest {
            global: self.global.finish(),
            phases: self.phases.into_iter().map(ForestBank::finish).collect(),
        }
    }
}

/// The product of a phased trace pass.
#[derive(Debug, Clone)]
pub struct PhasedForest {
    /// The phase-agnostic forest — byte-identical (as serialized by
    /// [`crate::write_forest`]) to a [`crate::SliceForestBuilder`] run
    /// over the same trace.
    pub global: SliceForest,
    /// One forest per phase, in phase order. Instruction counts and
    /// miss counts across the phases partition the global totals.
    pub phases: Vec<SliceForest>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SliceForestBuilder;
    use preexec_func::{run_trace, TraceConfig};
    use preexec_isa::assemble;

    const CHASE: &str = "li r1, 0x100000\n li r2, 0\n li r3, 256\n\
         top: bge r2, r3, done\n ld r4, 0(r1)\n addi r1, r1, 64\n addi r2, r2, 1\n j top\n\
         done: halt";

    #[test]
    fn no_phase_breaks_matches_the_plain_builder_byte_for_byte() {
        let p = assemble("t", CHASE).unwrap();
        let mut plain = SliceForestBuilder::new(1024, 32);
        run_trace(&p, &TraceConfig::default(), |d| plain.observe(d));
        let reference = crate::write_forest(&plain.finish());

        let mut phased = PhasedForestBuilder::try_new(1024, 32).unwrap();
        run_trace(&p, &TraceConfig::default(), |d| phased.observe(d));
        let out = phased.finish();
        assert_eq!(out.phases.len(), 1);
        assert_eq!(crate::write_forest(&out.global), reference);
        assert_eq!(crate::write_forest(&out.phases[0]), reference);
    }

    #[test]
    fn phases_partition_the_global_statistics() {
        let p = assemble("t", CHASE).unwrap();
        let mut b = PhasedForestBuilder::try_new(1024, 32).unwrap();
        let mut fed = 0u64;
        run_trace(&p, &TraceConfig::default(), |d| {
            // Break twice, mid-trace.
            if fed == 300 || fed == 700 {
                b.begin_phase();
            }
            b.observe(d);
            fed += 1;
        });
        let out = b.finish();
        assert_eq!(out.phases.len(), 3);
        let phase_insts: u64 = out.phases.iter().map(SliceForest::sample_insts).sum();
        assert_eq!(phase_insts, out.global.sample_insts());
        let phase_misses: u64 = out.phases.iter().map(SliceForest::total_misses).sum();
        assert_eq!(phase_misses, out.global.total_misses());
        // Per-PC execution counts also partition.
        let load_pc = 4;
        let per_phase: u64 = out.phases.iter().map(|f| f.dc_trig(load_pc)).sum();
        assert_eq!(per_phase, out.global.dc_trig(load_pc));
    }

    #[test]
    fn global_view_is_break_invariant() {
        // However the trace is cut into phases, the global forest must
        // serialize identically — breaks affect only the partition.
        let p = assemble("t", CHASE).unwrap();
        let reference = {
            let mut b = PhasedForestBuilder::try_new(1024, 32).unwrap();
            run_trace(&p, &TraceConfig::default(), |d| b.observe(d));
            crate::write_forest(&b.finish().global)
        };
        let mut b = PhasedForestBuilder::try_new(1024, 32).unwrap();
        let mut fed = 0u64;
        run_trace(&p, &TraceConfig::default(), |d| {
            if fed.is_multiple_of(97) {
                b.begin_phase();
            }
            b.observe(d);
            fed += 1;
        });
        assert_eq!(crate::write_forest(&b.finish().global), reference);
    }

    #[test]
    fn warmup_feeds_the_window_but_no_bank() {
        let p = assemble("t", CHASE).unwrap();
        let mut b = PhasedForestBuilder::try_new(1024, 32).unwrap();
        let mut fed = 0u64;
        run_trace(&p, &TraceConfig::default(), |d| {
            if fed < 100 {
                b.observe_warmup(d);
            } else {
                b.observe(d);
            }
            fed += 1;
        });
        let out = b.finish();
        assert_eq!(out.global.sample_insts(), fed - 100);
        assert_eq!(out.phases[0].sample_insts(), fed - 100);
    }

    #[test]
    fn try_new_returns_typed_errors() {
        assert!(matches!(
            PhasedForestBuilder::try_new(0, 32),
            Err(SliceError::ZeroScope)
        ));
        assert!(matches!(
            PhasedForestBuilder::try_new(1024, 0),
            Err(SliceError::ZeroMaxSliceLen)
        ));
    }
}
