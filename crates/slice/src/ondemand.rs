//! On-demand backward slicing over a checkpointed trace.
//!
//! The [`SliceWindow`](crate::SliceWindow) holds the last *scope* dynamic
//! instructions in memory, which caps the feasible scope: the window's
//! footprint is O(scope) however few slices are ever taken. The on-demand
//! slicer (DESIGN.md §17) inverts the trade: the trace pass records only
//! periodic checkpoints (see [`preexec_func::try_run_trace_checkpointed`]),
//! and when a slice is requested the slicer *re-executes* just the
//! checkpoint intervals the backward traversal actually visits,
//! reconstructing exactly the dependence records the window would have
//! held. Memory is O(checkpoints + a few intervals of detail); scope is
//! bounded only by the recorded trace.
//!
//! Identity with the windowed extractor is structural, not coincidental:
//! both run the crate's one backward-slice traversal over the dependence
//! records they provide, the re-execution runs the same interpreter the
//! recording run used, and the per-interval dependence records replicate
//! [`SliceWindow::push`](crate::SliceWindow::push)'s last-writer updates
//! operation for operation. Dependences that cross an interval boundary
//! are resolved by walking earlier intervals' summaries (final register
//! writers + granule last-writers); producers older than the slicing
//! scope are reported as absent, which the traversal treats identically
//! to the window's out-of-scope filtering.
//!
//! Unlike the windowed forest builder, which walks each traversal
//! straight into its tree, [`OnDemandSlicer::try_slice_at`] materializes
//! the slice as a `Vec<SliceEntry>`; the pipeline inserts it with
//! [`ForestBank::insert`](crate::ForestBank::insert), which runs the
//! same tree walk over the materialized entries.

use crate::window::{granules, EntryView, Traversal, GRANULE_SHIFT};
use crate::{SliceEntry, SliceError};
use preexec_func::{DynInst, Replayer};
use preexec_isa::reg::NUM_REGS;
use preexec_isa::{Inst, Pc};
use std::collections::{HashMap, VecDeque};

/// How many intervals of full per-instruction detail are cached. The
/// traversal visits sequence numbers in descending order, so a small
/// cache behaves like a sliding cursor; the cap (not the scope) bounds
/// resident detail at `DETAIL_CACHE_INTERVALS * checkpoint_every`
/// instructions.
const DETAIL_CACHE_INTERVALS: usize = 4;

/// A register dependence as recorded during interval re-execution.
#[derive(Debug, Clone, Copy)]
enum RawDep {
    /// The source register is absent or `r0`.
    None,
    /// Produced inside the same interval, at this sequence number.
    Seq(u64),
    /// Produced before the interval began: resolve by walking earlier
    /// intervals' final-writer summaries for this register index.
    Before(u8),
}

/// A load's memory dependence as recorded during interval re-execution.
#[derive(Debug, Clone, Copy)]
enum MemRaw {
    /// Not a load.
    None,
    /// The newest store covering the loaded granules is in-interval.
    Local(u64),
    /// No in-interval store covers the granules: resolve by walking
    /// earlier intervals' granule summaries over this granule range.
    Earlier { first: u64, last: u64 },
}

/// One instruction's dependence record within a re-executed interval —
/// what one [`SliceWindow`] ring slot would have held, with
/// cross-interval dependences left symbolic.
#[derive(Debug, Clone, Copy)]
struct DetailEntry {
    pc: Pc,
    inst: Inst,
    reg_deps: [RawDep; 2],
    mem_dep: MemRaw,
}

/// What later intervals need to know about an earlier one: the last
/// in-interval writer of every register, and of every written granule.
struct IntervalSummary {
    reg_writers: [Option<u64>; NUM_REGS],
    granule_writers: HashMap<u64, u64>,
}

/// Extracts backward slices from a checkpointed trace by re-executing
/// only the intervals a slice actually reaches into.
///
/// Slices are byte-identical to
/// [`SliceWindow::slice_latest`](crate::SliceWindow::slice_latest) over the
/// same trace, scope, and `max_slice_len` (pinned by this crate's tests
/// and the pipeline's proptests). Requests may arrive in any order;
/// ascending root order is cheapest because summaries behind the sliding
/// scope floor are evicted as it advances.
pub struct OnDemandSlicer<'a> {
    replayer: Replayer<'a>,
    scope: usize,
    max_slice_len: usize,
    /// LRU of re-executed interval details, most recent first.
    details: VecDeque<(usize, Vec<DetailEntry>)>,
    summaries: HashMap<usize, IntervalSummary>,
    reexec_insts: u64,
    resident_insts: usize,
    peak_resident_insts: usize,
}

impl<'a> OnDemandSlicer<'a> {
    /// Creates a slicer over `replayer`'s recorded trace with the given
    /// slicing `scope` and `max_slice_len` (same meaning as the windowed
    /// extractor's parameters).
    ///
    /// # Errors
    ///
    /// Returns [`SliceError::ZeroScope`] or [`SliceError::ZeroMaxSliceLen`]
    /// when the corresponding parameter is zero.
    pub fn try_new(
        replayer: Replayer<'a>,
        scope: usize,
        max_slice_len: usize,
    ) -> Result<OnDemandSlicer<'a>, SliceError> {
        if scope == 0 {
            return Err(SliceError::ZeroScope);
        }
        if max_slice_len == 0 {
            return Err(SliceError::ZeroMaxSliceLen);
        }
        Ok(OnDemandSlicer {
            replayer,
            scope,
            max_slice_len,
            details: VecDeque::new(),
            summaries: HashMap::new(),
            reexec_insts: 0,
            resident_insts: 0,
            peak_resident_insts: 0,
        })
    }

    /// Total instructions re-executed so far across all interval
    /// materializations (the time cost of on-demand slicing).
    pub fn reexec_insts(&self) -> u64 {
        self.reexec_insts
    }

    /// High-water mark of per-instruction detail entries resident at
    /// once — the O(intervals-cached × checkpoint_every) bound that
    /// replaces the window's O(scope).
    pub fn peak_resident_insts(&self) -> u64 {
        self.peak_resident_insts as u64
    }

    /// Number of checkpoints in the underlying trace.
    pub fn num_checkpoints(&self) -> usize {
        self.replayer.trace().num_checkpoints()
    }

    /// Extracts the backward slice rooted at the emitted instruction
    /// `root_seq`, exactly as
    /// [`SliceWindow::slice_latest`](crate::SliceWindow::slice_latest) would have
    /// at the moment `root_seq` was the newest instruction in a window
    /// of this slicer's scope.
    ///
    /// # Panics
    ///
    /// Panics if `root_seq` is not below the trace's emitted count.
    ///
    /// # Errors
    ///
    /// Returns [`SliceError::Replay`] if re-execution faults (possible
    /// only if the recording run did).
    pub fn try_slice_at(&mut self, root_seq: u64) -> Result<Vec<SliceEntry>, SliceError> {
        let trace = self.replayer.trace();
        assert!(
            root_seq < trace.emitted(),
            "slice root {root_seq} beyond recorded trace ({} emitted)",
            trace.emitted()
        );
        let min_seq = root_seq.saturating_sub(self.scope as u64 - 1);
        let lo = (min_seq / trace.checkpoint_every()) as usize;
        // Records for intervals wholly behind the scope floor can never
        // be consulted again by this or any later (ascending) request.
        self.summaries.retain(|&j, _| j >= lo);
        self.details.retain(|&(j, _)| j >= lo);
        self.resident_insts = self.details.iter().map(|(_, d)| d.len()).sum();
        let mut slice = Traversal::with_capacity(self.max_slice_len);
        slice.run(root_seq, min_seq, self.max_slice_len, |seq| {
            self.entry_view(seq, lo)
        })?;
        Ok(slice.materialize())
    }

    /// The fully resolved dependence record for `seq`, for the traversal.
    fn entry_view(&mut self, seq: u64, lo: usize) -> Result<EntryView, SliceError> {
        let j = (seq / self.replayer.trace().checkpoint_every()) as usize;
        let e = self.detail_entry(j, seq)?;
        let mut reg_deps = [None; 2];
        for (slot, raw) in e.reg_deps.into_iter().enumerate() {
            reg_deps[slot] = match raw {
                RawDep::None => None,
                RawDep::Seq(s) => Some(s),
                RawDep::Before(r) => self.lookback_reg(r as usize, j, lo)?,
            };
        }
        let mem_dep = match e.mem_dep {
            MemRaw::None => None,
            MemRaw::Local(s) => Some(s),
            MemRaw::Earlier { first, last } => self.lookback_mem(first, last, j, lo)?,
        };
        Ok(EntryView {
            pc: e.pc,
            inst: e.inst,
            reg_deps,
            mem_dep,
        })
    }

    /// The newest writer of register index `r` in intervals `lo..from`,
    /// scanning backward from the nearest.
    fn lookback_reg(
        &mut self,
        r: usize,
        from: usize,
        lo: usize,
    ) -> Result<Option<u64>, SliceError> {
        for j in (lo..from).rev() {
            self.ensure_summary(j)?;
            let summary = self.summaries.get(&j).expect("summary just ensured");
            if let Some(s) = summary.reg_writers[r] {
                return Ok(Some(s));
            }
        }
        Ok(None)
    }

    /// The newest store covering any granule in `first..=last` in
    /// intervals `lo..from`. The first interval (scanning backward) with
    /// any covering store holds the newest such store — sequence numbers
    /// in earlier intervals are strictly smaller.
    fn lookback_mem(
        &mut self,
        first: u64,
        last: u64,
        from: usize,
        lo: usize,
    ) -> Result<Option<u64>, SliceError> {
        for j in (lo..from).rev() {
            self.ensure_summary(j)?;
            let summary = self.summaries.get(&j).expect("summary just ensured");
            let hit = (first..=last)
                .filter_map(|g| summary.granule_writers.get(&g).copied())
                .max();
            if hit.is_some() {
                return Ok(hit);
            }
        }
        Ok(None)
    }

    /// The detail entry for `seq` (interval `j`), re-executing the
    /// interval if its detail is not cached.
    fn detail_entry(&mut self, j: usize, seq: u64) -> Result<DetailEntry, SliceError> {
        if !self.details.iter().any(|&(i, _)| i == j) {
            self.materialize(j)?;
        }
        let pos = self
            .details
            .iter()
            .position(|&(i, _)| i == j)
            .expect("interval just materialized");
        if pos != 0 {
            let entry = self.details.remove(pos).expect("position just found");
            self.details.push_front(entry);
        }
        let off = (seq - self.replayer.trace().interval_start(j)) as usize;
        Ok(self.details[0].1[off])
    }

    fn ensure_summary(&mut self, j: usize) -> Result<(), SliceError> {
        if self.summaries.contains_key(&j) {
            return Ok(());
        }
        self.materialize(j)
    }

    /// Re-executes interval `j` from its checkpoint, recording both the
    /// per-instruction detail and the interval summary.
    fn materialize(&mut self, j: usize) -> Result<(), SliceError> {
        let trace = self.replayer.trace();
        let start = trace.interval_start(j);
        let end = trace.interval_end(j);
        let mut detail: Vec<DetailEntry> = Vec::with_capacity((end - start) as usize);
        let mut reg_writers: [Option<u64>; NUM_REGS] = [None; NUM_REGS];
        let mut granule_writers: HashMap<u64, u64> = HashMap::new();
        self.replayer.try_replay(j, |d| {
            detail.push(record(d, &mut reg_writers, &mut granule_writers));
            d.seq + 1 < end
        })?;
        self.reexec_insts += detail.len() as u64;
        self.resident_insts += detail.len();
        self.summaries.entry(j).or_insert(IntervalSummary {
            reg_writers,
            granule_writers,
        });
        self.details.push_front((j, detail));
        while self.details.len() > DETAIL_CACHE_INTERVALS {
            if let Some((_, dropped)) = self.details.pop_back() {
                self.resident_insts -= dropped.len();
            }
        }
        self.peak_resident_insts = self.peak_resident_insts.max(self.resident_insts);
        Ok(())
    }
}

/// Replicates [`SliceWindow::push`]'s last-writer bookkeeping for one
/// instruction, against interval-local maps: sources are read before the
/// destination is recorded (self-referencing instructions depend on the
/// previous producer), and a store's granules are recorded after its own
/// dependences are read.
fn record(
    d: &DynInst,
    reg_writers: &mut [Option<u64>; NUM_REGS],
    granule_writers: &mut HashMap<u64, u64>,
) -> DetailEntry {
    let mut reg_deps = [RawDep::None; 2];
    for (slot, reg) in [d.inst.rs1, d.inst.rs2].into_iter().enumerate() {
        if let Some(r) = reg {
            if !r.is_zero() {
                reg_deps[slot] = match reg_writers[r.index()] {
                    Some(s) => RawDep::Seq(s),
                    None => RawDep::Before(r.index() as u8),
                };
            }
        }
    }
    let mut mem_dep = MemRaw::None;
    if d.inst.op.is_load() {
        let addr = d.addr.expect("load has address");
        let width = d.inst.op.mem_width().expect("load has width");
        mem_dep = match granules(addr, width)
            .filter_map(|g| granule_writers.get(&g).copied())
            .max()
        {
            Some(s) => MemRaw::Local(s),
            None => MemRaw::Earlier {
                first: addr >> GRANULE_SHIFT,
                last: (addr + width as u64 - 1) >> GRANULE_SHIFT,
            },
        };
    }
    if let Some(def) = d.inst.def() {
        reg_writers[def.index()] = Some(d.seq);
    }
    if d.inst.op.is_store() {
        let addr = d.addr.expect("store has address");
        let width = d.inst.op.mem_width().expect("store has width");
        for g in granules(addr, width) {
            granule_writers.insert(g, d.seq);
        }
    }
    DetailEntry {
        pc: d.pc,
        inst: d.inst,
        reg_deps,
        mem_dep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SliceWindow;
    use preexec_func::{try_run_trace_checkpointed, Replayer, Sampling, TraceConfig};
    use preexec_isa::{assemble, Program};

    /// A loop with register induction, same-iteration and cross-iteration
    /// store–load feedback, and multi-granule (word) accesses — every
    /// dependence kind the window tracks. The pointer strides a whole L2
    /// line per iteration, so every iteration's first load is a cold miss.
    fn workload() -> Program {
        assemble(
            "t",
            "li r1, 0x100000\n li r2, 0\n li r3, 400\n li r5, 3\n\
             top: bge r2, r3, done\n\
             ld r4, 0(r1)\n add r5, r5, r4\n sd r5, 8(r1)\n\
             sw r5, 16(r1)\n lw r6, 16(r1)\n add r5, r5, r6\n\
             ld r7, -56(r1)\n add r5, r5, r7\n\
             addi r1, r1, 64\n addi r2, r2, 1\n j top\n\
             done: halt",
        )
        .unwrap()
    }

    /// Slices every L2-miss load both ways and asserts equality.
    fn assert_identical(config: &TraceConfig, scope: usize, max_len: usize, every: u64) {
        let p = workload();
        // Windowed reference: slice at every miss as the trace streams.
        let mut window = SliceWindow::new(scope);
        let mut reference: Vec<(u64, Vec<SliceEntry>)> = Vec::new();
        let mut roots: Vec<u64> = Vec::new();
        let (_, trace) = try_run_trace_checkpointed(&p, config, every, |d| {
            window.push(d);
            if d.is_l2_miss_load() {
                reference.push((d.seq, window.slice_latest(max_len)));
                roots.push(d.seq);
            }
        })
        .unwrap();
        assert!(!roots.is_empty(), "workload must produce misses");
        // On-demand: same roots, from checkpoints.
        let replayer = Replayer::new(&p, config, &trace);
        let mut od = OnDemandSlicer::try_new(replayer, scope, max_len).unwrap();
        for (seq, want) in &reference {
            let got = od.try_slice_at(*seq).unwrap();
            assert_eq!(
                &got, want,
                "slice at seq {seq} (scope {scope}, every {every})"
            );
        }
        assert!(od.reexec_insts() > 0);
    }

    #[test]
    fn matches_windowed_across_scopes_and_cadences() {
        let config = TraceConfig::default();
        for &(scope, every) in &[
            (64, 16),
            (64, 64),
            (64, 256),
            (1024, 32),
            (1024, 4096),
            (7, 3),
        ] {
            assert_identical(&config, scope, 32, every);
        }
    }

    #[test]
    fn matches_windowed_with_tiny_max_len() {
        assert_identical(&TraceConfig::default(), 256, 4, 64);
    }

    #[test]
    fn matches_windowed_under_sampling() {
        let config = TraceConfig {
            sampling: Sampling::new(31, 17, 101),
            ..TraceConfig::default()
        };
        assert_identical(&config, 128, 32, 64);
    }

    #[test]
    fn out_of_order_requests_are_exact() {
        let p = workload();
        let config = TraceConfig::default();
        let mut window = SliceWindow::new(128);
        let mut reference: Vec<(u64, Vec<SliceEntry>)> = Vec::new();
        let (_, trace) = try_run_trace_checkpointed(&p, &config, 32, |d| {
            window.push(d);
            if d.is_l2_miss_load() {
                reference.push((d.seq, window.slice_latest(16)));
            }
        })
        .unwrap();
        let mut od = OnDemandSlicer::try_new(Replayer::new(&p, &config, &trace), 128, 16).unwrap();
        // Descending order: summaries must be rebuilt after eviction.
        for (seq, want) in reference.iter().rev() {
            assert_eq!(&od.try_slice_at(*seq).unwrap(), want, "seq {seq}");
        }
    }

    #[test]
    fn detail_residency_is_bounded_by_cache_not_scope() {
        let p = workload();
        let config = TraceConfig::default();
        let (_, trace) = try_run_trace_checkpointed(&p, &config, 8, |_| {}).unwrap();
        let emitted = trace.emitted();
        // Scope covering the whole trace: the window would hold every
        // instruction; the slicer's residency stays at the cache cap.
        let scope = emitted as usize;
        let mut od =
            OnDemandSlicer::try_new(Replayer::new(&p, &config, &trace), scope, 32).unwrap();
        let _ = od.try_slice_at(emitted - 1).unwrap();
        assert!(
            od.peak_resident_insts() <= (DETAIL_CACHE_INTERVALS as u64) * 8,
            "peak {} exceeds cache bound",
            od.peak_resident_insts()
        );
    }

    #[test]
    fn zero_parameters_rejected() {
        let p = workload();
        let config = TraceConfig::default();
        let (_, trace) = try_run_trace_checkpointed(&p, &config, 64, |_| {}).unwrap();
        assert!(matches!(
            OnDemandSlicer::try_new(Replayer::new(&p, &config, &trace), 0, 32),
            Err(SliceError::ZeroScope)
        ));
        assert!(matches!(
            OnDemandSlicer::try_new(Replayer::new(&p, &config, &trace), 128, 0),
            Err(SliceError::ZeroMaxSliceLen)
        ));
    }
}
