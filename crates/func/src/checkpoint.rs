//! Periodic lightweight checkpoints of a trace run.
//!
//! The on-demand slicing mode (DESIGN.md §17) replaces the O(scope)
//! slicing window with O(checkpoint + chunk) state: during the trace,
//! [`try_run_trace_checkpointed`] snapshots the architectural state every
//! `checkpoint_every` *emitted* instructions — registers + PC, the 8-byte
//! granules stores dirtied since the previous snapshot, the cache
//! hierarchy, and the statistics counters. A snapshot is everything
//! [`crate::replay`] needs to re-execute the trace deterministically from
//! that point, which is how dynamic slices are reconstructed on demand
//! instead of being held in memory for the whole trace.
//!
//! Checkpoints are aligned to emitted-instruction counts (`seq` space),
//! so checkpoint `i` is taken immediately before the instruction with
//! `seq == i * checkpoint_every` executes, and the replay of interval
//! `i` reproduces exactly the emitted instructions
//! `[i * checkpoint_every, (i + 1) * checkpoint_every)`.

use crate::tracer::{run_trace_loop, TraceState};
use crate::{Cpu, DynInst, ExecError, RunStats, TraceConfig};
use preexec_mem::{FuncHierarchy, MemBus, Memory, MEM_GRANULE_SHIFT};

/// Bytes in a granule, the unit a checkpoint records stores at: 8, the
/// widest access, as in [`Memory`].
pub(crate) const GRANULE_BYTES: usize = 1 << MEM_GRANULE_SHIFT;

/// One recorded granule: its index (`addr >> 3`) and its bytes.
pub(crate) type Granule = (u64, [u8; GRANULE_BYTES]);

/// A [`Memory`] wrapper that records which granules have been written
/// since the last checkpoint. Reads delegate untouched; the list is
/// drained at every snapshot.
struct TrackedMem<'p> {
    mem: Memory<'p>,
    /// Granule indices stored to since the last snapshot, unsorted and
    /// possibly repeated.
    dirty: Vec<u64>,
}

impl<'p> TrackedMem<'p> {
    fn new(mem: Memory<'p>) -> TrackedMem<'p> {
        TrackedMem {
            mem,
            dirty: Vec::new(),
        }
    }

    /// Marks the granules of a `width`-byte store at `addr`: one, or two
    /// when the store straddles a granule edge. Addresses wrap at 2^64,
    /// as in [`Memory`].
    #[inline]
    fn mark(&mut self, addr: u64, width: u64) {
        let first = addr >> MEM_GRANULE_SHIFT;
        let last = addr.wrapping_add(width - 1) >> MEM_GRANULE_SHIFT;
        self.dirty.push(first);
        if last != first {
            self.dirty.push(last);
        }
    }

    /// Snapshots every dirtied granule's current bytes, sorted by granule
    /// index, and clears the list.
    fn take_dirty(&mut self) -> Vec<Granule> {
        self.dirty.sort_unstable();
        self.dirty.dedup();
        let granules = self
            .dirty
            .iter()
            .map(|&g| (g, self.mem.read_u64(g << MEM_GRANULE_SHIFT).to_le_bytes()))
            .collect();
        self.dirty.clear();
        granules
    }
}

impl MemBus for TrackedMem<'_> {
    #[inline]
    fn read_u8(&self, addr: u64) -> u8 {
        self.mem.read_u8(addr)
    }
    #[inline]
    fn read_u32(&self, addr: u64) -> u32 {
        self.mem.read_u32(addr)
    }
    #[inline]
    fn read_u64(&self, addr: u64) -> u64 {
        self.mem.read_u64(addr)
    }
    #[inline]
    fn write_u8(&mut self, addr: u64, value: u8) {
        self.mark(addr, 1);
        self.mem.write_u8(addr, value);
    }
    #[inline]
    fn write_u32(&mut self, addr: u64, value: u32) {
        self.mark(addr, 4);
        self.mem.write_u32(addr, value);
    }
    #[inline]
    fn write_u64(&mut self, addr: u64, value: u64) {
        self.mark(addr, 8);
        self.mem.write_u64(addr, value);
    }
}

/// One snapshot of the trace state, taken immediately before the
/// instruction with `seq == emitted` executed.
pub struct Checkpoint {
    /// Emitted instructions when the snapshot was taken — the `seq` of
    /// the first instruction a replay from here emits.
    pub emitted: u64,
    /// Architectural steps when taken.
    pub total_steps: u64,
    pub(crate) cpu: Cpu,
    pub(crate) hierarchy: FuncHierarchy,
    pub(crate) stats: RunStats,
    /// Granules stored to since the previous checkpoint, bytes as of
    /// this one, sorted by granule index.
    pub(crate) granules: Vec<Granule>,
}

impl Checkpoint {
    /// Bytes of memory payload held: eight per granule stored to in the
    /// preceding interval.
    pub fn bytes_held(&self) -> usize {
        self.granules.len() * GRANULE_BYTES
    }
}

/// The checkpoint record of one trace run: the snapshot cadence, the
/// total emitted-instruction count, and one [`Checkpoint`] per
/// `checkpoint_every` emitted instructions (the first at `seq` 0).
pub struct CheckpointTrace {
    checkpoint_every: u64,
    emitted: u64,
    checkpoints: Vec<Checkpoint>,
}

impl CheckpointTrace {
    /// The snapshot cadence in emitted instructions.
    pub fn checkpoint_every(&self) -> u64 {
        self.checkpoint_every
    }

    /// Total instructions the recorded run emitted.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Number of checkpoints recorded.
    pub fn num_checkpoints(&self) -> usize {
        self.checkpoints.len()
    }

    /// The checkpoint interval containing `seq` — also the index of the
    /// checkpoint a replay reconstructing `seq` starts from. `seq` must
    /// be below [`emitted`](Self::emitted).
    pub fn interval_of(&self, seq: u64) -> usize {
        ((seq / self.checkpoint_every) as usize).min(self.checkpoints.len().saturating_sub(1))
    }

    /// First emitted `seq` of checkpoint interval `idx`.
    pub fn interval_start(&self, idx: usize) -> u64 {
        idx as u64 * self.checkpoint_every
    }

    /// One-past-the-last emitted `seq` of checkpoint interval `idx`.
    pub fn interval_end(&self, idx: usize) -> u64 {
        (self.interval_start(idx) + self.checkpoint_every).min(self.emitted)
    }

    pub(crate) fn checkpoint(&self, idx: usize) -> &Checkpoint {
        &self.checkpoints[idx]
    }

    /// Total bytes of granule payload across all checkpoints.
    pub fn bytes_held(&self) -> usize {
        self.checkpoints.iter().map(Checkpoint::bytes_held).sum()
    }
}

/// [`crate::try_run_trace`] plus checkpoint recording: emits the same
/// [`DynInst`] stream and returns the same [`RunStats`], and additionally
/// returns a [`CheckpointTrace`] from which any part of the run can be
/// re-executed deterministically (see [`crate::replay`]).
///
/// `checkpoint_every` is clamped to at least 1. The initial data-segment
/// image is *not* recorded (the replayer reads it from the program), so
/// snapshots hold only the granules the program itself stored to.
///
/// # Errors
///
/// Same as [`crate::try_run_trace`].
pub fn try_run_trace_checkpointed(
    program: &preexec_isa::Program,
    config: &TraceConfig,
    checkpoint_every: u64,
    mut sink: impl FnMut(&DynInst),
) -> Result<(RunStats, CheckpointTrace), ExecError> {
    let every = checkpoint_every.max(1);
    let mut state = TraceState {
        cpu: Cpu::new(program),
        mem: TrackedMem::new(Memory::from_program(program)),
        hierarchy: FuncHierarchy::new(config.hierarchy),
        stats: RunStats::new(),
        emitted: 0,
    };
    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    run_trace_loop(
        program,
        config,
        &mut state,
        |st| {
            // Snapshot at the first loop-top where the *next* emitted
            // instruction opens a new interval (off/warm steps in between
            // re-enter with the same `emitted` but `len` has advanced).
            if checkpoints.len() as u64 * every == st.emitted {
                checkpoints.push(Checkpoint {
                    emitted: st.emitted,
                    total_steps: st.stats.total_steps,
                    cpu: st.cpu.clone(),
                    hierarchy: st.hierarchy.clone(),
                    stats: st.stats.clone(),
                    granules: st.mem.take_dirty(),
                });
            }
        },
        |d| {
            sink(d);
            true
        },
    )?;
    Ok((
        state.stats,
        CheckpointTrace {
            checkpoint_every: every,
            emitted: state.emitted,
            checkpoints,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::try_run_trace;
    use preexec_isa::assemble;

    fn chase() -> preexec_isa::Program {
        assemble(
            "t",
            "li r1, 0x100000\n li r2, 0\n li r3, 512\n\
             top: bge r2, r3, done\n\
             ld r4, 0(r1)\n sd r2, 8(r1)\n addi r1, r1, 64\n addi r2, r2, 1\n j top\n\
             done: halt",
        )
        .unwrap()
    }

    #[test]
    fn checkpointed_run_matches_plain_trace() {
        let p = chase();
        let config = TraceConfig::default();
        let mut plain: Vec<String> = Vec::new();
        let s1 = try_run_trace(&p, &config, |d| plain.push(format!("{d:?}"))).unwrap();
        let mut ck: Vec<String> = Vec::new();
        let (s2, trace) =
            try_run_trace_checkpointed(&p, &config, 128, |d| ck.push(format!("{d:?}"))).unwrap();
        assert_eq!(plain, ck);
        assert_eq!(format!("{s1:?}"), format!("{s2:?}"));
        assert_eq!(trace.emitted(), plain.len() as u64);
        // One checkpoint per opened 128-instruction interval.
        assert_eq!(
            trace.num_checkpoints() as u64,
            trace.emitted().div_ceil(128)
        );
    }

    #[test]
    fn checkpoints_align_to_cadence() {
        let p = chase();
        let (_, trace) =
            try_run_trace_checkpointed(&p, &TraceConfig::default(), 100, |_| {}).unwrap();
        for i in 0..trace.num_checkpoints() {
            assert_eq!(trace.checkpoint(i).emitted, i as u64 * 100);
            assert_eq!(trace.interval_start(i), i as u64 * 100);
            assert!(trace.interval_end(i) <= trace.emitted());
        }
        assert_eq!(trace.interval_of(0), 0);
        assert_eq!(trace.interval_of(99), 0);
        assert_eq!(trace.interval_of(100), 1);
    }

    #[test]
    fn zero_cadence_is_clamped() {
        let p = chase();
        let (_, trace) =
            try_run_trace_checkpointed(&p, &TraceConfig::default(), 0, |_| {}).unwrap();
        assert_eq!(trace.checkpoint_every(), 1);
    }

    #[test]
    fn snapshots_record_only_dirtied_granules() {
        let p = chase();
        let (_, trace) =
            try_run_trace_checkpointed(&p, &TraceConfig::default(), 512, |_| {}).unwrap();
        // One aligned 8-byte store per 6-instruction iteration: an
        // interval of 512 instructions dirties at most 86 granules.
        for i in 0..trace.num_checkpoints() {
            let granules = &trace.checkpoint(i).granules;
            assert!(granules.len() <= 86, "checkpoint {i}: {}", granules.len());
            assert!(granules.windows(2).all(|w| w[0].0 < w[1].0));
        }
        assert_eq!(trace.bytes_held(), 512 * GRANULE_BYTES);
    }

    #[test]
    fn scattered_stores_hold_under_a_megabyte_of_checkpoints() {
        // gap's pattern on train: one 8-byte store into each of 15 000
        // shuffled 32-byte objects of an 8 MB arena, at the pipeline's
        // cadence of 4 096. An interval's 683 stores land in about 580
        // distinct pages, and a copy of each dirtied page held 50 MB.
        const OBJECTS: u64 = 256 * 1024;
        const STORES: usize = 15_000;
        let (arena, list) = (0x100_0000u64, 0x4000_0000u64);
        let mut objects: Vec<u64> = (0..OBJECTS).collect();
        let mut x = 0x6761_7000u64;
        for i in (1..objects.len()).rev() {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            objects.swap(i, (x >> 33) as usize % (i + 1));
        }
        let mut p = assemble(
            "t",
            &format!(
                "li r1, {list}\n li r2, {arena}\n li r3, 0\n li r6, {STORES}\n\
                 top: ld r4, 0(r1)\n add r5, r4, r2\n sd r3, 16(r5)\n\
                 addi r1, r1, 8\n addi r3, r3, 1\n blt r3, r6, top\n halt"
            ),
        )
        .unwrap();
        p.add_data(arena, vec![0x5a; (OBJECTS * 32) as usize]);
        p.add_data(
            list,
            objects[..STORES]
                .iter()
                .flat_map(|o| (o * 32).to_le_bytes())
                .collect(),
        );
        let (stats, trace) =
            try_run_trace_checkpointed(&p, &TraceConfig::default(), 4096, |_| {}).unwrap();
        assert_eq!(stats.insts, 4 + 6 * STORES as u64 + 1);
        assert_eq!(trace.num_checkpoints(), 22);
        // Each store before the last checkpoint (store `i` is emitted at
        // `seq` 6 + 6i) wrote a granule of its own, recorded once.
        let recorded = (0..STORES).filter(|i| 6 + 6 * i < 21 * 4096).count();
        assert_eq!(trace.bytes_held(), recorded * GRANULE_BYTES);
        assert!(trace.bytes_held() < 1 << 20, "{} bytes", trace.bytes_held());
    }
}
