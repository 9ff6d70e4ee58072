//! Deterministic re-execution from a [`Checkpoint`](crate::CheckpointTrace).
//!
//! A [`Replayer`] owns a program, its trace configuration, the
//! [`CheckpointTrace`] recorded by
//! [`try_run_trace_checkpointed`](crate::try_run_trace_checkpointed), and
//! the program's *initial* memory image (data segments only). To replay
//! from checkpoint `i` it seeds the shared trace loop with clones of the
//! snapshot's CPU, hierarchy, and statistics, and runs against a
//! copy-on-write `ReplayMemory` whose reads resolve, newest first,
//! through: pages written during this replay, then the dirty-page records
//! of checkpoints `i, i-1, …, 0`, then the initial image. Because the
//! interpreter, the cache model, and the loop driving them are the very
//! same code the recording run executed, the replay emits byte-identical
//! [`DynInst`]s — determinism is by construction, not by a parallel
//! implementation kept in sync.

use crate::checkpoint::CheckpointTrace;
use crate::tracer::{run_trace_loop, TraceState};
use crate::{DynInst, ExecError, RunStats, TraceConfig};
use preexec_isa::Program;
use preexec_mem::{MemBus, Memory, MEM_PAGE_SHIFT, MEM_PAGE_SIZE};
use std::collections::HashMap;

const PAGE_MASK: u64 = (MEM_PAGE_SIZE - 1) as u64;

/// Copy-on-write memory view for a replay starting at checkpoint
/// `ckpt_idx`: reads fall through overlay → checkpoint dirty-page records
/// (newest not after `ckpt_idx` wins) → initial data-segment image; writes
/// go to an overlay page seeded from that same resolution.
struct ReplayMemory<'a> {
    trace: &'a CheckpointTrace,
    initial: &'a Memory,
    ckpt_idx: usize,
    overlay: HashMap<u64, Box<[u8; MEM_PAGE_SIZE]>>,
}

impl<'a> ReplayMemory<'a> {
    fn new(trace: &'a CheckpointTrace, initial: &'a Memory, ckpt_idx: usize) -> ReplayMemory<'a> {
        ReplayMemory {
            trace,
            initial,
            ckpt_idx,
            overlay: HashMap::new(),
        }
    }

    /// The page content as of checkpoint `ckpt_idx`, ignoring the overlay.
    /// Checkpoint `j` records a page only if it was dirtied in interval
    /// `j-1..j`, so the newest record at or before `ckpt_idx` is the
    /// content at the snapshot instant.
    fn base_page(&self, page: u64) -> Option<&'a [u8; MEM_PAGE_SIZE]> {
        for j in (0..=self.ckpt_idx).rev() {
            if let Some(bytes) = self.trace.checkpoint(j).page(page) {
                return Some(bytes);
            }
        }
        self.initial.page_bytes(page)
    }

    #[inline]
    fn byte(&self, addr: u64) -> u8 {
        let page = addr >> MEM_PAGE_SHIFT;
        let off = (addr & PAGE_MASK) as usize;
        if let Some(p) = self.overlay.get(&page) {
            return p[off];
        }
        self.base_page(page).map_or(0, |p| p[off])
    }

    fn overlay_page(&mut self, addr: u64) -> &mut [u8; MEM_PAGE_SIZE] {
        let page = addr >> MEM_PAGE_SHIFT;
        if !self.overlay.contains_key(&page) {
            let seeded = match self.base_page(page) {
                Some(bytes) => Box::new(*bytes),
                None => Box::new([0u8; MEM_PAGE_SIZE]),
            };
            self.overlay.insert(page, seeded);
        }
        self.overlay
            .get_mut(&page)
            .expect("overlay page just inserted")
    }

    fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        for (i, b) in out.iter_mut().enumerate() {
            *b = self.byte(addr.wrapping_add(i as u64));
        }
        out
    }

    fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            let a = addr.wrapping_add(i as u64);
            self.overlay_page(a)[(a & PAGE_MASK) as usize] = b;
        }
    }
}

impl MemBus for ReplayMemory<'_> {
    #[inline]
    fn read_u8(&self, addr: u64) -> u8 {
        self.byte(addr)
    }
    #[inline]
    fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes::<4>(addr))
    }
    #[inline]
    fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes::<8>(addr))
    }
    #[inline]
    fn write_u8(&mut self, addr: u64, value: u8) {
        self.write_bytes(addr, &[value]);
    }
    #[inline]
    fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }
    #[inline]
    fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }
}

/// Deterministic re-executor over a recorded [`CheckpointTrace`].
///
/// # Example
///
/// ```
/// use preexec_func::{try_run_trace_checkpointed, Replayer, TraceConfig};
/// use preexec_isa::assemble;
///
/// let p = assemble(
///     "t",
///     "li r1, 0x1000\nli r2, 9\nsd r2, 0(r1)\nld r3, 0(r1)\nadd r4, r3, r3\nhalt",
/// )
/// .unwrap();
/// let config = TraceConfig::default();
/// let (stats, trace) = try_run_trace_checkpointed(&p, &config, 2, |_| {}).unwrap();
/// let replayer = Replayer::new(&p, &config, &trace);
/// // Replaying from any checkpoint reconstructs the identical suffix.
/// let replayed = replayer.try_replay(1, |_| true).unwrap();
/// assert_eq!(format!("{stats:?}"), format!("{replayed:?}"));
/// ```
pub struct Replayer<'a> {
    program: &'a Program,
    config: &'a TraceConfig,
    trace: &'a CheckpointTrace,
    /// The pre-run memory image (data segments), built once.
    initial: Memory,
}

impl<'a> Replayer<'a> {
    /// Builds a replayer for `trace`, reconstructing the initial
    /// data-segment image from `program`. `program` and `config` must be
    /// the ones the recording run used — the trace stores neither.
    pub fn new(
        program: &'a Program,
        config: &'a TraceConfig,
        trace: &'a CheckpointTrace,
    ) -> Replayer<'a> {
        let mut initial = Memory::new();
        for seg in program.data_segments() {
            initial.write_slice(seg.base, &seg.bytes);
        }
        Replayer {
            program,
            config,
            trace,
            initial,
        }
    }

    /// The trace being replayed.
    pub fn trace(&self) -> &'a CheckpointTrace {
        self.trace
    }

    /// Re-executes from checkpoint `from_ckpt`, feeding every re-emitted
    /// [`DynInst`] (starting at `seq == from_ckpt * checkpoint_every`) to
    /// `sink` until the run ends or `sink` returns `false`. Returns the
    /// accumulated [`RunStats`] — identical to the recording run's if
    /// replayed to completion.
    ///
    /// # Panics
    ///
    /// Panics if `from_ckpt` is out of range.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Malformed`] only if the recording run did —
    /// replay executes the same instruction stream.
    pub fn try_replay(
        &self,
        from_ckpt: usize,
        mut sink: impl FnMut(&DynInst) -> bool,
    ) -> Result<RunStats, ExecError> {
        let ckpt = self.trace.checkpoint(from_ckpt);
        let mut state = TraceState {
            cpu: ckpt.cpu.clone(),
            mem: ReplayMemory::new(self.trace, &self.initial, from_ckpt),
            hierarchy: ckpt.hierarchy.clone(),
            stats: ckpt.stats.clone(),
            emitted: ckpt.emitted,
        };
        run_trace_loop(self.program, self.config, &mut state, |_| {}, |d| sink(d))?;
        Ok(state.stats)
    }

    /// Instructions replayed by a full [`try_replay`](Self::try_replay)
    /// from `from_ckpt` (used by callers to pick the cheapest checkpoint).
    pub fn tail_len(&self, from_ckpt: usize) -> u64 {
        self.trace.emitted() - self.trace.checkpoint(from_ckpt).emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_run_trace, try_run_trace_checkpointed, Sampling};
    use preexec_isa::assemble;

    /// A store-then-reload loop whose values depend on earlier stores, so
    /// any memory-reconstruction bug changes the emitted `result`s.
    fn feedback_loop() -> Program {
        assemble(
            "t",
            "li r1, 0x100000\n li r2, 0\n li r3, 300\n li r5, 1\n\
             top: bge r2, r3, done\n\
             ld r4, 0(r1)\n add r5, r5, r4\n sd r5, 8(r1)\n\
             addi r1, r1, 8\n addi r2, r2, 1\n j top\n\
             done: halt",
        )
        .unwrap()
    }

    fn record(config: &TraceConfig, every: u64) -> (Vec<String>, RunStats, CheckpointTrace) {
        let p = feedback_loop();
        let mut emitted = Vec::new();
        let (stats, trace) =
            try_run_trace_checkpointed(&p, config, every, |d| emitted.push(format!("{d:?}")))
                .unwrap();
        (emitted, stats, trace)
    }

    #[test]
    fn full_replay_from_every_checkpoint_matches() {
        let p = feedback_loop();
        let config = TraceConfig::default();
        let (emitted, stats, trace) = record(&config, 64);
        let replayer = Replayer::new(&p, &config, &trace);
        for i in 0..trace.num_checkpoints() {
            let start = trace.checkpoint(i).emitted as usize;
            let mut tail = Vec::new();
            let rstats = replayer
                .try_replay(i, |d| {
                    tail.push(format!("{d:?}"));
                    true
                })
                .unwrap();
            assert_eq!(tail, emitted[start..], "from checkpoint {i}");
            assert_eq!(
                format!("{rstats:?}"),
                format!("{stats:?}"),
                "from checkpoint {i}"
            );
        }
    }

    #[test]
    fn early_stop_replays_exact_interval() {
        let p = feedback_loop();
        let config = TraceConfig::default();
        let (emitted, _, trace) = record(&config, 64);
        let replayer = Replayer::new(&p, &config, &trace);
        let i = 3;
        let (start, end) = (trace.interval_start(i), trace.interval_end(i));
        let mut got = Vec::new();
        replayer
            .try_replay(i, |d| {
                got.push(format!("{d:?}"));
                d.seq + 1 < end
            })
            .unwrap();
        assert_eq!(got, emitted[start as usize..end as usize]);
    }

    #[test]
    fn replay_under_sampling_schedule_matches() {
        // Off/warm phases exercise the total_steps-based phase clock: the
        // snapshot restores total_steps, so the schedule re-aligns.
        let config = TraceConfig {
            sampling: Sampling::new(57, 23, 41),
            ..TraceConfig::default()
        };
        let p = feedback_loop();
        let (emitted, stats, trace) = record(&config, 32);
        let replayer = Replayer::new(&p, &config, &trace);
        for i in [0, trace.num_checkpoints() / 2, trace.num_checkpoints() - 1] {
            let start = trace.checkpoint(i).emitted as usize;
            let mut tail = Vec::new();
            let rstats = replayer
                .try_replay(i, |d| {
                    tail.push(format!("{d:?}"));
                    true
                })
                .unwrap();
            assert_eq!(tail, emitted[start..], "from checkpoint {i}");
            assert_eq!(format!("{rstats:?}"), format!("{stats:?}"));
        }
    }

    #[test]
    fn checkpointed_stream_matches_plain_trace_under_sampling() {
        let config = TraceConfig {
            sampling: Sampling::new(13, 7, 29),
            ..TraceConfig::default()
        };
        let p = feedback_loop();
        let mut plain = Vec::new();
        try_run_trace(&p, &config, |d| plain.push(format!("{d:?}"))).unwrap();
        let (emitted, _, _) = record(&config, 32);
        assert_eq!(emitted, plain);
    }
}
