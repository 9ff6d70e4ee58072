//! Deterministic re-execution from a [`Checkpoint`](crate::CheckpointTrace).
//!
//! A [`Replayer`] owns a program, its trace configuration, the
//! [`CheckpointTrace`] recorded by
//! [`try_run_trace_checkpointed`](crate::try_run_trace_checkpointed), and
//! the program's *initial* memory image (data segments only). To replay
//! from checkpoint `i` it seeds the shared trace loop with clones of the
//! snapshot's CPU, hierarchy, and statistics, and runs against a
//! copy-on-write `ReplayMemory` whose reads resolve each 8-byte granule,
//! newest first, through: granules written during this replay, then the
//! granule records of checkpoints `i, i-1, …, 0`, then the initial image.
//! Because the interpreter, the cache model, and the loop driving them are
//! the very same code the recording run executed, the replay emits
//! byte-identical [`DynInst`]s — determinism is by construction, not by a
//! parallel implementation kept in sync.

use crate::checkpoint::{CheckpointTrace, Granule, GRANULE_BYTES};
use crate::tracer::{run_trace_loop, TraceState};
use crate::{DynInst, ExecError, RunStats, TraceConfig};
use preexec_isa::Program;
use preexec_mem::{MemBus, Memory, MEM_GRANULE_SHIFT};
use std::collections::HashMap;

const GRANULE_MASK: u64 = GRANULE_BYTES as u64 - 1;

/// Copy-on-write memory view for a replay starting at checkpoint
/// `ckpt_idx`, kept per 8-byte granule: reads fall through overlay →
/// checkpoint granule records (newest at or before `ckpt_idx` wins) →
/// initial data-segment image; a write goes to an overlay granule seeded
/// from that same resolution.
struct ReplayMemory<'a> {
    /// The granule records of checkpoints `ckpt_idx, ckpt_idx - 1, …, 0`
    /// that hold any, newest first. Empty when no store ran before the
    /// replay's checkpoint, so reads skip the scan.
    records: Vec<&'a [Granule]>,
    initial: &'a Memory<'a>,
    /// The granules this replay has written.
    overlay: HashMap<u64, [u8; GRANULE_BYTES]>,
}

impl<'a> ReplayMemory<'a> {
    fn new(
        trace: &'a CheckpointTrace,
        initial: &'a Memory<'a>,
        ckpt_idx: usize,
    ) -> ReplayMemory<'a> {
        ReplayMemory {
            records: (0..=ckpt_idx)
                .rev()
                .map(|j| &trace.checkpoint(j).granules[..])
                .filter(|granules| !granules.is_empty())
                .collect(),
            initial,
            overlay: HashMap::new(),
        }
    }

    /// Granule `g` at the replay's checkpoint. Checkpoint `j` records a
    /// granule only if a store wrote it in interval `j-1..j`, so the
    /// newest record at or before the checkpoint is its content at the
    /// snapshot instant; a granule no record holds is still pristine.
    fn recorded(records: &[&[Granule]], initial: &Memory<'_>, g: u64) -> [u8; GRANULE_BYTES] {
        records
            .iter()
            .find_map(|granules| {
                granules
                    .binary_search_by_key(&g, |&(k, _)| k)
                    .ok()
                    .map(|i| granules[i].1)
            })
            .unwrap_or_else(|| initial.read_u64(g << MEM_GRANULE_SHIFT).to_le_bytes())
    }

    /// The current bytes of granule `g`.
    #[inline]
    fn granule(&self, g: u64) -> [u8; GRANULE_BYTES] {
        match self.overlay.get(&g) {
            Some(bytes) => *bytes,
            None => Self::recorded(&self.records, self.initial, g),
        }
    }

    /// Granule `g` in the overlay, seeded on the replay's first write.
    fn granule_mut(&mut self, g: u64) -> &mut [u8; GRANULE_BYTES] {
        let ReplayMemory {
            records,
            initial,
            overlay,
        } = self;
        overlay
            .entry(g)
            .or_insert_with(|| Self::recorded(records, initial, g))
    }

    /// Reads `N` little-endian bytes at `addr`: one granule, or two when
    /// the access straddles a granule edge (wrapping at 2^64).
    #[inline]
    fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let off = (addr & GRANULE_MASK) as usize;
        let mut buf = [0u8; 2 * GRANULE_BYTES];
        buf[..GRANULE_BYTES].copy_from_slice(&self.granule(addr >> MEM_GRANULE_SHIFT));
        if off + N > GRANULE_BYTES {
            let next = addr.wrapping_add(GRANULE_BYTES as u64) >> MEM_GRANULE_SHIFT;
            buf[GRANULE_BYTES..].copy_from_slice(&self.granule(next));
        }
        let mut out = [0u8; N];
        out.copy_from_slice(&buf[off..off + N]);
        out
    }

    /// Writes `N` bytes at `addr`, into one granule or two.
    #[inline]
    fn write_bytes<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) {
        let off = (addr & GRANULE_MASK) as usize;
        let first = N.min(GRANULE_BYTES - off);
        self.granule_mut(addr >> MEM_GRANULE_SHIFT)[off..off + first]
            .copy_from_slice(&bytes[..first]);
        if first < N {
            let next = addr.wrapping_add(GRANULE_BYTES as u64) >> MEM_GRANULE_SHIFT;
            self.granule_mut(next)[..N - first].copy_from_slice(&bytes[first..]);
        }
    }
}

impl MemBus for ReplayMemory<'_> {
    #[inline]
    fn read_u8(&self, addr: u64) -> u8 {
        self.read_bytes::<1>(addr)[0]
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
        self.write_bytes(addr, [value]);
    }
    #[inline]
    fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, value.to_le_bytes());
    }
    #[inline]
    fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, value.to_le_bytes());
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
    /// The pre-run memory image: the program's data segments, read in
    /// place.
    initial: Memory<'a>,
}

impl<'a> Replayer<'a> {
    /// Builds a replayer for `trace`, reading the initial data-segment
    /// image from `program`. `program` and `config` must be the ones the
    /// recording run used — the trace stores neither.
    pub fn new(
        program: &'a Program,
        config: &'a TraceConfig,
        trace: &'a CheckpointTrace,
    ) -> Replayer<'a> {
        Replayer {
            program,
            config,
            trace,
            initial: Memory::from_program(program),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::try_run_trace_checkpointed;
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
}
