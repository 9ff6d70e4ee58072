//! Streaming trace transport: fixed-size [`DynInst`] chunks over a
//! bounded SPSC channel with backpressure.
//!
//! [`run_trace`](crate::run_trace) drives its sink from the tracing
//! thread, so trace generation and trace consumption are serialized.
//! [`try_run_trace_chunked`] splits them: a producer thread runs the
//! functional simulator and batches emitted instructions into fixed-size
//! chunks; the calling thread consumes chunks in order. The channel
//! holds at most `channel_chunks` chunks, so a slow consumer stalls the
//! producer (backpressure) instead of letting the trace accumulate —
//! peak memory in flight is bounded by `(channel_chunks + 2) ×
//! chunk_insts` records (the queue, the producer's working buffer, and
//! the chunk the consumer is processing) regardless of trace length.
//!
//! Chunk buffers are recycled through a free list, so a steady-state run
//! allocates a handful of buffers total, not one per chunk.
//!
//! Determinism: the consumer sees exactly the byte sequence a direct
//! [`run_trace`](crate::run_trace) sink would see, in the same order —
//! chunking changes batching, never content. [`StreamStats`] counters
//! (stall times, chunk counts) are observational and feed nothing back
//! into the trace.

use crate::{try_run_trace, DynInst, ExecError, RunStats, TraceConfig};
use preexec_isa::Program;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Geometry of the streaming transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Instructions per chunk. Zero is clamped to one.
    pub chunk_insts: usize,
    /// Chunks the channel may hold before the producer stalls. Zero is
    /// clamped to one.
    pub channel_chunks: usize,
}

impl Default for StreamConfig {
    /// 4096-instruction chunks, 4 in flight: large enough to amortize
    /// channel synchronization to noise, small enough that the in-flight
    /// window stays a rounding error next to the slicing window.
    fn default() -> StreamConfig {
        StreamConfig { chunk_insts: 4096, channel_chunks: 4 }
    }
}

/// What one chunked run measured about its own transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Chunks delivered to the consumer (including a final partial one).
    pub chunks: u64,
    /// Total instructions delivered.
    pub emitted: u64,
    /// Peak chunks queued in the channel at once (≤ `channel_chunks`).
    pub peak_chunks: usize,
    /// Wall-clock time the producer spent blocked on a full channel.
    pub producer_stall_us: u64,
    /// Wall-clock time the consumer spent blocked on an empty channel.
    pub consumer_stall_us: u64,
}

/// Shared channel state. The mutex region is tiny (queue pointers only);
/// chunk contents are moved, never copied, under the lock.
struct ChannelState {
    queue: VecDeque<Vec<DynInst>>,
    free: Vec<Vec<DynInst>>,
    peak: usize,
    done: bool,
}

/// The bounded SPSC chunk channel.
struct Channel {
    state: Mutex<ChannelState>,
    /// Producer waits here when the queue is full.
    space: Condvar,
    /// Consumer waits here when the queue is empty.
    data: Condvar,
    cap: usize,
}

/// Recovers from mutex poisoning: the state is a pair of plain queues,
/// always internally consistent, and a panicked peer is surfaced by the
/// scope join rather than hidden behind a second panic here.
fn locked(m: &Mutex<ChannelState>) -> MutexGuard<'_, ChannelState> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Channel {
    fn new(cap: usize) -> Channel {
        Channel {
            state: Mutex::new(ChannelState {
                queue: VecDeque::with_capacity(cap),
                free: Vec::new(),
                peak: 0,
                done: false,
            }),
            space: Condvar::new(),
            data: Condvar::new(),
            cap,
        }
    }

    /// Enqueues a full chunk, blocking while the channel is at capacity,
    /// and hands back a recycled buffer for the next chunk.
    fn send(&self, chunk: Vec<DynInst>, stall_us: &mut u64) -> Vec<DynInst> {
        let mut st = locked(&self.state);
        while st.queue.len() >= self.cap {
            let t = Instant::now();
            st = self.space.wait(st).unwrap_or_else(PoisonError::into_inner);
            *stall_us += elapsed_us(t);
        }
        st.queue.push_back(chunk);
        st.peak = st.peak.max(st.queue.len());
        let buf = st.free.pop().unwrap_or_default();
        drop(st);
        self.data.notify_one();
        buf
    }

    /// Marks the stream finished (no more chunks will arrive).
    fn finish(&self) {
        locked(&self.state).done = true;
        self.data.notify_one();
    }

    /// Dequeues the next chunk, blocking while the channel is empty;
    /// `None` once the stream is finished and drained.
    fn recv(&self, stall_us: &mut u64) -> Option<Vec<DynInst>> {
        let mut st = locked(&self.state);
        loop {
            if let Some(chunk) = st.queue.pop_front() {
                drop(st);
                self.space.notify_one();
                return Some(chunk);
            }
            if st.done {
                return None;
            }
            let t = Instant::now();
            st = self.data.wait(st).unwrap_or_else(PoisonError::into_inner);
            *stall_us += elapsed_us(t);
        }
    }

    /// Returns a consumed chunk's buffer to the free list.
    fn release(&self, mut chunk: Vec<DynInst>) {
        chunk.clear();
        let mut st = locked(&self.state);
        // The steady state needs at most cap + 2 buffers; anything beyond
        // that is a transient and can be dropped.
        if st.free.len() <= self.cap + 1 {
            st.free.push(chunk);
        }
    }

    fn peak(&self) -> usize {
        locked(&self.state).peak
    }
}

fn elapsed_us(t: Instant) -> u64 {
    t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Runs `program` on a producer thread, streaming the emitted trace to
/// `on_chunk` on the calling thread in fixed-size chunks with bounded
/// buffering (see the module docs for the memory bound).
///
/// `on_chunk` receives every emitted [`DynInst`] exactly once, in
/// emission order, batched into chunks of `stream.chunk_insts` (the last
/// chunk may be shorter). The concatenation of all chunks is identical
/// to the sink sequence of [`try_run_trace`] under the same
/// [`TraceConfig`].
///
/// # Errors
///
/// Returns [`ExecError`] exactly as [`try_run_trace`] would. Chunks
/// emitted before the fault are still delivered to `on_chunk` (the
/// traced prefix is valid), mirroring the partial-progress semantics of
/// the batch path's sink.
///
/// # Panics
///
/// A panic in `on_chunk` or inside the tracer propagates to the caller,
/// like a serial loop's would.
pub fn try_run_trace_chunked(
    program: &Program,
    config: &TraceConfig,
    stream: &StreamConfig,
    mut on_chunk: impl FnMut(&[DynInst]),
) -> Result<(RunStats, StreamStats), ExecError> {
    let chunk_insts = stream.chunk_insts.max(1);
    let chan = Channel::new(stream.channel_chunks.max(1));
    let mut stats = StreamStats::default();

    let run = std::thread::scope(|s| {
        let chan = &chan;
        let producer = s.spawn(move || {
            let mut stall_us = 0u64;
            let mut buf: Vec<DynInst> = Vec::with_capacity(chunk_insts);
            let run = try_run_trace(program, config, |d| {
                buf.push(*d);
                if buf.len() == chunk_insts {
                    let full = std::mem::take(&mut buf);
                    buf = chan.send(full, &mut stall_us);
                    if buf.capacity() < chunk_insts {
                        buf.reserve_exact(chunk_insts - buf.capacity());
                    }
                }
            });
            if !buf.is_empty() {
                let _ = chan.send(buf, &mut stall_us);
            }
            chan.finish();
            (run, stall_us)
        });

        while let Some(chunk) = chan.recv(&mut stats.consumer_stall_us) {
            stats.chunks += 1;
            stats.emitted += chunk.len() as u64;
            on_chunk(&chunk);
            chan.release(chunk);
        }
        producer.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
    });

    stats.peak_chunks = chan.peak();
    stats.producer_stall_us = run.1;
    run.0.map(|run_stats| (run_stats, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_isa::assemble;

    /// A loop long enough to span many chunks.
    fn long_loop() -> Program {
        assemble(
            "stream",
            "li r1, 0x10000\n li r2, 0\n li r3, 4096\n\
             top: bge r2, r3, done\n\
             ld r4, 0(r1)\n addi r1, r1, 8\n addi r2, r2, 1\n j top\n\
             done: halt",
        )
        .unwrap()
    }

    #[test]
    fn chunked_stream_matches_direct_sink() {
        let p = long_loop();
        let cfg = TraceConfig::default();
        let mut direct: Vec<DynInst> = Vec::new();
        let direct_stats = crate::run_trace(&p, &cfg, |d| direct.push(*d));

        let stream = StreamConfig { chunk_insts: 100, channel_chunks: 3 };
        let mut chunked: Vec<DynInst> = Vec::new();
        let (run_stats, sstats) =
            try_run_trace_chunked(&p, &cfg, &stream, |c| chunked.extend_from_slice(c))
                .expect("chunked trace");

        assert_eq!(chunked, direct, "chunking must not change the trace");
        assert_eq!(
            format!("{run_stats:?}"),
            format!("{direct_stats:?}"),
            "run statistics must match"
        );
        assert_eq!(sstats.emitted, direct.len() as u64);
        assert_eq!(sstats.chunks, (direct.len() as u64).div_ceil(100));
        assert!(sstats.peak_chunks <= 3, "peak {} over cap", sstats.peak_chunks);
    }

    #[test]
    fn every_chunk_but_the_last_is_full() {
        let p = long_loop();
        let stream = StreamConfig { chunk_insts: 128, channel_chunks: 2 };
        let mut sizes: Vec<usize> = Vec::new();
        try_run_trace_chunked(&p, &TraceConfig::default(), &stream, |c| sizes.push(c.len()))
            .expect("chunked trace");
        let (last, body) = sizes.split_last().expect("at least one chunk");
        assert!(body.iter().all(|&n| n == 128));
        assert!(*last >= 1 && *last <= 128);
    }

    #[test]
    fn zero_geometry_is_clamped() {
        let p = long_loop();
        let stream = StreamConfig { chunk_insts: 0, channel_chunks: 0 };
        let mut n = 0u64;
        let (stats, sstats) =
            try_run_trace_chunked(&p, &TraceConfig::default(), &stream, |c| n += c.len() as u64)
                .expect("chunked trace");
        assert_eq!(n, stats.insts);
        assert_eq!(sstats.chunks, stats.insts, "chunk size clamps to 1");
    }

    #[test]
    fn slow_consumer_applies_backpressure() {
        let p = long_loop();
        // One chunk in flight and a consumer that dawdles: the producer
        // must block rather than buffer the trace.
        let stream = StreamConfig { chunk_insts: 512, channel_chunks: 1 };
        let mut chunks = 0u64;
        let (_, sstats) = try_run_trace_chunked(&p, &TraceConfig::default(), &stream, |_| {
            chunks += 1;
            if chunks <= 4 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        })
        .expect("chunked trace");
        assert!(sstats.peak_chunks <= 1);
        assert!(
            sstats.producer_stall_us > 0,
            "producer never stalled against a sleeping consumer"
        );
    }

    #[test]
    fn measured_end_respected_through_chunks() {
        let p = long_loop();
        let cfg = TraceConfig {
            measured: crate::MeasuredRegion { start: 0, end: 777 },
            ..TraceConfig::default()
        };
        let stream = StreamConfig { chunk_insts: 100, channel_chunks: 2 };
        let mut n = 0u64;
        let (_, sstats) =
            try_run_trace_chunked(&p, &cfg, &stream, |c| n += c.len() as u64).expect("trace");
        assert_eq!(n, 777);
        assert_eq!(sstats.emitted, 777);
    }
}
