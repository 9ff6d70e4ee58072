//! The streaming trace path's two contracts (DESIGN.md §13):
//!
//! 1. **Equality** — the bounded-memory streaming pipeline is
//!    byte-identical to the direct pipeline: same slice forest bytes,
//!    same trace statistics, same final `PipelineResult`, for any program
//!    and any transport geometry (chunk size, channel depth), at any
//!    selection thread count. Outside adaptive runs (where the chunk is
//!    the phase detector's granularity), chunk boundaries are a transport
//!    detail; they must never be observable in the results.
//! 2. **Bounded memory** — the streaming path never materializes the
//!    trace. Its instruction-record high-water mark
//!    (`stream.peak_window_insts`) is capped by the slicing window plus
//!    one in-flight chunk, no matter how long the trace runs.
//!
//! The equality half is a property test over randomized pointer-chase
//! programs *and* randomized transport geometry, so it covers chunk
//! boundaries landing anywhere relative to warm-up ends, problem loads,
//! and window retirement.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec_experiments::{Pipeline, PipelineConfig, PolicySpec, StreamConfig};
use preexec_isa::{Program, ProgramBuilder, Reg};
use preexec_slice::write_forest;
use preexec_workloads::{suite, InputSet};
use proptest::prelude::*;

/// A randomized pointer-chase kernel: walks a cyclic permutation over a
/// `2^table_pow`-entry successor table (odd stride ⇒ a single full
/// cycle), with a seed-dependent amount of ALU filler between hops. The
/// loop is unbounded — the trace budget terminates it — so every run
/// exercises the full budget, and footprints past the L2 produce problem
/// loads for the slicer.
fn chase_program(seed: u64, table_pow: u32, stride: u64, filler: u8) -> Program {
    let n = 1u64 << table_pow;
    let stride = stride | 1; // odd ⇒ coprime with a power of two
    let table: Vec<u8> = (0..n)
        .flat_map(|i| ((i + stride) % n).to_le_bytes())
        .collect();
    let base = 0x1000_0000u64;

    let (tbase, cur, addr, acc, s) =
        (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4), Reg::new(5));
    let mut b = ProgramBuilder::new("chase");
    b.li(tbase, base as i64);
    b.li(cur, (seed % n) as i64);
    b.li(s, (seed | 1) as i64);
    b.label("top");
    b.sll(addr, cur, 3);
    b.add(addr, addr, tbase);
    b.ld(cur, 0, addr); // the problem load: serialized pointer chase
    for k in 0..(filler % 4) {
        match k {
            0 => b.add(acc, acc, cur),
            1 => b.xor(s, s, acc),
            2 => b.mul(s, s, cur),
            _ => b.srl(acc, s, 7),
        };
    }
    b.j("top");
    b.data(base, table);
    b.build().expect("chase kernel builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Streaming == batch over random programs and random transport
    /// geometry: same forest bytes, same trace stats.
    #[test]
    fn streaming_equals_batch_on_random_programs(
        seed in any::<u64>(),
        table_pow in 10u32..14,          // 8 KB .. 64 KB footprint
        stride in 1u64..1024,
        filler in any::<u8>(),
        chunk_insts in 1usize..3000,     // degenerate 1-inst chunks included
        channel_chunks in 1usize..5,
        budget in 1_000u64..6_000,
    ) {
        let p = chase_program(seed, table_pow, stride, filler);
        let cfg = PipelineConfig::paper_default(budget);
        let batch = Pipeline::new(&p).config(cfg).trace().unwrap();
        let streamed = Pipeline::new(&p)
            .policy(PolicySpec { cfg, streaming: true, ..PolicySpec::default() })
            .stream_config(StreamConfig { chunk_insts, channel_chunks })
            .trace()
            .unwrap();
        prop_assert_eq!(write_forest(&streamed.forest), write_forest(&batch.forest));
        prop_assert_eq!(
            format!("{:?}", streamed.stats),
            format!("{:?}", batch.stats)
        );
        let s = streamed.stream.expect("streaming path reports transport stats");
        prop_assert!(s.chunks > 0);
        prop_assert!(s.peak_window_insts <= cfg.scope as u64 + chunk_insts as u64);
    }
}

#[test]
fn streaming_memory_stays_bounded_on_long_traces() {
    // A trace an order of magnitude longer than the window: mcf at a
    // 40 k budget against a 1024-instruction scope and 512-instruction
    // chunks. The direct path holds at most the window; the streaming
    // path must never hold more than window + one chunk.
    let w = suite().into_iter().find(|w| w.name == "mcf").expect("suite has mcf");
    let p = w.build(InputSet::Train);
    let cfg = PipelineConfig::paper_default(40_000);
    let stream = StreamConfig { chunk_insts: 512, channel_chunks: 4 };
    let arts = Pipeline::new(&p)
        .policy(PolicySpec { cfg, streaming: true, ..PolicySpec::default() })
        .stream_config(stream)
        .trace()
        .expect("streaming trace");
    let s = arts.stream.expect("transport stats");

    let cap = cfg.scope as u64 + stream.chunk_insts as u64;
    assert!(
        arts.stats.total_steps >= 10 * cap,
        "trace too short to prove anything: {} steps vs cap {cap}",
        arts.stats.total_steps
    );
    assert!(
        s.peak_window_insts <= cap,
        "peak {} exceeds window+chunk cap {cap}",
        s.peak_window_insts
    );
    assert!(s.chunks >= 10, "expected many chunks, got {}", s.chunks);
}

#[test]
fn streaming_matches_batch_at_every_thread_count() {
    // The tentpole identity: `--stream` output is byte-identical to the
    // batch pipeline at threads 1, 2, and 8. Debug formatting
    // round-trips every f64, so string equality is bitwise equality.
    let w = suite().into_iter().find(|w| w.name == "vpr.r").expect("suite has vpr.r");
    let p = w.build(InputSet::Train);
    let cfg = PipelineConfig::paper_default(30_000);

    let streamed = Pipeline::new(&p)
        .policy(PolicySpec { cfg, streaming: true, ..PolicySpec::default() })
        .run()
        .expect("streaming run");
    let stream_key = format!("{:?}", streamed.result);
    let stream_bytes = write_forest(&streamed.forest);
    assert!(!streamed.result.selection.pthreads.is_empty(), "trivial run proves nothing");

    for threads in [1usize, 2, 8] {
        let batch = Pipeline::new(&p).config(cfg).threads(threads).run().expect("batch run");
        assert_eq!(
            format!("{:?}", batch.result),
            stream_key,
            "streaming differs from batch at threads={threads}"
        );
        assert_eq!(
            write_forest(&batch.forest),
            stream_bytes,
            "streaming forest differs from batch at threads={threads}"
        );
    }
}
