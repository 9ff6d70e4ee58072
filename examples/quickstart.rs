//! Quickstart: the full pre-execution pipeline on a small program.
//!
//! Builds a streaming loop whose loads miss the L2, traces it, slices its
//! misses into slice trees, selects p-threads with the aggregate-advantage
//! framework, and measures base vs. assisted execution on the detailed
//! timing simulator.
//!
//! Run with: `cargo run --release --example quickstart`

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec::core::{select_pthreads, SelectionParams};
use preexec::func::{run_trace, TraceConfig};
use preexec::isa::assemble;
use preexec::slice::SliceForestBuilder;
use preexec::timing::{simulate, SimConfig};

fn main() {
    // A scan whose loads miss the L2 and whose loaded values feed an
    // unpredictable branch: the branch serializes the main thread behind
    // every miss (no memory-level parallelism to hide it), which is
    // exactly the situation pre-execution attacks.
    let program = assemble(
        "quickstart",
        "
        li r1, 0x100000     # table base
        li r2, 0            # i
        li r3, 4000         # iterations
    top:
        bge r2, r3, done
        ld  r4, 0(r1)       # the problem load (one L2 line per iteration)
        andi r5, r4, 1
        beq  r5, r0, even   # data-dependent branch: ~50% mispredicts
        add  r9, r9, r4
        j    next
    even:
        xor  r9, r9, r4
    next:
        addi r1, r1, 64
        addi r2, r2, 1
        j top
    done:
        halt",
    )
    .expect("program assembles");

    // Fill the scanned region with pseudo-random data so the branch is
    // genuinely unpredictable.
    let mut program = program;
    let mut x: u64 = 0x243f_6a88_85a3_08d3;
    let bytes: Vec<u8> = (0..4000 * 64)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u8
        })
        .collect();
    program.add_data(0x100000, bytes);

    // 1. Functional trace + backward slicing of every L2 miss.
    let mut builder = SliceForestBuilder::new(1024, 32);
    let stats = run_trace(&program, &TraceConfig::default(), |d| builder.observe(d));
    let forest = builder.finish();
    println!(
        "trace: {} instructions, {} loads, {} L2 misses, {} slice trees",
        stats.insts,
        stats.loads,
        stats.l2_misses,
        forest.num_trees()
    );

    // 2. Base timing run -> unassisted IPC feeds the selection model.
    let base = simulate(&program, &[], &SimConfig::default());
    println!("base:     IPC {:.3} ({} cycles)", base.ipc(), base.cycles);

    // 3. Select p-threads with the paper's framework.
    let params = SelectionParams {
        ipc: base.ipc(),
        ..SelectionParams::default()
    };
    let selection = select_pthreads(&forest, &params);
    println!(
        "selected {} static p-thread(s); predicted coverage {} of {} misses",
        selection.pthreads.len(),
        selection.prediction.misses_covered,
        stats.l2_misses
    );
    for pt in &selection.pthreads {
        print!("{pt}");
    }

    // 4. Assisted timing run.
    let assisted = simulate(&program, &selection.pthreads, &SimConfig::default());
    println!(
        "assisted: IPC {:.3} ({} cycles) — {} launches, {} misses covered ({} fully)",
        assisted.ipc(),
        assisted.cycles,
        assisted.launches,
        assisted.covered(),
        assisted.mem.covered_full
    );
    println!(
        "speedup: {:.2}x",
        assisted.ipc() / base.ipc().max(f64::MIN_POSITIVE)
    );
}
