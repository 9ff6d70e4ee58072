//! Micro-benchmarks of the framework's own primitives: tracing+slicing
//! throughput, slice-tree selection, body optimization, and the timing
//! simulator — the costs a user of the library actually pays.

use criterion::{criterion_group, criterion_main, Criterion};
use preexec_bench::{build, forest_for};
use preexec_core::{optimize_body, select_pthreads, Body, BodyInst, SelectionParams};
use preexec_func::{run_trace, TraceConfig};
use preexec_isa::{Inst, Op, Reg};
use preexec_slice::SliceForestBuilder;
use preexec_timing::{simulate, SimConfig};

fn bench_trace_and_slice(c: &mut Criterion) {
    let p = build("vpr.r");
    c.bench_function("trace_and_slice_40k", |b| {
        b.iter(|| {
            let mut builder = SliceForestBuilder::new(1024, 32);
            let cfg = TraceConfig {
                max_steps: 40_000,
                ..TraceConfig::default()
            };
            run_trace(&p, &cfg, |d| builder.observe(d));
            std::hint::black_box(builder.finish())
        })
    });
}

fn bench_selection(c: &mut Criterion) {
    let p = build("vortex");
    let forest = forest_for(&p, 40_000);
    let params = SelectionParams {
        ipc: 0.6,
        ..SelectionParams::default()
    };
    c.bench_function("select_pthreads", |b| {
        b.iter(|| std::hint::black_box(select_pthreads(&forest, &params)))
    });
}

fn bench_optimizer(c: &mut Criterion) {
    // A 24-instruction induction-unrolled body: the common optimizer input.
    let mut insts = Vec::new();
    for i in 0..22 {
        insts.push(BodyInst {
            inst: Inst::itype(Op::Addi, Reg::new(1), Reg::new(1), 8),
            deps: if i == 0 { vec![] } else { vec![i - 1] },
            mt_dist: i as f64 * 9.0,
        });
    }
    insts.push(BodyInst {
        inst: Inst::load(Op::Ld, Reg::new(2), Reg::new(1), 0),
        deps: vec![21],
        mt_dist: 200.0,
    });
    insts.push(BodyInst {
        inst: Inst::load(Op::Ld, Reg::new(3), Reg::new(2), 0),
        deps: vec![22],
        mt_dist: 201.0,
    });
    let body = Body::new(insts);
    c.bench_function("optimize_24_inst_body", |b| {
        b.iter(|| std::hint::black_box(optimize_body(&body)))
    });
}

fn bench_timing_sim(c: &mut Criterion) {
    let p = build("crafty");
    let cfg = SimConfig {
        max_insts: 40_000,
        ..SimConfig::default()
    };
    let mut g = c.benchmark_group("timing");
    g.sample_size(10);
    g.bench_function("timing_sim_40k_insts", |b| {
        b.iter(|| std::hint::black_box(simulate(&p, &[], &cfg)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_trace_and_slice,
    bench_selection,
    bench_optimizer,
    bench_timing_sim
);
criterion_main!(benches);
