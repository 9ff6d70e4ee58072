//! Regenerates the paper's Figure 6 (selection granularity) under Criterion timing.

use criterion::{criterion_group, criterion_main, Criterion};
use preexec_bench::BENCH_BUDGET;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6");
    g.sample_size(10);
    g.bench_function("fig6", |b| {
        b.iter(|| std::hint::black_box(preexec_experiments::figures::fig6(BENCH_BUDGET)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
