//! Regenerates the paper's Figure 7 (selection input dataset) under Criterion timing.

use criterion::{criterion_group, criterion_main, Criterion};
use preexec_bench::BENCH_BUDGET;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7");
    g.sample_size(10);
    g.bench_function("fig7", |b| {
        b.iter(|| std::hint::black_box(preexec_experiments::figures::fig7(BENCH_BUDGET)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
