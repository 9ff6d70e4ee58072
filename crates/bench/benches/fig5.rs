//! Regenerates the paper's Figure 5 (optimization and merging) under Criterion timing.

use criterion::{criterion_group, criterion_main, Criterion};
use preexec_bench::BENCH_BUDGET;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5");
    g.sample_size(10);
    g.bench_function("fig5", |b| {
        b.iter(|| std::hint::black_box(preexec_experiments::figures::fig5(BENCH_BUDGET)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
