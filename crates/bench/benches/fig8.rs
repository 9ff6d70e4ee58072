//! Regenerates the paper's Figure 8 (memory-latency cross-validation) under Criterion timing.

use criterion::{criterion_group, criterion_main, Criterion};
use preexec_bench::BENCH_BUDGET;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8");
    g.sample_size(10);
    g.bench_function("fig8", |b| {
        b.iter(|| std::hint::black_box(preexec_experiments::figures::fig8(BENCH_BUDGET / 2)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
