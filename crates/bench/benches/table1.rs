//! Regenerates the paper's Table 1 (benchmark characterization) under Criterion timing.

use criterion::{criterion_group, criterion_main, Criterion};
use preexec_bench::BENCH_BUDGET;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1");
    g.sample_size(10);
    g.bench_function("table1", |b| {
        b.iter(|| std::hint::black_box(preexec_experiments::tables::table1(BENCH_BUDGET)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
