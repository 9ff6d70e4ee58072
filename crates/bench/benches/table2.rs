//! Regenerates the paper's Table 2 (primary results + model validation) under Criterion timing.

use criterion::{criterion_group, criterion_main, Criterion};
use preexec_bench::BENCH_BUDGET;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("table2");
    g.sample_size(10);
    g.bench_function("table2", |b| {
        b.iter(|| std::hint::black_box(preexec_experiments::tables::table2(BENCH_BUDGET)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
