//! Regenerates the sec. 4.5 processor-width cross-validation under Criterion timing.

use criterion::{criterion_group, criterion_main, Criterion};
use preexec_bench::BENCH_BUDGET;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("width_xval");
    g.sample_size(10);
    g.bench_function("width_xval", |b| {
        b.iter(|| std::hint::black_box(preexec_experiments::figures::width_xval(BENCH_BUDGET / 2)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
