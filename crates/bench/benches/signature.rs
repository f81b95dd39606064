//! Micro-benchmarks of RPQ signature generation — the extra work MERCURY
//! adds per input vector.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mercury_rpq::ProjectionMatrix;
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;
use std::hint::black_box;

fn bench_single_signature(c: &mut Criterion) {
    let mut group = c.benchmark_group("signature_single");
    for &bits in &[20usize, 32, 64] {
        let mut rng = Rng::new(1);
        let proj = ProjectionMatrix::generate(9, bits, &mut rng);
        let v: Vec<f32> = (0..9).map(|_| rng.next_normal()).collect();
        let mut words = Vec::new();
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, _| {
            b.iter(|| proj.signatures(black_box(&v), &mut words))
        });
    }
    group.finish();
}

fn bench_batch_signatures(c: &mut Criterion) {
    let mut group = c.benchmark_group("signature_batch_1024x9");
    group.sample_size(20);
    let mut rng = Rng::new(2);
    let proj = ProjectionMatrix::generate(9, 20, &mut rng);
    let patches = Tensor::randn(&[1024, 9], &mut rng);
    let mut words = Vec::new();
    group.bench_function("20bit", |b| {
        b.iter(|| proj.signatures(black_box(patches.data()), &mut words))
    });
    group.finish();
}

criterion_group!(benches, bench_single_signature, bench_batch_signatures);
criterion_main!(benches);
