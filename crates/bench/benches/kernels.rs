//! Per-kernel micro-benchmarks of `mercury_tensor::kernel` — the
//! packed-panel row kernel underneath the signatures, the reuse engine's
//! compute rows and the exact conv passes, each entry point timed against
//! its scalar reference so the dispatch win stays visible in the recorded
//! snapshots, plus the transpose that packs its panels.

use criterion::{criterion_group, criterion_main, Criterion};
use mercury_tensor::kernel::{pack, sign};
use mercury_tensor::rng::Rng;
use std::hint::black_box;

/// The reduced VGG-13 conv2 weight gradient (C = F = 8, 3×3 kernels,
/// 16×16 map): 8 output-gradient rows of 256 positions dotted with the
/// 72 columns of the im2col matrix — nine 8-lane blocks, so the grouped
/// path runs twice and a one-block tail once.
fn bench_dot_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_dot_rows_8x256x72");
    let mut rng = Rng::new(11);
    let (n, plen, width) = (8usize, 256usize, 72usize);
    let t: Vec<f32> = (0..plen * width).map(|_| rng.next_normal()).collect();
    let rows: Vec<f32> = (0..n * plen).map(|_| rng.next_normal()).collect();
    let mut panels = Vec::new();
    sign::pack_panels(&t, plen, width, width, &mut panels);
    let nb = width.div_ceil(sign::LANES);
    let mut out = vec![0.0f32; n * nb * sign::LANES];
    group.bench_function("dispatched", |bch| {
        bch.iter(|| {
            sign::dot_rows(black_box(&rows), plen, nb, &panels, &mut out);
            out[0]
        })
    });
    group.bench_function("scalar", |bch| {
        bch.iter(|| {
            sign::dot_rows_scalar(black_box(&rows), plen, nb, &panels, &mut out);
            out[0]
        })
    });
    group.finish();
}

fn bench_sign_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_sign_1024x9_20bit");
    group.sample_size(20);
    let mut rng = Rng::new(12);
    let (plen, bits, n) = (9usize, 20usize, 1024usize);
    let t: Vec<f32> = (0..plen * bits).map(|_| rng.next_normal()).collect();
    let rows: Vec<f32> = (0..n * plen).map(|_| rng.next_normal()).collect();
    let mut panels = Vec::new();
    sign::pack_panels(&t, plen, bits, bits, &mut panels);
    group.bench_function("dispatched", |bch| {
        let mut out = Vec::with_capacity(n);
        bch.iter(|| {
            out.clear();
            sign::sign_rows(black_box(&rows), plen, bits, &panels, &mut out);
            out.len()
        })
    });
    group.bench_function("scalar", |bch| {
        let mut out = Vec::with_capacity(n);
        bch.iter(|| {
            out.clear();
            sign::sign_rows_scalar(black_box(&rows), plen, bits, &panels, &mut out);
            out.len()
        })
    });
    group.finish();
}

fn bench_pack(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_pack_256x72");
    let mut rng = Rng::new(13);
    let (n, plen) = (256usize, 72usize);
    let src: Vec<f32> = (0..n * plen).map(|_| rng.next_normal()).collect();
    let mut dst = vec![0.0f32; plen * n];
    group.bench_function("transpose", |bch| {
        bch.iter(|| {
            pack::transpose_pack(&mut dst, black_box(&src), n, plen);
            dst[0]
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dot_rows, bench_sign_rows, bench_pack);
criterion_main!(benches);
