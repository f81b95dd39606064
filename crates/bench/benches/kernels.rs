//! Per-kernel micro-benchmarks of `mercury_tensor::kernel` — the SIMD
//! strips underneath the GEMM and signature hot paths, each timed against
//! its scalar reference so the dispatch win stays visible in the recorded
//! snapshots.

use criterion::{criterion_group, criterion_main, Criterion};
use mercury_tensor::kernel::{gemm, pack, sign};
use mercury_tensor::rng::Rng;
use std::hint::black_box;

fn bench_gemm_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_gemm_block_64k");
    let mut rng = Rng::new(11);
    let k = 64usize;
    let arow: Vec<f32> = (0..k).map(|_| rng.next_normal()).collect();
    let b: Vec<f32> = (0..k * gemm::BLOCK).map(|_| rng.next_normal()).collect();
    group.bench_function("dispatched", |bch| {
        bch.iter(|| {
            let mut acc = [0.0f32; gemm::BLOCK];
            gemm::accumulate_block(&mut acc, black_box(&arow), black_box(&b), gemm::BLOCK, 0);
            acc
        })
    });
    group.bench_function("scalar", |bch| {
        bch.iter(|| {
            let mut acc = [0.0f32; gemm::BLOCK];
            gemm::accumulate_block_scalar(
                &mut acc,
                black_box(&arow),
                black_box(&b),
                gemm::BLOCK,
                0,
            );
            acc
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
    sign::pack_sign_panels(&t, plen, bits, bits, &mut panels);
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

criterion_group!(benches, bench_gemm_block, bench_sign_rows, bench_pack);
criterion_main!(benches);
