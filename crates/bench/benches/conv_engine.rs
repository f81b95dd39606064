//! End-to-end benchmarks of the MERCURY reuse engines against the exact
//! products. The convolution engine runs on high- and low-similarity
//! inputs — in batch mode (MCACHE cleared per forward) and in session
//! mode (persistent banked MCACHE, no per-forward clear, eviction by
//! epoch) — and at the layer shapes the reuse pass is tuned against: the
//! reduced VGG-13 layers the `train-reuse` benchmark trains, and a
//! 128-wide layer at the paper's widths. The FC engine runs one request at
//! a time through a session, at the `serve-open` tenant shape and at a
//! wide shape where a stored row saves most of the submit.

use criterion::{criterion_group, criterion_main, Criterion};
use mercury_core::{ConvEngine, LayerOp, MercuryConfig, MercurySession, ReuseEngine};
use mercury_tensor::conv::conv2d_multi;
use mercury_tensor::rng::Rng;
use mercury_tensor::{ops, Tensor};
use mercury_workloads::tenants::TenantMix;
use std::hint::black_box;

fn bench_exact_vs_mercury(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_16x16x8_16f");
    group.sample_size(20);
    let mut rng = Rng::new(5);
    let kernels = Tensor::randn(&[16, 8, 3, 3], &mut rng);
    let random_input = Tensor::randn(&[8, 16, 16], &mut rng);
    let smooth_input = Tensor::full(&[8, 16, 16], 0.7); // maximal similarity

    group.bench_function("exact", |b| {
        b.iter(|| conv2d_multi(black_box(&random_input), &kernels, 1, 1).unwrap())
    });
    group.bench_function("mercury_random_input", |b| {
        let mut engine = ConvEngine::try_new(MercuryConfig::default(), 1).unwrap();
        b.iter(|| {
            engine
                .forward(LayerOp::conv(black_box(&random_input), &kernels, 1, 1))
                .unwrap()
        })
    });
    group.bench_function("mercury_smooth_input", |b| {
        let mut engine = ConvEngine::try_new(MercuryConfig::default(), 2).unwrap();
        b.iter(|| {
            engine
                .forward(LayerOp::conv(black_box(&smooth_input), &kernels, 1, 1))
                .unwrap()
        })
    });
    // Session mode: the persistent cache pays cold-start once (outside the
    // timed region via the shim's warm-up iteration), then every timed
    // submit runs against resident tags with no per-forward clear.
    group.bench_function("session_smooth_input", |b| {
        let mut session = MercurySession::new(MercuryConfig::default(), 2).unwrap();
        let conv = session.register_conv(kernels.clone(), 1, 1).unwrap();
        b.iter(|| session.submit(conv, black_box(&smooth_input)).unwrap())
    });
    group.bench_function("session_random_input", |b| {
        let mut session = MercurySession::new(MercuryConfig::default(), 1).unwrap();
        let conv = session.register_conv(kernels.clone(), 1, 1).unwrap();
        b.iter(|| session.submit(conv, black_box(&random_input)).unwrap())
    });
    group.finish();

    // A service round: one batch of requests across four independent conv
    // layers, fanned out by `submit_batch` on the serial vs threaded
    // executor (bit-identical results; the delta is pure scheduling). The
    // pool width is pinned to 2 for a machine-independent record — see
    // the matching note in benches/model_sim.rs.
    let mut group = c.benchmark_group("session_batch_4conv");
    group.sample_size(20);
    for (name, kind) in [
        ("serial", mercury_core::ExecutorKind::Serial),
        (
            "threaded",
            mercury_core::ExecutorKind::Threaded { threads: 2 },
        ),
    ] {
        group.bench_function(name, |b| {
            let config = MercuryConfig::builder().executor(kind).build().unwrap();
            let mut session = MercurySession::new(config, 3).unwrap();
            let layers: Vec<_> = (0..4)
                .map(|_| session.register_conv(kernels.clone(), 1, 1).unwrap())
                .collect();
            let requests: Vec<_> = layers.iter().map(|&l| (l, &random_input)).collect();
            b.iter(|| session.submit_batch(black_box(&requests)).unwrap())
        });
    }
    group.finish();
}

/// One group per layer-shape family: for each `(channels, filters, side)`
/// shape, the exact convolution beside a batch engine on constant input
/// (every vector but one per channel HITs) and on random input (few do).
fn bench_shapes(c: &mut Criterion, group_name: &str, shapes: &[(usize, usize, usize)]) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    let mut rng = Rng::new(6);
    for &(ch, f, side) in shapes {
        let kernels = Tensor::randn(&[f, ch, 3, 3], &mut rng);
        let random_input = Tensor::randn(&[ch, side, side], &mut rng);
        let smooth_input = Tensor::full(&[ch, side, side], 0.7);
        let shape = format!("{ch}to{f}_{side}x{side}");
        group.bench_function(format!("{shape}/exact"), |b| {
            b.iter(|| conv2d_multi(black_box(&random_input), &kernels, 1, 1).unwrap())
        });
        for (name, input) in [("smooth", &smooth_input), ("random", &random_input)] {
            group.bench_function(format!("{shape}/mercury_{name}_input"), |b| {
                let mut engine = ConvEngine::try_new(MercuryConfig::default(), 3).unwrap();
                b.iter(|| {
                    engine
                        .forward(LayerOp::conv(black_box(input), &kernels, 1, 1))
                        .unwrap()
                })
            });
        }
    }
    group.finish();
}

fn bench_layer_shapes(c: &mut Criterion) {
    // conv2 (8 → 8 at 16×16) and conv4 (12 → 12 at 8×8) of the reduced
    // VGG-13 `train-reuse` runs.
    bench_shapes(c, "conv_train_reuse_shapes", &[(8, 8, 16), (12, 12, 8)]);
    bench_shapes(c, "conv_128x16x16_128f", &[(128, 128, 16)]);
}

/// One FC request at a time, `[1, L]` against `[L, M]` weights: `exact` is
/// one `ops::matmul`; `session` is one submit to a persistent-session FC
/// layer, walking a 2,048-request five-cluster `TenantMix` stream and
/// advancing the epoch every 128 submits, as `serve-open` does. A warm
/// submit's HIT copies its line's stored `M`-float row instead of the
/// `L × M` product. `64x32` is the `serve-open` tenant shape; at `512x256`
/// the skipped product dominates the submit.
fn bench_fc_session(c: &mut Criterion) {
    for (l, m, samples) in [(64, 32, 1000), (512, 256, 200)] {
        let mut group = c.benchmark_group(format!("fc_session_{l}x{m}"));
        group.sample_size(samples);
        let mut rng = Rng::new(7);
        let weights = Tensor::randn(&[l, m], &mut rng);
        let stream = TenantMix::new(l, 5, 0.02, 7).tenant_stream(0, 2048);
        group.bench_function("exact", |b| {
            b.iter(|| ops::matmul(black_box(&stream[0]), &weights).unwrap())
        });
        group.bench_function("session", |b| {
            let mut session = MercurySession::new(MercuryConfig::default(), 7).unwrap();
            let fc = session.register_fc(weights.clone()).unwrap();
            let mut requests = stream.iter().cycle().zip(1u64..);
            b.iter(|| {
                let (input, k) = requests.next().unwrap();
                let out = session.submit(fc, black_box(input)).unwrap();
                if k % 128 == 0 {
                    session.advance_epoch();
                }
                out
            })
        });
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_exact_vs_mercury,
    bench_layer_shapes,
    bench_fc_session
);
criterion_main!(benches);
