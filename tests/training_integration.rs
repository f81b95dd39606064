//! Cross-crate integration: training with and without MERCURY over the
//! synthetic workloads, with the adaptation loop engaged.

use mercury_core::MercuryConfig;
use mercury_dnn::{ExecMode, Layer, Network, Trainer, TrainerConfig};
use mercury_models::trainable::{build_reduced, IMAGE_SIDE};
use mercury_tensor::exec::ExecutorKind;
use mercury_tensor::rng::Rng;
use mercury_workloads::images::ImageDataset;
use mercury_workloads::sequences::SeqDataset;

fn image_data(classes: usize, per_class: usize, seed: u64) -> Vec<(mercury_tensor::Tensor, usize)> {
    let mut rng = Rng::new(seed);
    let ds = ImageDataset::new(classes, IMAGE_SIDE, 0.05, &mut rng);
    ds.generate(per_class, &mut rng)
}

#[test]
fn exact_and_mercury_training_both_learn() {
    let data = image_data(3, 10, 50);
    let mut accs = Vec::new();
    for mode in [
        ExecMode::Exact,
        ExecMode::Mercury {
            config: MercuryConfig::default(),
            seed: 77,
        },
    ] {
        let net = build_reduced("VGG-13", 3, mode, 123).unwrap();
        let mut trainer = Trainer::new(
            net,
            TrainerConfig {
                learning_rate: 0.05,
                batch_size: 6,
                adaptive: true,
            },
        );
        let mut rng = Rng::new(9);
        for _ in 0..8 {
            trainer.train_epoch(&data, &mut rng).unwrap();
        }
        accs.push(trainer.evaluate(&data).unwrap());
    }
    assert!(accs[0] > 0.7, "exact accuracy too low: {}", accs[0]);
    assert!(accs[1] > 0.7, "mercury accuracy too low: {}", accs[1]);
    // MERCURY stays within 20 points of exact on this easy task.
    assert!((accs[0] - accs[1]).abs() < 0.2);
}

/// Off means exact over a whole training run: a MERCURY network with
/// detection off on every engine layer reproduces exact training's
/// per-epoch losses bit for bit on both executors — the conv engines on
/// the reduced VGG-13, the attention engine on the Transformer.
#[test]
fn detection_off_training_reproduces_exact_losses_bit_for_bit() {
    let images = image_data(3, 4, 90);
    let mut rng = Rng::new(91);
    // Unit-scale tokens make `(X·Xᵀ)·X` so large that every loss sits at
    // the cross-entropy clamp, where no path difference could show; a
    // quarter scale keeps the losses falling from about 2.
    let sequences: Vec<_> = SeqDataset::new(3, 8, 16, 2, 0.05, &mut rng)
        .generate(4, &mut rng)
        .into_iter()
        .map(|(x, label)| (x.scale(0.25), label))
        .collect();
    for (model, data) in [("VGG-13", &images), ("Transformer", &sequences)] {
        let epoch_losses = |mode: ExecMode| {
            let mut net = build_reduced(model, 3, mode, 92).unwrap();
            for i in net.engine_layers() {
                net.set_layer_detection(i, false);
            }
            let mut trainer = Trainer::new(
                net,
                TrainerConfig {
                    adaptive: false,
                    ..TrainerConfig::default()
                },
            );
            let mut shuffle = Rng::new(93);
            (0..3)
                .map(|_| {
                    let stats = trainer.train_epoch(data, &mut shuffle).unwrap();
                    assert_eq!(stats.mercury.hits, 0, "{model}: detection is off");
                    stats.mean_loss.to_bits()
                })
                .collect::<Vec<_>>()
        };
        let exact = epoch_losses(ExecMode::Exact);
        for executor in [ExecutorKind::Serial, ExecutorKind::Threaded { threads: 2 }] {
            let config = MercuryConfig::builder().executor(executor).build().unwrap();
            assert_eq!(
                epoch_losses(ExecMode::Mercury { config, seed: 94 }),
                exact,
                "{model} on {executor:?}"
            );
        }
    }
}

#[test]
fn transformer_reduced_model_trains_with_attention_reuse() {
    let mut rng = Rng::new(60);
    let ds = SeqDataset::new(3, 8, 16, 2, 0.05, &mut rng);
    let data = ds.generate(10, &mut rng);
    let net = build_reduced(
        "Transformer",
        3,
        ExecMode::Mercury {
            config: MercuryConfig::default(),
            seed: 5,
        },
        42,
    )
    .unwrap();
    // Adaptation off: tiny 8-token attention cannot amortize signatures
    // (the stoppage controller would rightly disable it), but this test
    // verifies the reuse *mechanism* itself.
    let mut trainer = Trainer::new(
        net,
        TrainerConfig {
            adaptive: false,
            ..TrainerConfig::default()
        },
    );
    let mut stats = None;
    for _ in 0..6 {
        stats = Some(trainer.train_epoch(&data, &mut rng).unwrap());
    }
    let stats = stats.unwrap();
    // Repeated prototype tokens must produce attention-level reuse.
    assert!(
        stats.mercury.hits > 0,
        "expected attention reuse on repeated tokens"
    );
    assert!(trainer.evaluate(&data).unwrap() > 0.6);
}

#[test]
fn first_layer_skips_input_gradient() {
    // The first conv layer's backward must not pay the (useless) input
    // gradient; its returned gradient is all zeros.
    let mut rng = Rng::new(70);
    let mut net = Network::new(
        vec![
            Layer::conv2d(2, 1, 3, 1, &mut rng),
            Layer::flatten(),
            Layer::fc(2 * IMAGE_SIDE * IMAGE_SIDE, 2, &mut rng),
        ],
        ExecMode::Exact,
    );
    let x = mercury_tensor::Tensor::randn(&[1, IMAGE_SIDE, IMAGE_SIDE], &mut rng);
    let logits = net.forward(&x).unwrap();
    let (_, grad) = mercury_dnn::softmax_cross_entropy(&logits, &[0]).unwrap();
    net.backward(&grad).unwrap();
    // Parameters still update (dW is computed even without dX).
    net.step(0.1);
}

#[test]
fn adaptation_disables_layers_that_cannot_pay() {
    // A conv layer with a single filter can never amortize the signature
    // phase: the stoppage controller must turn its detection off.
    let mut rng = Rng::new(80);
    let net = Network::new(
        vec![
            Layer::conv2d(1, 1, 3, 1, &mut rng),
            Layer::relu(),
            Layer::flatten(),
            Layer::fc(IMAGE_SIDE * IMAGE_SIDE, 2, &mut rng),
        ],
        ExecMode::Mercury {
            config: MercuryConfig::default(),
            seed: 3,
        },
    );
    let data = image_data(2, 8, 81);
    let mut trainer = Trainer::new(net, TrainerConfig::default());
    let mut rng2 = Rng::new(82);
    let mut last = None;
    for _ in 0..3 {
        last = Some(trainer.train_epoch(&data, &mut rng2).unwrap());
    }
    assert_eq!(
        last.unwrap().detection_on,
        0,
        "1-filter conv should have detection stopped"
    );
}
