use crate::{softmax_cross_entropy, DnnError, Network};
use mercury_core::stats::LayerStats;
use mercury_core::AdaptiveController;
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;

/// `K`: consecutive no-change loss iterations before the signature grows
/// by one bit (§III-D).
const PLATEAU_WINDOW: usize = 5;

/// Relative loss change below which two iterations count as "no change"
/// for the plateau detector.
const PLATEAU_TOLERANCE: f64 = 1e-3;

/// `T`: consecutive batches where the signature cost exceeds the baseline
/// cost before a layer's similarity detection is turned off (§III-D).
const STOPPAGE_WINDOW: usize = 3;

/// Trainer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Samples per parameter update.
    pub batch_size: usize,
    /// Whether to run the §III-D adaptation policy (signature growth +
    /// per-layer stoppage). Ignored for [`ExecMode::Exact`](crate::ExecMode)
    /// networks.
    pub adaptive: bool,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            learning_rate: 0.01,
            batch_size: 8,
            adaptive: true,
        }
    }
}

/// Statistics of one training epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean per-sample loss.
    pub mean_loss: f64,
    /// Training accuracy over the epoch's samples.
    pub accuracy: f64,
    /// Aggregated MERCURY statistics across layers and samples (zeros for
    /// exact execution).
    pub mercury: LayerStats,
    /// Layers whose similarity detection remained on at epoch end (equal
    /// to the engine-layer count for exact execution).
    pub detection_on: usize,
}

/// SGD trainer with the MERCURY adaptation loop.
///
/// Drives a [`Network`] over `(input, class)` samples, accumulating
/// gradients over `batch_size` samples per step. In adaptive mode the
/// trainer feeds per-iteration loss into a plateau detector (growing
/// signatures by one bit per plateau) and per-batch cycle ledgers into
/// per-layer stoppage controllers (turning losing layers' detection off) —
/// the policy of §III-D.
#[derive(Debug)]
pub struct Trainer {
    net: Network,
    config: TrainerConfig,
    controller: Option<AdaptiveController>,
    engine_layers: Vec<usize>,
    /// Each engine layer's statistics summed over the current batch's
    /// samples: the cycle ledger stoppage compares.
    batch_stats: Vec<LayerStats>,
}

impl Trainer {
    /// Creates a trainer; adaptation state is sized to the network's
    /// engine-bearing layers.
    pub fn new(net: Network, config: TrainerConfig) -> Self {
        let engine_layers = net.engine_layers();
        let controller = if config.adaptive && !engine_layers.is_empty() {
            // The controller is deliberately engine-agnostic: it only
            // sees losses and cycle ledgers.
            Some(AdaptiveController::new(
                engine_layers.len(),
                PLATEAU_WINDOW,
                PLATEAU_TOLERANCE,
                STOPPAGE_WINDOW,
            ))
        } else {
            None
        };
        Trainer {
            net,
            config,
            controller,
            batch_stats: vec![LayerStats::default(); engine_layers.len()],
            engine_layers,
        }
    }

    /// Borrows the underlying network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Trains one epoch over `data`, shuffling with `rng`.
    ///
    /// # Errors
    ///
    /// Propagates network execution errors.
    pub fn train_epoch(
        &mut self,
        data: &[(Tensor, usize)],
        rng: &mut Rng,
    ) -> Result<EpochStats, DnnError> {
        let mut order: Vec<usize> = (0..data.len()).collect();
        rng.shuffle(&mut order);

        let mut total_loss = 0.0f64;
        let mut correct = 0usize;
        let mut mercury = LayerStats::default();
        let mut in_batch = 0usize;
        self.net.zero_grad();

        for &i in &order {
            let (x, label) = &data[i];
            let logits = self.net.forward(x)?;
            if logits.argmax() % logits.shape()[logits.rank() - 1] == *label {
                correct += 1;
            }
            let (loss, grad) = softmax_cross_entropy(&logits, &[*label])?;
            total_loss += loss as f64;
            self.net.backward(&grad)?;
            in_batch += 1;

            // Collect per-layer MERCURY stats for this sample.
            let stats = self.net.layer_stats();
            for s in stats.iter().flatten() {
                mercury.accumulate(s);
            }
            for (sum, &layer) in self.batch_stats.iter_mut().zip(&self.engine_layers) {
                if let Some(s) = &stats[layer] {
                    sum.accumulate(s);
                }
            }

            // Adaptation: loss plateau → grow signatures.
            if let Some(controller) = &mut self.controller {
                if controller.observe_loss(loss as f64) {
                    self.net.grow_signatures();
                }
            }

            if in_batch == self.config.batch_size {
                self.apply_batch(in_batch);
                in_batch = 0;
            }
        }
        if in_batch > 0 {
            self.apply_batch(in_batch);
        }

        let detection_on = self.detection_on_count();
        Ok(EpochStats {
            mean_loss: total_loss / data.len().max(1) as f64,
            accuracy: correct as f64 / data.len().max(1) as f64,
            mercury,
            detection_on,
        })
    }

    fn apply_batch(&mut self, batch: usize) {
        self.net.step(self.config.learning_rate / batch as f32);
        self.net.zero_grad();

        // Stoppage: compare each engine layer's MERCURY cycles against its
        // baseline, both summed over every sample of this batch.
        let layers = self.engine_layers.iter().zip(&mut self.batch_stats);
        for (slot, (&layer_idx, sum)) in layers.enumerate() {
            let s = std::mem::take(sum);
            if let Some(controller) = &mut self.controller {
                if !controller.observe_layer(slot, s.cycles.total(), s.cycles.baseline) {
                    self.net.set_layer_detection(layer_idx, false);
                }
            }
        }
    }

    /// Evaluates classification accuracy over a dataset (forward only).
    ///
    /// # Errors
    ///
    /// Propagates network execution errors.
    pub fn evaluate(&mut self, data: &[(Tensor, usize)]) -> Result<f64, DnnError> {
        let mut correct = 0usize;
        for (x, label) in data {
            let logits = self.net.forward(x)?;
            let k = logits.shape()[logits.rank() - 1];
            if logits.argmax() % k == *label {
                correct += 1;
            }
        }
        Ok(correct as f64 / data.len().max(1) as f64)
    }

    /// Number of engine layers whose detection is still on.
    fn detection_on_count(&self) -> usize {
        match &self.controller {
            Some(c) => c.detection_counts().0,
            None => self.engine_layers.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecMode, Layer};
    use mercury_core::MercuryConfig;

    fn make_dataset(rng: &mut Rng, n_per_class: usize) -> Vec<(Tensor, usize)> {
        // Two easily separable classes: bright blob top-left vs bottom-right.
        let mut data = Vec::new();
        for class in 0..2usize {
            for _ in 0..n_per_class {
                let mut img = Tensor::zeros(&[1, 8, 8]);
                for dy in 0..4 {
                    for dx in 0..4 {
                        let (y, x) = if class == 0 {
                            (dy, dx)
                        } else {
                            (dy + 4, dx + 4)
                        };
                        img.set(&[0, y, x], 1.0 + 0.1 * rng.next_normal());
                    }
                }
                data.push((img, class));
            }
        }
        data
    }

    fn cnn(mode: ExecMode, seed: u64) -> Network {
        let mut rng = Rng::new(seed);
        Network::new(
            vec![
                Layer::conv2d(4, 1, 3, 1, &mut rng),
                Layer::relu(),
                Layer::max_pool(),
                Layer::flatten(),
                Layer::fc(4 * 4 * 4, 2, &mut rng),
            ],
            mode,
        )
    }

    #[test]
    fn exact_training_learns_separable_classes() {
        let mut rng = Rng::new(100);
        let data = make_dataset(&mut rng, 10);
        let mut trainer = Trainer::new(cnn(ExecMode::Exact, 1), TrainerConfig::default());
        let mut last = None;
        for _ in 0..8 {
            last = Some(trainer.train_epoch(&data, &mut rng).unwrap());
        }
        let acc = trainer.evaluate(&data).unwrap();
        assert!(acc >= 0.9, "expected ≥90% train accuracy, got {acc}");
        assert!(last.unwrap().mean_loss < 0.7);
    }

    #[test]
    fn mercury_training_learns_too() {
        let mut rng = Rng::new(101);
        let data = make_dataset(&mut rng, 10);
        let mode = ExecMode::Mercury {
            config: MercuryConfig::default(),
            seed: 77,
        };
        let mut trainer = Trainer::new(cnn(mode, 1), TrainerConfig::default());
        for _ in 0..8 {
            trainer.train_epoch(&data, &mut rng).unwrap();
        }
        let acc = trainer.evaluate(&data).unwrap();
        assert!(acc >= 0.85, "MERCURY training accuracy {acc} too low");
    }

    #[test]
    fn mercury_stats_accumulate_during_training() {
        let mut rng = Rng::new(102);
        let data = make_dataset(&mut rng, 4);
        let mode = ExecMode::Mercury {
            config: MercuryConfig::default(),
            seed: 78,
        };
        let mut trainer = Trainer::new(cnn(mode, 2), TrainerConfig::default());
        let stats = trainer.train_epoch(&data, &mut rng).unwrap();
        assert!(stats.mercury.total_vectors() > 0);
        assert!(stats.mercury.hits > 0, "blob images should show similarity");
        assert_eq!(stats.detection_on, 1);
    }

    #[test]
    fn exact_mode_reports_no_mercury_stats() {
        let mut rng = Rng::new(103);
        let data = make_dataset(&mut rng, 2);
        let mut trainer = Trainer::new(cnn(ExecMode::Exact, 3), TrainerConfig::default());
        let stats = trainer.train_epoch(&data, &mut rng).unwrap();
        assert_eq!(stats.mercury.total_vectors(), 0);
    }

    #[test]
    fn stoppage_weighs_every_sample_of_the_batch() {
        // At 32 filters on a 16×16 image a constant image's pass pays (about
        // 0.55× its baseline cycles) and a random image's does not (about
        // 1.5×). Two constant and three random images lose in total, three
        // constant and two random ones pay, and either batch can end on
        // either kind: stoppage must follow the total, whatever the order.
        let mut rng = Rng::new(104);
        let mut images = |constants: &[f32], randoms: usize| {
            let mut data: Vec<(Tensor, usize)> = constants
                .iter()
                .map(|&v| (Tensor::full(&[1, 16, 16], v), 0))
                .collect();
            data.extend((0..randoms).map(|_| (Tensor::randn(&[1, 16, 16], &mut rng), 1)));
            data
        };
        let losing = images(&[0.5, 0.7], 3);
        let paying = images(&[0.5, 0.7, 0.9], 2);
        for seed in 0..4 {
            for (data, stops) in [(&losing, true), (&paying, false)] {
                let mut init = Rng::new(seed);
                let net = Network::new(
                    vec![
                        Layer::conv2d(32, 1, 3, 1, &mut init),
                        Layer::relu(),
                        Layer::max_pool(),
                        Layer::flatten(),
                        Layer::fc(32 * 8 * 8, 2, &mut init),
                    ],
                    ExecMode::Mercury {
                        config: MercuryConfig::default(),
                        seed,
                    },
                );
                let config = TrainerConfig {
                    batch_size: data.len(),
                    ..TrainerConfig::default()
                };
                let mut trainer = Trainer::new(net, config);
                // One batch per epoch, in the order `shuffle` deals.
                let mut shuffle = Rng::new(seed);
                for epoch in 1..=STOPPAGE_WINDOW {
                    let on = trainer
                        .train_epoch(data, &mut shuffle)
                        .unwrap()
                        .detection_on;
                    let want = usize::from(!stops || epoch < STOPPAGE_WINDOW);
                    assert_eq!(on, want, "seed {seed}, stops {stops}, epoch {epoch}");
                }
            }
        }
    }

    #[test]
    fn evaluate_on_empty_dataset_is_zero() {
        let mut trainer = Trainer::new(cnn(ExecMode::Exact, 4), TrainerConfig::default());
        assert_eq!(trainer.evaluate(&[]).unwrap(), 0.0);
    }
}
