use crate::{DnnError, Layer};
use mercury_core::stats::LayerStats;
use mercury_core::MercuryConfig;
use mercury_tensor::Tensor;

/// How a network executes its reuse-capable layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecMode {
    /// Every dot product computed — the baseline system.
    Exact,
    /// Convolution and attention layers run through MERCURY engines with
    /// the given configuration; the seed pins the projection matrices.
    Mercury {
        /// MERCURY system configuration.
        config: MercuryConfig,
        /// Seed for the engines' random projections.
        seed: u64,
    },
}

/// A sequential network.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct Network {
    layers: Vec<Layer>,
}

impl Network {
    /// Builds a network; under [`ExecMode::Mercury`], engines are attached
    /// to every convolution and attention layer (each with a distinct
    /// sub-seed).
    pub fn new(mut layers: Vec<Layer>, mode: ExecMode) -> Self {
        if let ExecMode::Mercury { config, seed } = mode {
            for (i, layer) in layers.iter_mut().enumerate() {
                layer.attach_engine(config, seed.wrapping_add(i as u64));
            }
        }
        // The network's first layer never needs its input gradient.
        if let Some(first) = layers.first_mut() {
            first.set_input_grad(false);
        }
        Network { layers }
    }

    /// Immutable access to the layers.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Runs the network forward, returning the final activation.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (shape mismatches etc.).
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor, DnnError> {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur)?;
        }
        Ok(cur)
    }

    /// Runs the network backward from the loss gradient, accumulating
    /// parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::Usage`] when called before `forward`.
    pub fn backward(&mut self, dlogits: &Tensor) -> Result<(), DnnError> {
        let mut grad = dlogits.clone();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad)?;
        }
        Ok(())
    }

    /// Applies one SGD step to every parameterised layer.
    pub fn step(&mut self, lr: f32) {
        for layer in &mut self.layers {
            layer.step(lr);
        }
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Per-layer MERCURY statistics from the latest pass (None for layers
    /// without engines).
    pub fn layer_stats(&self) -> Vec<Option<LayerStats>> {
        self.layers.iter().map(|l| l.last_stats()).collect()
    }

    /// Grows every attached engine's signature by one bit (the adaptation
    /// response to a loss plateau).
    pub fn grow_signatures(&mut self) {
        for layer in &mut self.layers {
            layer.grow_signature();
        }
    }

    /// Enables/disables similarity detection on layer `idx`'s engine
    /// (no-op for engineless layers).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_layer_detection(&mut self, idx: usize, enabled: bool) {
        self.layers[idx].set_detection(enabled);
    }

    /// Indices of layers that carry MERCURY engines.
    pub fn engine_layers(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.has_engine())
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::softmax_cross_entropy;
    use mercury_tensor::rng::Rng;

    fn tiny_cnn(mode: ExecMode, seed: u64) -> Network {
        let mut rng = Rng::new(seed);
        Network::new(
            vec![
                Layer::conv2d(4, 1, 3, 1, &mut rng),
                Layer::relu(),
                Layer::max_pool(),
                Layer::flatten(),
                Layer::fc(4 * 4 * 4, 3, &mut rng),
            ],
            mode,
        )
    }

    #[test]
    fn forward_shape() {
        let mut rng = Rng::new(1);
        let mut net = tiny_cnn(ExecMode::Exact, 1);
        let x = Tensor::randn(&[1, 8, 8], &mut rng);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 3]);
    }

    #[test]
    fn training_step_reduces_loss_on_one_sample() {
        let mut rng = Rng::new(2);
        let mut net = tiny_cnn(ExecMode::Exact, 2);
        let x = Tensor::randn(&[1, 8, 8], &mut rng);
        let target = [1usize];

        let logits = net.forward(&x).unwrap();
        let (loss0, grad) = softmax_cross_entropy(&logits, &target).unwrap();
        net.zero_grad();
        net.backward(&grad).unwrap();
        net.step(0.05);

        // Repeat a few steps; loss must drop on the memorized sample.
        let mut loss = loss0;
        for _ in 0..10 {
            let logits = net.forward(&x).unwrap();
            let (l, g) = softmax_cross_entropy(&logits, &target).unwrap();
            net.zero_grad();
            net.backward(&g).unwrap();
            net.step(0.05);
            loss = l;
        }
        assert!(loss < loss0, "loss {loss} should drop below {loss0}");
    }

    #[test]
    fn mercury_mode_attaches_engines() {
        let net = tiny_cnn(
            ExecMode::Mercury {
                config: MercuryConfig::default(),
                seed: 9,
            },
            3,
        );
        assert_eq!(net.engine_layers(), vec![0]);
    }

    #[test]
    fn mercury_forward_close_to_exact_on_random_input() {
        let mut rng = Rng::new(4);
        let x = Tensor::randn(&[1, 8, 8], &mut rng);
        let mut exact = tiny_cnn(ExecMode::Exact, 5);
        let mut mercury = tiny_cnn(
            ExecMode::Mercury {
                config: MercuryConfig::default(),
                seed: 10,
            },
            5,
        );
        let ye = exact.forward(&x).unwrap();
        let ym = mercury.forward(&x).unwrap();
        for (a, b) in ye.data().iter().zip(ym.data()) {
            assert!((a - b).abs() < 1e-3, "exact {a} vs mercury {b}");
        }
    }

    #[test]
    fn layer_stats_populated_in_mercury_mode() {
        let mut net = tiny_cnn(
            ExecMode::Mercury {
                config: MercuryConfig::default(),
                seed: 11,
            },
            6,
        );
        let x = Tensor::full(&[1, 8, 8], 1.0);
        net.forward(&x).unwrap();
        let stats = net.layer_stats();
        assert!(stats[0].is_some());
        assert!(stats[1].is_none());
        assert!(stats[0].unwrap().hits > 0);
    }

    #[test]
    fn detection_toggle_per_layer() {
        let mut net = tiny_cnn(
            ExecMode::Mercury {
                config: MercuryConfig::default(),
                seed: 12,
            },
            7,
        );
        net.set_layer_detection(0, false);
        let x = Tensor::full(&[1, 8, 8], 1.0);
        net.forward(&x).unwrap();
        let stats = net.layer_stats()[0].unwrap();
        assert!(!stats.detection_enabled);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn mercury_mode_is_executor_invariant() {
        // A whole training step — forward, loss, backward — lands on the
        // same bits whichever executor backend the engines run on.
        use mercury_core::ExecutorKind;
        let mut rng = Rng::new(20);
        let x = Tensor::randn(&[1, 8, 8], &mut rng);
        let run = |kind: ExecutorKind| {
            let config = MercuryConfig::builder().executor(kind).build().unwrap();
            let mut net = tiny_cnn(ExecMode::Mercury { config, seed: 9 }, 8);
            let logits = net.forward(&x).unwrap();
            let (loss, grad) = softmax_cross_entropy(&logits, &[2]).unwrap();
            net.zero_grad();
            net.backward(&grad).unwrap();
            net.step(0.05);
            let after = net.forward(&x).unwrap();
            (logits, loss, after, net.layer_stats())
        };
        let serial = run(ExecutorKind::Serial);
        for threads in [2, 8] {
            let threaded = run(ExecutorKind::Threaded { threads });
            assert_eq!(serial.0, threaded.0, "{threads}: logits diverge");
            assert_eq!(serial.1.to_bits(), threaded.1.to_bits());
            assert_eq!(
                serial.2, threaded.2,
                "{threads}: post-step forward diverges"
            );
            assert_eq!(serial.3, threaded.3, "{threads}: layer stats diverge");
        }
    }

    #[test]
    fn transformer_style_network_runs() {
        let mut rng = Rng::new(9);
        let mut net = Network::new(
            vec![
                Layer::attention(),
                Layer::mean_pool(),
                Layer::fc(8, 4, &mut rng),
            ],
            ExecMode::Mercury {
                config: MercuryConfig::default(),
                seed: 13,
            },
        );
        let x = Tensor::randn(&[6, 8], &mut rng);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 4]);
        let (_, grad) = softmax_cross_entropy(&y, &[2]).unwrap();
        net.backward(&grad).unwrap();
        net.step(0.01);
    }
}
