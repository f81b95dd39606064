//! Layer implementations: convolution, ReLU, pooling, flatten,
//! fully-connected, mean-pooling, and self-attention.
//!
//! Each layer caches whatever its backward pass needs during `forward`.
//! A convolution layer optionally holds a [`ConvEngine`] and an attention
//! layer an [`AttentionEngine`]; when present, their forward pass (and the
//! convolution's input-gradient backward pass) run with signature-based
//! reuse and record [`LayerStats`]. The layers drive their engines through
//! the [`ReuseEngine`] trait methods.

use crate::DnnError;
use mercury_core::stats::LayerStats;
use mercury_core::{AttentionEngine, ConfigError, ConvEngine, LayerOp, MercuryConfig, ReuseEngine};
use mercury_tensor::rng::Rng;
use mercury_tensor::{conv, ops, Tensor};

/// 2-D convolution layer (`[C, H, W] → [F, H', W']`), stride 1.
#[derive(Debug)]
pub struct Conv2d {
    kernels: Tensor, // [F, C, k, k]
    pad: usize,
    dkernels: Tensor,
    cached_input: Option<Tensor>,
    engine: Option<Box<ConvEngine>>,
    last_stats: Option<LayerStats>,
    /// The first layer of a network never needs its input gradient;
    /// skipping it matches what training frameworks (and the paper's
    /// backward pass) actually execute.
    input_grad_enabled: bool,
}

impl Conv2d {
    /// Creates a conv layer with He-style scaled random kernels.
    pub fn new(filters: usize, channels: usize, kernel: usize, pad: usize, rng: &mut Rng) -> Self {
        let scale = (2.0 / (channels * kernel * kernel) as f32).sqrt();
        let kernels = Tensor::randn(&[filters, channels, kernel, kernel], rng).scale(scale);
        let dkernels = Tensor::zeros(kernels.shape());
        Conv2d {
            kernels,
            pad,
            dkernels,
            cached_input: None,
            engine: None,
            last_stats: None,
            input_grad_enabled: true,
        }
    }

    fn kernel_size(&self) -> usize {
        self.kernels.shape()[2]
    }

    fn forward(&mut self, x: &Tensor) -> Result<Tensor, DnnError> {
        self.cached_input = Some(x.clone());
        match &mut self.engine {
            Some(engine) => {
                let out = engine.forward(LayerOp::conv(x, &self.kernels, 1, self.pad))?;
                self.last_stats = Some(out.report.stats);
                Ok(out.output)
            }
            None => Ok(conv::conv2d_multi(x, &self.kernels, 1, self.pad)?),
        }
    }

    fn backward(&mut self, dout: &Tensor) -> Result<Tensor, DnnError> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or_else(|| DnnError::Usage("conv backward before forward".to_string()))?;
        let k = self.kernel_size();
        let dw = conv::conv2d_backward_weights(x, dout, k, k, 1, self.pad)?;
        self.dkernels.axpy(1.0, &dw)?;

        let (h, w) = (x.shape()[1], x.shape()[2]);
        if !self.input_grad_enabled {
            return Ok(Tensor::zeros(x.shape()));
        }
        match &mut self.engine {
            Some(engine) if self.pad < k => {
                // Input gradient as a MERCURY convolution: full-convolve the
                // output gradient with flipped, channel-transposed kernels
                // (eq. 2 of the paper). Gradient-vector similarity is
                // exploited just like input similarity.
                let flipped = conv::flip_kernels(&self.kernels);
                let out = engine.forward(LayerOp::conv(dout, &flipped, 1, k - 1 - self.pad))?;
                if let Some(stats) = &mut self.last_stats {
                    stats.accumulate(&out.report.stats);
                } else {
                    self.last_stats = Some(out.report.stats);
                }
                Ok(out.output)
            }
            _ => Ok(conv::conv2d_backward_input(
                &self.kernels,
                dout,
                h,
                w,
                1,
                self.pad,
            )?),
        }
    }

    fn step(&mut self, lr: f32) {
        self.kernels
            .axpy(-lr, &self.dkernels)
            .expect("gradient shape matches kernels");
    }

    fn zero_grad(&mut self) {
        self.dkernels.map_inplace(|_| 0.0);
    }
}

/// Rectified linear unit.
#[derive(Debug, Default)]
pub struct Relu {
    cached_pre: Option<Tensor>,
}

impl Relu {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cached_pre = Some(x.clone());
        ops::relu(x)
    }

    fn backward(&mut self, dout: &Tensor) -> Result<Tensor, DnnError> {
        let pre = self
            .cached_pre
            .as_ref()
            .ok_or_else(|| DnnError::Usage("relu backward before forward".to_string()))?;
        Ok(ops::relu_grad_mask(pre).mul(dout)?)
    }
}

/// 2×2 max pooling with stride 2.
#[derive(Debug, Default)]
pub struct MaxPool {
    cached: Option<(Vec<usize>, Vec<usize>)>, // (argmax, input shape)
}

impl MaxPool {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, DnnError> {
        let (out, argmax) = conv::max_pool2(x)?;
        self.cached = Some((argmax, x.shape().to_vec()));
        Ok(out)
    }

    fn backward(&mut self, dout: &Tensor) -> Result<Tensor, DnnError> {
        let (argmax, shape) = self
            .cached
            .as_ref()
            .ok_or_else(|| DnnError::Usage("pool backward before forward".to_string()))?;
        Ok(conv::max_pool2_backward(dout, argmax, shape))
    }
}

/// Flattens `[C, H, W]` to `[1, C·H·W]`.
#[derive(Debug, Default)]
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, DnnError> {
        self.cached_shape = Some(x.shape().to_vec());
        Ok(x.reshape(&[1, x.len()])?)
    }

    fn backward(&mut self, dout: &Tensor) -> Result<Tensor, DnnError> {
        let shape = self
            .cached_shape
            .as_ref()
            .ok_or_else(|| DnnError::Usage("flatten backward before forward".to_string()))?;
        Ok(dout.reshape(shape)?)
    }
}

/// Fully-connected layer (`[N, In] → [N, Out]`), always exact (see the
/// crate docs for why FC reuse is evaluated at the simulator level).
#[derive(Debug)]
pub struct Fc {
    weights: Tensor, // [In, Out]
    bias: Tensor,    // [1, Out]
    dweights: Tensor,
    dbias: Tensor,
    cached_input: Option<Tensor>,
}

impl Fc {
    /// Creates an FC layer with Xavier-style scaled random weights.
    pub fn new(inputs: usize, outputs: usize, rng: &mut Rng) -> Self {
        let scale = (1.0 / inputs as f32).sqrt();
        let weights = Tensor::randn(&[inputs, outputs], rng).scale(scale);
        Fc {
            dweights: Tensor::zeros(weights.shape()),
            weights,
            bias: Tensor::zeros(&[1, outputs]),
            dbias: Tensor::zeros(&[1, outputs]),
            cached_input: None,
        }
    }

    fn forward(&mut self, x: &Tensor) -> Result<Tensor, DnnError> {
        self.cached_input = Some(x.clone());
        let mut y = ops::matmul(x, &self.weights)?;
        let (n, m) = (y.shape()[0], y.shape()[1]);
        let yd = y.data_mut();
        for i in 0..n {
            for j in 0..m {
                yd[i * m + j] += self.bias.data()[j];
            }
        }
        Ok(y)
    }

    fn backward(&mut self, dout: &Tensor) -> Result<Tensor, DnnError> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or_else(|| DnnError::Usage("fc backward before forward".to_string()))?;
        let dw = ops::matmul(&ops::transpose(x)?, dout)?;
        self.dweights.axpy(1.0, &dw)?;
        let m = dout.shape()[1];
        for (j, db) in self.dbias.data_mut().iter_mut().enumerate() {
            let column = dout.data().iter().skip(j).step_by(m);
            *db += column.fold(0.0, |acc, &g| acc + g);
        }
        Ok(ops::matmul(dout, &ops::transpose(&self.weights)?)?)
    }

    fn step(&mut self, lr: f32) {
        self.weights
            .axpy(-lr, &self.dweights)
            .expect("gradient shape matches weights");
        self.bias
            .axpy(-lr, &self.dbias)
            .expect("gradient shape matches bias");
    }

    fn zero_grad(&mut self) {
        self.dweights.map_inplace(|_| 0.0);
        self.dbias.map_inplace(|_| 0.0);
    }
}

/// Mean-pools a sequence `[t, k]` to `[1, k]` (transformer head).
#[derive(Debug, Default)]
pub struct MeanPool {
    cached_rows: Option<usize>,
}

impl MeanPool {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, DnnError> {
        let (t, k) = (x.shape()[0], x.shape()[1]);
        self.cached_rows = Some(t);
        let mut out = Tensor::zeros(&[1, k]);
        for j in 0..k {
            let mut acc = 0.0;
            for i in 0..t {
                acc += x.at(&[i, j]);
            }
            out.set(&[0, j], acc / t as f32);
        }
        Ok(out)
    }

    fn backward(&mut self, dout: &Tensor) -> Result<Tensor, DnnError> {
        let t = self
            .cached_rows
            .ok_or_else(|| DnnError::Usage("mean-pool backward before forward".to_string()))?;
        let k = dout.shape()[1];
        let mut dx = Tensor::zeros(&[t, k]);
        for i in 0..t {
            for j in 0..k {
                dx.set(&[i, j], dout.at(&[0, j]) / t as f32);
            }
        }
        Ok(dx)
    }
}

/// Non-parametric self-attention over `[t, k]`: `Y = (X·Xᵀ)·X` (the
/// formulation of §III-C4 of the paper).
#[derive(Debug, Default)]
pub struct Attention {
    cached_input: Option<Tensor>,
    engine: Option<Box<AttentionEngine>>,
    last_stats: Option<LayerStats>,
}

impl Attention {
    fn forward(&mut self, x: &Tensor) -> Result<Tensor, DnnError> {
        self.cached_input = Some(x.clone());
        match &mut self.engine {
            Some(engine) => {
                let out = engine.forward(LayerOp::attention(x))?;
                self.last_stats = Some(out.report.stats);
                Ok(out.output)
            }
            None => {
                let xt = ops::transpose(x)?;
                let w = ops::matmul(x, &xt)?;
                Ok(ops::matmul(&w, x)?)
            }
        }
    }

    fn backward(&mut self, dout: &Tensor) -> Result<Tensor, DnnError> {
        // Y = W·X with W = X·Xᵀ ⇒
        // dX = Wᵀ·dY + (dY·Xᵀ + X·dYᵀ)·X
        let x = self
            .cached_input
            .as_ref()
            .ok_or_else(|| DnnError::Usage("attention backward before forward".to_string()))?;
        let xt = ops::transpose(x)?;
        let w = ops::matmul(x, &xt)?;
        let term1 = ops::matmul(&ops::transpose(&w)?, dout)?;
        let dw = ops::matmul(dout, &xt)?;
        let dwt = ops::matmul(x, &ops::transpose(dout)?)?;
        let term2 = ops::matmul(&dw.add(&dwt)?, x)?;
        Ok(term1.add(&term2)?)
    }
}

/// A network layer; construct through the `Layer::*` helper constructors.
#[derive(Debug)]
pub enum Layer {
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// ReLU activation.
    Relu(Relu),
    /// 2×2 max pooling.
    MaxPool(MaxPool),
    /// Flatten to a row vector.
    Flatten(Flatten),
    /// Fully-connected.
    Fc(Fc),
    /// Sequence mean pooling.
    MeanPool(MeanPool),
    /// Non-parametric self-attention.
    Attention(Attention),
}

impl Layer {
    /// Convolution layer: `filters` × `channels` × `kernel`² with `pad`.
    pub fn conv2d(
        filters: usize,
        channels: usize,
        kernel: usize,
        pad: usize,
        rng: &mut Rng,
    ) -> Layer {
        Layer::Conv2d(Conv2d::new(filters, channels, kernel, pad, rng))
    }

    /// ReLU layer.
    pub fn relu() -> Layer {
        Layer::Relu(Relu::default())
    }

    /// 2×2/stride-2 max-pooling layer.
    pub fn max_pool() -> Layer {
        Layer::MaxPool(MaxPool::default())
    }

    /// Flattening layer.
    pub fn flatten() -> Layer {
        Layer::Flatten(Flatten::default())
    }

    /// Fully-connected layer.
    pub fn fc(inputs: usize, outputs: usize, rng: &mut Rng) -> Layer {
        Layer::Fc(Fc::new(inputs, outputs, rng))
    }

    /// Sequence mean-pooling layer.
    pub fn mean_pool() -> Layer {
        Layer::MeanPool(MeanPool::default())
    }

    /// Self-attention layer.
    pub fn attention() -> Layer {
        Layer::Attention(Attention::default())
    }

    /// Attaches MERCURY engines to layers that support reuse: a batch
    /// [`ConvEngine`] to a convolution, a batch [`AttentionEngine`] to an
    /// attention layer. Other layers ignore the call.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation — configurations are
    /// build-time constants in every caller, so this is treated as a
    /// programming error.
    pub fn attach_engine(&mut self, config: MercuryConfig, seed: u64) {
        fn invalid<T>(e: ConfigError) -> T {
            panic!("invalid MercuryConfig: {e}")
        }
        match self {
            Layer::Conv2d(l) => {
                l.engine = Some(Box::new(
                    ConvEngine::try_new(config, seed).unwrap_or_else(invalid),
                ));
            }
            Layer::Attention(l) => {
                l.engine = Some(Box::new(
                    AttentionEngine::try_new(config, seed).unwrap_or_else(invalid),
                ));
            }
            _ => {}
        }
    }

    /// Runs the layer forward.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying operations.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor, DnnError> {
        match self {
            Layer::Conv2d(l) => l.forward(x),
            Layer::Relu(l) => Ok(l.forward(x)),
            Layer::MaxPool(l) => l.forward(x),
            Layer::Flatten(l) => l.forward(x),
            Layer::Fc(l) => l.forward(x),
            Layer::MeanPool(l) => l.forward(x),
            Layer::Attention(l) => l.forward(x),
        }
    }

    /// Runs the layer backward, accumulating parameter gradients and
    /// returning the input gradient.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::Usage`] when called before `forward`.
    pub fn backward(&mut self, dout: &Tensor) -> Result<Tensor, DnnError> {
        match self {
            Layer::Conv2d(l) => l.backward(dout),
            Layer::Relu(l) => l.backward(dout),
            Layer::MaxPool(l) => l.backward(dout),
            Layer::Flatten(l) => l.backward(dout),
            Layer::Fc(l) => l.backward(dout),
            Layer::MeanPool(l) => l.backward(dout),
            Layer::Attention(l) => l.backward(dout),
        }
    }

    /// Applies one SGD step with learning rate `lr` to this layer's
    /// parameters (no-op for parameterless layers).
    pub fn step(&mut self, lr: f32) {
        match self {
            Layer::Conv2d(l) => l.step(lr),
            Layer::Fc(l) => l.step(lr),
            _ => {}
        }
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        match self {
            Layer::Conv2d(l) => l.zero_grad(),
            Layer::Fc(l) => l.zero_grad(),
            _ => {}
        }
    }

    /// MERCURY statistics from this layer's most recent pass, when an
    /// engine is attached.
    pub fn last_stats(&self) -> Option<LayerStats> {
        match self {
            Layer::Conv2d(l) => l.last_stats,
            Layer::Attention(l) => l.last_stats,
            _ => None,
        }
    }

    /// Grows the attached engine's signature by one bit (no-op without an
    /// engine). Returns the new length when applicable.
    pub fn grow_signature(&mut self) -> Option<usize> {
        match self {
            Layer::Conv2d(l) => l.engine.as_mut().map(|e| e.grow_signature()),
            Layer::Attention(l) => l.engine.as_mut().map(|e| e.grow_signature()),
            _ => None,
        }
    }

    /// Enables/disables similarity detection on the attached engine.
    pub fn set_detection(&mut self, enabled: bool) {
        match self {
            Layer::Conv2d(l) => l.engine.iter_mut().for_each(|e| e.set_detection(enabled)),
            Layer::Attention(l) => l.engine.iter_mut().for_each(|e| e.set_detection(enabled)),
            _ => {}
        }
    }

    /// Disables input-gradient computation (first-layer optimization);
    /// no-op for non-convolution layers.
    pub fn set_input_grad(&mut self, enabled: bool) {
        if let Layer::Conv2d(l) = self {
            l.input_grad_enabled = enabled;
        }
    }

    /// Whether this layer carries a MERCURY engine.
    pub fn has_engine(&self) -> bool {
        match self {
            Layer::Conv2d(l) => l.engine.is_some(),
            Layer::Attention(l) => l.engine.is_some(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::new(42)
    }

    #[test]
    fn conv_forward_backward_shapes() {
        let mut r = rng();
        let mut layer = Layer::conv2d(4, 2, 3, 1, &mut r);
        let x = Tensor::randn(&[2, 6, 6], &mut r);
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.shape(), &[4, 6, 6]);
        let dx = layer.backward(&Tensor::full(&[4, 6, 6], 1.0)).unwrap();
        assert_eq!(dx.shape(), &[2, 6, 6]);
    }

    #[test]
    fn conv_numerical_gradient() {
        let mut r = rng();
        let mut layer = Conv2d::new(2, 1, 3, 0, &mut r);
        let x = Tensor::randn(&[1, 5, 5], &mut r);
        let y = layer.forward(&x).unwrap();
        let dout = Tensor::full(y.shape(), 1.0);
        let dx = layer.backward(&dout).unwrap();

        // Finite-difference check on one input element.
        let idx = [0, 2, 2];
        let eps = 1e-3;
        let mut xp = x.clone();
        xp.set(&idx, x.at(&idx) + eps);
        let base: f32 = layer.forward(&x).unwrap().sum();
        let bump: f32 = layer.forward(&xp).unwrap().sum();
        let numeric = (bump - base) / eps;
        assert!((dx.at(&idx) - numeric).abs() < 1e-2);
    }

    #[test]
    fn mercury_conv_backward_matches_exact_for_random_input() {
        // With i.i.d. random gradients there are no signature collisions,
        // so the engine-backed backward equals the exact backward.
        let mut r = rng();
        let x = Tensor::randn(&[1, 6, 6], &mut r);
        let dout = Tensor::randn(&[2, 6, 6], &mut r);

        let mut exact = Conv2d::new(2, 1, 3, 1, &mut rng());
        let mut reuse = Conv2d::new(2, 1, 3, 1, &mut rng());
        reuse.engine = Some(Box::new(
            ConvEngine::try_new(MercuryConfig::default(), 7).unwrap(),
        ));

        exact.forward(&x).unwrap();
        reuse.forward(&x).unwrap();
        let dx_exact = exact.backward(&dout).unwrap();
        let dx_reuse = reuse.backward(&dout).unwrap();
        for (a, b) in dx_exact.data().iter().zip(dx_reuse.data()) {
            assert!((a - b).abs() < 1e-3, "exact {a} vs reuse {b}");
        }
    }

    #[test]
    fn fc_numerical_gradient() {
        let mut r = rng();
        let mut layer = Fc::new(6, 4, &mut r);
        let x = Tensor::randn(&[1, 6], &mut r);
        layer.forward(&x).unwrap();
        let dout = Tensor::full(&[1, 4], 1.0);
        let dx = layer.backward(&dout).unwrap();

        let idx = [0, 3];
        let eps = 1e-3;
        let mut xp = x.clone();
        xp.set(&idx, x.at(&idx) + eps);
        let base: f32 = layer.forward(&x).unwrap().sum();
        let bump: f32 = layer.forward(&xp).unwrap().sum();
        assert!((dx.at(&idx) - (bump - base) / eps).abs() < 1e-2);
    }

    #[test]
    fn fc_bias_gradient_accumulates() {
        let mut r = rng();
        let mut layer = Fc::new(3, 2, &mut r);
        let x = Tensor::randn(&[1, 3], &mut r);
        layer.forward(&x).unwrap();
        layer.backward(&Tensor::full(&[1, 2], 1.0)).unwrap();
        layer.forward(&x).unwrap();
        layer.backward(&Tensor::full(&[1, 2], 1.0)).unwrap();
        assert_eq!(layer.dbias.data(), &[2.0, 2.0]);
    }

    #[test]
    fn relu_masks_gradient() {
        let mut l = Relu::default();
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap();
        let y = l.forward(&x);
        assert_eq!(y.data(), &[0.0, 2.0]);
        let dx = l.backward(&Tensor::full(&[2], 5.0)).unwrap();
        assert_eq!(dx.data(), &[0.0, 5.0]);
    }

    #[test]
    fn pool_roundtrip() {
        let mut r = rng();
        let mut l = MaxPool::default();
        let x = Tensor::randn(&[2, 4, 4], &mut r);
        let y = l.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 2, 2]);
        let dx = l.backward(&Tensor::full(&[2, 2, 2], 1.0)).unwrap();
        assert_eq!(dx.shape(), &[2, 4, 4]);
        assert!((dx.sum() - 8.0).abs() < 1e-5);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut l = Flatten::default();
        let x = Tensor::full(&[2, 3, 3], 1.5);
        let y = l.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 18]);
        let dx = l.backward(&y).unwrap();
        assert_eq!(dx.shape(), &[2, 3, 3]);
    }

    #[test]
    fn mean_pool_gradient_is_uniform() {
        let mut l = MeanPool::default();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[2, 2]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.data(), &[3.0, 5.0]);
        let dx = l.backward(&Tensor::full(&[1, 2], 2.0)).unwrap();
        assert!(dx.data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn attention_numerical_gradient() {
        let mut r = rng();
        let mut l = Attention::default();
        let x = Tensor::randn(&[3, 4], &mut r);
        l.forward(&x).unwrap();
        let dout = Tensor::full(&[3, 4], 1.0);
        let dx = l.backward(&dout).unwrap();

        let idx = [1, 2];
        let eps = 1e-3;
        let mut xp = x.clone();
        xp.set(&idx, x.at(&idx) + eps);
        let base: f32 = l.forward(&x).unwrap().sum();
        let bump: f32 = l.forward(&xp).unwrap().sum();
        let numeric = (bump - base) / eps;
        assert!(
            (dx.at(&idx) - numeric).abs() < 0.05 * numeric.abs().max(1.0),
            "analytic {} vs numeric {}",
            dx.at(&idx),
            numeric
        );
    }

    #[test]
    fn engines_attach_only_to_reuse_layers() {
        let mut r = rng();
        let config = MercuryConfig::default();
        let mut conv = Layer::conv2d(1, 1, 3, 0, &mut r);
        let mut relu = Layer::relu();
        let mut att = Layer::attention();
        conv.attach_engine(config, 1);
        relu.attach_engine(config, 2);
        att.attach_engine(config, 3);
        assert!(conv.has_engine());
        assert!(!relu.has_engine());
        assert!(att.has_engine());
    }

    #[test]
    #[should_panic(expected = "invalid MercuryConfig")]
    fn attaching_an_invalid_config_panics() {
        let config = MercuryConfig {
            initial_signature_bits: 0,
            ..MercuryConfig::default()
        };
        Layer::conv2d(1, 1, 3, 0, &mut rng()).attach_engine(config, 1);
    }

    #[test]
    fn stats_appear_after_mercury_forward() {
        let mut r = rng();
        let mut conv = Layer::conv2d(2, 1, 3, 0, &mut r);
        conv.attach_engine(MercuryConfig::default(), 5);
        assert!(conv.last_stats().is_none());
        let x = Tensor::full(&[1, 6, 6], 1.0);
        conv.forward(&x).unwrap();
        let stats = conv.last_stats().unwrap();
        assert!(stats.hits > 0); // constant image: heavy reuse
    }

    #[test]
    fn detection_off_conv_is_the_exact_layer_bit_for_bit() {
        // A conv layer whose engine has detection off computes what the
        // engine-less layer computes: the forward is `conv2d_multi` and
        // the input gradient `conv2d_backward_input`, bit for bit, on
        // every executor.
        let mut r = rng();
        let x = Tensor::randn(&[3, 8, 8], &mut r);
        let dout = Tensor::randn(&[4, 8, 8], &mut r);
        let mut exact = Conv2d::new(4, 3, 3, 1, &mut Rng::new(7));
        let want_y = exact.forward(&x).unwrap();
        let want_dx = exact.backward(&dout).unwrap();
        for kind in [
            mercury_core::ExecutorKind::Serial,
            mercury_core::ExecutorKind::Threaded { threads: 2 },
        ] {
            let config = MercuryConfig::builder().executor(kind).build().unwrap();
            let mut off = Layer::Conv2d(Conv2d::new(4, 3, 3, 1, &mut Rng::new(7)));
            off.attach_engine(config, 9);
            off.set_detection(false);
            assert_eq!(off.forward(&x).unwrap(), want_y, "{kind:?} forward");
            assert_eq!(
                off.backward(&dout).unwrap(),
                want_dx,
                "{kind:?} input gradient"
            );
            assert_eq!(off.last_stats().unwrap().hits, 0);
        }
    }

    #[test]
    fn sgd_step_moves_parameters() {
        let mut r = rng();
        let mut layer = Conv2d::new(1, 1, 3, 0, &mut r);
        let before = layer.kernels.clone();
        let x = Tensor::randn(&[1, 5, 5], &mut r);
        layer.forward(&x).unwrap();
        layer.backward(&Tensor::full(&[1, 3, 3], 1.0)).unwrap();
        layer.step(0.1);
        assert_ne!(layer.kernels, before);
        layer.zero_grad();
        assert!(layer.dkernels.data().iter().all(|&v| v == 0.0));
    }
}
