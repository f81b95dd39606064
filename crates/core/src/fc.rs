use crate::base::{Bound, EngineBase, PassOut, Product};
use crate::config::ConfigError;
use crate::reuse::{LayerForward, LayerOp, ReuseEngine, ReuseReport, ReuseSignatures};
use crate::stats::LayerStats;
use crate::{MercuryConfig, MercuryError};
use mercury_accel::config::AcceleratorConfig;
use mercury_accel::fc::{simulate_attention, simulate_fc, FcWork};
use mercury_accel::sim::ChannelCycles;
use mercury_accel::timing;
use mercury_mcache::OutcomeMix;
use mercury_rpq::Signature;
use mercury_tensor::kernel::sign::pack_panels;
use mercury_tensor::scratch::ScratchF32;
use mercury_tensor::{ops, Tensor, TensorError};

/// The signatures of a call's `rows`, and whether they are the `saved`
/// ones: saved signatures stand in for fresh ones when there is one per
/// row, all at the engine's current signature length.
fn row_signatures(
    base: &mut EngineBase,
    rows: &Tensor,
    saved: Option<&[Signature]>,
) -> (Vec<Signature>, bool) {
    let bits = base.signature_bits;
    match saved {
        Some(sigs) if sigs.len() == rows.shape()[0] && sigs.iter().all(|s| s.len() == bits) => {
            (sigs.to_vec(), true)
        }
        _ => {
            let proj = base.projections.get(rows.shape()[1], bits);
            (proj.signatures(rows.data(), &mut base.words), false)
        }
    }
}

/// The forward of a detection-off call of `n` rows: every row an MNU, no
/// signature cost and no reuse, so the MERCURY total is the baseline.
fn exact_forward(output: Tensor, n: usize, mut cycles: ChannelCycles) -> LayerForward {
    cycles.signature = 0;
    cycles.compute = cycles.baseline;
    let stats = LayerStats {
        mnus: n as u64,
        unique_vectors: n as u64,
        cycles,
        ..LayerStats::default()
    };
    LayerForward {
        output,
        report: ReuseReport {
            stats,
            signatures: ReuseSignatures::Rows(Vec::new()),
            degraded: false,
        },
    }
}

/// The forward of a reuse call: the pass's counts, and `cycles` plus its
/// insertion conflicts, which serialize through the per-set queues as on
/// the conv path and are charged to the signature phase.
fn reuse_forward(
    output: Tensor,
    pass: PassOut,
    mut cycles: ChannelCycles,
    sigs: Vec<Signature>,
) -> LayerForward {
    cycles.signature += pass.conflicts * timing::MCACHE_INSERT_CONFLICT_CYCLES;
    let stats = LayerStats {
        cycles,
        detection_enabled: true,
        ..pass.counts
    };
    LayerForward {
        output,
        report: ReuseReport {
            stats,
            signatures: ReuseSignatures::Rows(sigs),
            degraded: false,
        },
    }
}

/// The MERCURY engine for fully-connected layers (§III-C3): one PE per
/// input vector, block-wise weight streaming, and earlier-PE result
/// forwarding on signature matches. Implements [`ReuseEngine`] for
/// [`LayerOp::Fc`] requests; attention lives in [`AttentionEngine`].
///
/// Each call is one reuse scope and runs the reuse pass the conv engine
/// runs per channel, on the calling thread: the rows that compute are
/// dotted with the weights, packed into the panels of the packed-panel row
/// kernel ([`dot_rows`](mercury_tensor::kernel::sign::dot_rows)), and
/// every row takes its producer's output row. With detection off the
/// engine is [`ops::matmul`], which runs on the same kernel.
///
/// Every reuse call computes from weights the engine has bound: packed
/// once, and kept until a call passes other weights, which the engine
/// binds in their place. A persistent engine also keeps each line's
/// `M`-float output row with its tag: a HIT in a later call copies that
/// row instead of computing `L × M` products. Binding other weights drops
/// every stored row first, so no row is ever served under weights it was
/// not computed with.
#[derive(Debug)]
pub struct FcEngine {
    pub(crate) base: EngineBase,
    /// The weights the reuse calls compute from: bound by the session at
    /// registration, or by a direct caller's first reuse call.
    weights: Option<Bound>,
}

/// The `(n, l, m)` of an FC call, or the error its operand shapes earn.
fn fc_dims(inputs: &Tensor, weights: &Tensor) -> Result<(usize, usize, usize), MercuryError> {
    if inputs.rank() != 2 || weights.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: if inputs.rank() != 2 {
                inputs.rank()
            } else {
                weights.rank()
            },
        }
        .into());
    }
    let (n, l) = (inputs.shape()[0], inputs.shape()[1]);
    let (l2, m) = (weights.shape()[0], weights.shape()[1]);
    if l != l2 {
        return Err(TensorError::ShapeMismatch {
            left: inputs.shape().to_vec(),
            right: weights.shape().to_vec(),
        }
        .into());
    }
    Ok((n, l, m))
}

/// The detection-off FC call: exactly [`ops::matmul`], every row an MNU.
fn fc_exact(inputs: &Tensor, weights: &Tensor) -> Result<LayerForward, MercuryError> {
    let (n, l, m) = fc_dims(inputs, weights)?;
    let work = FcWork::new(OutcomeMix::all_mnu(n), m, l, 0).with_precomputed_signatures();
    let cycles = simulate_fc(&AcceleratorConfig::paper_default(), &work);
    Ok(exact_forward(ops::matmul(inputs, weights)?, n, cycles))
}

/// One reuse call of `base`'s engine: `inputs`, whose shape the caller
/// has checked, against the `bound` weights. A persistent engine's pass
/// keeps rows.
fn fc_forward(
    base: &mut EngineBase,
    inputs: &Tensor,
    bound: &Bound,
    saved: Option<&[Signature]>,
) -> LayerForward {
    let (n, l) = (inputs.shape()[0], inputs.shape()[1]);
    let m = bound.weights.shape()[1];
    let (sigs, reuse_saved) = row_signatures(base, inputs, saved);
    let mut output = Tensor::zeros(&[n, m]);
    // One owner: the layer.
    let owner = base.persistent.then_some(0);
    let panels = &bound.panels;
    let pass = base.rows_pass(&sigs, inputs.data(), l, m, panels, output.data_mut(), owner);
    let mut work = FcWork::new(pass.charged, m, l, base.signature_bits);
    if reuse_saved {
        work = work.with_precomputed_signatures();
    }
    let cycles = simulate_fc(&AcceleratorConfig::paper_default(), &work);
    reuse_forward(output, pass, cycles, sigs)
}

impl FcEngine {
    /// Creates a batch-mode FC engine (MCACHE restarts per call); the seed
    /// pins down the projection matrices.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] the configuration violates.
    pub fn try_new(config: MercuryConfig, seed: u64) -> Result<Self, ConfigError> {
        EngineBase::new(config, seed, 1, false).map(|base| FcEngine {
            base,
            weights: None,
        })
    }

    /// Creates a persistent FC engine: a banked MCACHE and its stored rows
    /// survive across calls and are evicted by
    /// [`end_epoch`](ReuseEngine::end_epoch). The engine binds the weights
    /// of its first reuse call; a call with other weights binds those and
    /// drops the stored rows, keeping the tags.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for an invalid configuration or bank
    /// split.
    pub fn persistent(config: MercuryConfig, seed: u64, banks: usize) -> Result<Self, ConfigError> {
        EngineBase::new(config, seed, banks, true).map(|base| FcEngine {
            base,
            weights: None,
        })
    }

    /// A session layer's engine: persistent `base` with `weights` bound.
    pub(crate) fn bound(base: EngineBase, weights: Tensor) -> Self {
        let mut engine = FcEngine {
            base,
            weights: None,
        };
        engine.bind(weights);
        engine
    }

    /// Binds rank-2 `weights`: packs them once and drops every row stored
    /// under the old ones.
    pub(crate) fn bind(&mut self, weights: Tensor) {
        let (l, m) = (weights.shape()[0], weights.shape()[1]);
        let mut panels = Vec::new();
        pack_panels(weights.data(), l, m, m, &mut panels);
        self.base.cache.drop_rows();
        self.weights = Some(Bound { weights, panels });
    }

    /// The bound weights.
    ///
    /// # Panics
    ///
    /// If the engine is not bound — a session binds every FC engine.
    pub(crate) fn weights(&self) -> &Tensor {
        &self
            .weights
            .as_ref()
            .expect("session engines are bound")
            .weights
    }

    /// A session submit: `inputs` against the bound weights.
    pub(crate) fn submit(&mut self, inputs: &Tensor) -> Result<LayerForward, MercuryError> {
        let bound = self.weights.as_ref().expect("session engines are bound");
        if !self.base.detection_enabled {
            return fc_exact(inputs, &bound.weights);
        }
        fc_dims(inputs, &bound.weights)?;
        Ok(fc_forward(&mut self.base, inputs, bound, None))
    }

    /// A call through [`ReuseEngine`]: with detection on, the engine binds
    /// `weights` first unless they are bound already; with detection off
    /// it is [`ops::matmul`] and binds nothing.
    fn run(
        &mut self,
        inputs: &Tensor,
        weights: &Tensor,
        saved: Option<&[Signature]>,
    ) -> Result<LayerForward, MercuryError> {
        if !self.base.detection_enabled {
            return fc_exact(inputs, weights);
        }
        fc_dims(inputs, weights)?;
        if !self.weights.as_ref().is_some_and(|b| b.holds(weights)) {
            self.bind(weights.clone());
        }
        let bound = self.weights.as_ref().expect("bound above");
        Ok(fc_forward(&mut self.base, inputs, bound, saved))
    }
}

impl ReuseEngine for FcEngine {
    fn forward(&mut self, op: LayerOp<'_>) -> Result<LayerForward, MercuryError> {
        match op {
            LayerOp::Fc { inputs, weights } => self.run(inputs, weights, None),
            other => Err(MercuryError::UnsupportedOp {
                engine: "fc",
                op: other.family(),
            }),
        }
    }

    fn forward_reusing(
        &mut self,
        op: LayerOp<'_>,
        saved: &ReuseSignatures,
    ) -> Result<LayerForward, MercuryError> {
        match op {
            LayerOp::Fc { inputs, weights } => self.run(inputs, weights, saved.as_rows()),
            other => Err(MercuryError::UnsupportedOp {
                engine: "fc",
                op: other.family(),
            }),
        }
    }

    crate::base::reuse_engine_lifecycle!();
}

/// The MERCURY engine for non-parametric self-attention (§III-C4):
/// `W = X·Xᵀ` then `Y = W·X`, reusing both products' rows across similar
/// sequence positions. Implements [`ReuseEngine`] for
/// [`LayerOp::Attention`] requests.
///
/// The paper treats attention exactly like the FC design, and so does
/// this engine: `W` is one reuse pass of the rows of `X` against `Xᵀ`,
/// and `Y` computes and fans out the rows of `W` under the same plan
/// (identical `xᵢ` give identical rows of both products). It is its own
/// type so attention layers are first-class in the unified API.
///
/// A persistent attention engine keeps tags across calls but stores no
/// rows: a row of `W` depends on the whole sequence, so a HIT on a line
/// from an earlier call has nothing it may copy. Its first vector
/// computes (counted in [`LayerStats::recomputed`]) and fans out to the
/// rest of the call.
#[derive(Debug)]
pub struct AttentionEngine {
    pub(crate) base: EngineBase,
}

impl AttentionEngine {
    /// Creates a batch-mode attention engine (MCACHE restarts per call).
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] the configuration violates.
    pub fn try_new(config: MercuryConfig, seed: u64) -> Result<Self, ConfigError> {
        EngineBase::new(config, seed, 1, false).map(|base| AttentionEngine { base })
    }

    /// Creates a persistent attention engine (banked MCACHE tags, evicted
    /// by epoch; no stored rows).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for an invalid configuration or bank
    /// split.
    pub fn persistent(config: MercuryConfig, seed: u64, banks: usize) -> Result<Self, ConfigError> {
        EngineBase::new(config, seed, banks, true).map(|base| AttentionEngine { base })
    }

    fn run(
        &mut self,
        x: &Tensor,
        saved: Option<&[Signature]>,
    ) -> Result<LayerForward, MercuryError> {
        if x.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: x.rank(),
            }
            .into());
        }
        let (t, k) = (x.shape()[0], x.shape()[1]);

        if !self.base.detection_enabled {
            let w = ops::matmul(x, &ops::transpose(x)?)?;
            let mix = OutcomeMix::all_mnu(t);
            let cycles = simulate_attention(&AcceleratorConfig::paper_default(), mix, t, k, 0);
            return Ok(exact_forward(ops::matmul(&w, x)?, t, cycles));
        }

        let (sigs, reuse_saved) = row_signatures(&mut self.base, x, saved);
        // W = X·Xᵀ, one reuse pass over the rows of X against Xᵀ.
        let xd = x.data();
        let mut panels = ScratchF32::take();
        pack_panels(ops::transpose(x)?.data(), k, t, t, &mut panels);
        let mut w = Tensor::zeros(&[t, t]);
        // A row of W depends on the whole sequence: nothing is stored.
        let pass = self
            .base
            .rows_pass(&sigs, xd, k, t, &panels, w.data_mut(), None);

        // Y = W·X: the same plan computes and fans out the rows of W.
        pack_panels(xd, t, k, k, &mut panels);
        let mut y = Tensor::zeros(&[t, k]);
        let base = &mut self.base;
        let mut product = Product {
            vectors: w.data(),
            len: t,
            width: k,
            panels: &panels,
            rows: &mut base.rows,
            dots: &mut base.dots,
            dest: y.data_mut(),
            accumulate: false,
        };
        base.plan.compute(&mut product, &[]);

        let bits = if reuse_saved {
            0
        } else {
            self.base.signature_bits
        };
        let cycles = simulate_attention(
            &AcceleratorConfig::paper_default(),
            pass.charged,
            t,
            k,
            bits,
        );
        Ok(reuse_forward(y, pass, cycles, sigs))
    }
}

impl ReuseEngine for AttentionEngine {
    fn forward(&mut self, op: LayerOp<'_>) -> Result<LayerForward, MercuryError> {
        match op {
            LayerOp::Attention { x } => self.run(x, None),
            other => Err(MercuryError::UnsupportedOp {
                engine: "attention",
                op: other.family(),
            }),
        }
    }

    fn forward_reusing(
        &mut self,
        op: LayerOp<'_>,
        saved: &ReuseSignatures,
    ) -> Result<LayerForward, MercuryError> {
        match op {
            LayerOp::Attention { x } => self.run(x, saved.as_rows()),
            other => Err(MercuryError::UnsupportedOp {
                engine: "attention",
                op: other.family(),
            }),
        }
    }

    crate::base::reuse_engine_lifecycle!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mercury_tensor::exec::ExecutorKind;
    use mercury_tensor::rng::Rng;

    /// The serial reference and the two-thread executor.
    const EXECUTORS: [ExecutorKind; 2] =
        [ExecutorKind::Serial, ExecutorKind::Threaded { threads: 2 }];

    fn engine(seed: u64) -> FcEngine {
        FcEngine::try_new(MercuryConfig::default(), seed).unwrap()
    }

    fn attention_engine(seed: u64) -> AttentionEngine {
        AttentionEngine::try_new(MercuryConfig::default(), seed).unwrap()
    }

    fn on(kind: ExecutorKind) -> MercuryConfig {
        MercuryConfig::builder().executor(kind).build().unwrap()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn randn(shape: &[usize], seed: u64) -> Tensor {
        Tensor::randn(shape, &mut Rng::new(seed))
    }

    fn fc(engine: &mut FcEngine, inputs: &Tensor, weights: &Tensor) -> LayerForward {
        engine.forward(LayerOp::fc(inputs, weights)).unwrap()
    }

    fn attend(engine: &mut AttentionEngine, x: &Tensor) -> LayerForward {
        engine.forward(LayerOp::attention(x)).unwrap()
    }

    #[test]
    fn distinct_inputs_match_exact_matmul() {
        let inputs = randn(&[6, 16], 1);
        let weights = randn(&[16, 8], 2);
        let want = ops::matmul(&inputs, &weights).unwrap();
        for kind in EXECUTORS {
            let out = fc(
                &mut FcEngine::try_new(on(kind), 1).unwrap(),
                &inputs,
                &weights,
            );
            assert_eq!(bits(&out.output), bits(&want), "{kind:?}");
            assert_eq!(out.stats().hits, 0);
        }
    }

    #[test]
    fn duplicate_rows_reuse_whole_output_rows() {
        // Minibatch where rows 2..6 duplicate row 0.
        let base = randn(&[1, 12], 3);
        let mut data = Vec::new();
        for _ in 0..5 {
            data.extend_from_slice(base.data());
        }
        let other = randn(&[1, 12], 4);
        data.extend_from_slice(other.data());
        let inputs = Tensor::from_vec(data, &[6, 12]).unwrap();
        let weights = randn(&[12, 7], 5);

        let out = fc(&mut engine(2), &inputs, &weights);
        assert_eq!(out.stats().hits, 4);
        assert_eq!(out.stats().maus, 2);
        // Reused rows are bit-identical to the producer row.
        for i in 1..5 {
            assert_eq!(
                &out.output.data()[0..7],
                &out.output.data()[i * 7..i * 7 + 7]
            );
        }
        // And they match the exact matmul (duplicates are exact here).
        let want = ops::matmul(&inputs, &weights).unwrap();
        for (g, w) in out.output.data().iter().zip(want.data()) {
            assert!((g - w).abs() < 1e-4);
        }
        assert!(out.stats().cycles.speedup() > 0.0);
    }

    #[test]
    fn detection_off_is_exact() {
        let inputs = randn(&[4, 8], 6);
        let weights = randn(&[8, 4], 7);
        let want = ops::matmul(&inputs, &weights).unwrap();
        for kind in EXECUTORS {
            let mut e = FcEngine::try_new(on(kind), 3).unwrap();
            e.set_detection(false);
            let out = fc(&mut e, &inputs, &weights);
            assert_eq!(bits(&out.output), bits(&want), "{kind:?}");
            assert_eq!(out.stats().cycles.total(), out.stats().cycles.baseline);
        }
    }

    #[test]
    fn fc_rejects_shape_mismatch() {
        let inputs = randn(&[4, 8], 8);
        let weights = randn(&[9, 4], 9);
        assert!(engine(4).forward(LayerOp::fc(&inputs, &weights)).is_err());
    }

    #[test]
    fn fc_rejects_foreign_ops() {
        let x = randn(&[4, 4], 10);
        let err = engine(5).forward(LayerOp::attention(&x)).unwrap_err();
        assert_eq!(
            err,
            MercuryError::UnsupportedOp {
                engine: "fc",
                op: "attention"
            }
        );
    }

    #[test]
    fn fc_reuses_saved_signatures() {
        let inputs = randn(&[6, 10], 11);
        let weights = randn(&[10, 5], 12);
        let mut e = engine(11);
        let first = fc(&mut e, &inputs, &weights);
        let second = e
            .forward_reusing(LayerOp::fc(&inputs, &weights), &first.report.signatures)
            .unwrap();
        // Reloaded signatures skip the signature-generation phase (only the
        // conflict serialization, if any, remains).
        assert!(second.stats().cycles.signature <= first.stats().cycles.signature);
        assert_eq!(second.output, first.output);
        assert_eq!(second.stats().hits, first.stats().hits);
    }

    #[test]
    fn attention_matches_exact_for_distinct_rows() {
        let x = randn(&[5, 8], 10);
        let xt = ops::transpose(&x).unwrap();
        let w = ops::matmul(&x, &xt).unwrap();
        let want = ops::matmul(&w, &x).unwrap();
        for kind in EXECUTORS {
            let out = attend(&mut AttentionEngine::try_new(on(kind), 5).unwrap(), &x);
            assert_eq!(out.stats().hits, 0);
            assert_eq!(out.output.shape(), &[5, 8]);
            assert_eq!(bits(&out.output), bits(&want), "{kind:?}");
        }
    }

    #[test]
    fn attention_reuses_duplicate_positions() {
        let base = randn(&[1, 8], 11);
        let mut data = Vec::new();
        for _ in 0..4 {
            data.extend_from_slice(base.data());
        }
        let x = Tensor::from_vec(data, &[4, 8]).unwrap();
        let out = attend(&mut attention_engine(6), &x);
        assert_eq!(out.stats().hits, 3);
        assert_eq!(out.stats().maus, 1);
        // All output rows identical.
        for i in 1..4 {
            assert_eq!(
                &out.output.data()[0..8],
                &out.output.data()[i * 8..i * 8 + 8]
            );
        }
    }

    #[test]
    fn attention_detection_off_is_exact() {
        let x = randn(&[4, 6], 12);
        let xt = ops::transpose(&x).unwrap();
        let want = ops::matmul(&ops::matmul(&x, &xt).unwrap(), &x).unwrap();
        for kind in EXECUTORS {
            let mut e = AttentionEngine::try_new(on(kind), 7).unwrap();
            e.set_detection(false);
            let out = attend(&mut e, &x);
            assert_eq!(bits(&out.output), bits(&want), "{kind:?}");
        }
    }

    #[test]
    fn attention_rejects_foreign_ops() {
        let inputs = randn(&[4, 8], 13);
        let weights = randn(&[8, 4], 14);
        let err = attention_engine(8)
            .forward(LayerOp::fc(&inputs, &weights))
            .unwrap_err();
        assert_eq!(
            err,
            MercuryError::UnsupportedOp {
                engine: "attention",
                op: "fc"
            }
        );
    }

    #[test]
    fn signature_growth_applies_to_fc() {
        let mut e = engine(8);
        assert_eq!(e.signature_bits(), 20);
        e.grow_signature();
        assert_eq!(e.signature_bits(), 21);
        let inputs = randn(&[3, 8], 13);
        let weights = randn(&[8, 3], 14);
        let out = fc(&mut e, &inputs, &weights);
        assert_eq!(out.report.signatures.as_rows().unwrap()[0].len(), 21);
    }

    #[test]
    fn persistent_fc_hits_across_calls_and_evicts_by_epoch() {
        let inputs = randn(&[4, 10], 15);
        let weights = randn(&[10, 6], 16);
        let mut e = FcEngine::persistent(MercuryConfig::default(), 15, 8).unwrap();
        let first = fc(&mut e, &inputs, &weights);
        assert_eq!(first.stats().maus, 4);
        assert_eq!(first.stats().hits, 0);
        // Same rows again: every probe hits a persisted tag and copies the
        // row its line stored, so nothing computes.
        let second = fc(&mut e, &inputs, &weights);
        assert_eq!(second.stats().hits, 4);
        assert_eq!(second.stats().maus, 0);
        assert_eq!(second.stats().recomputed, 0);
        assert_eq!(second.stats().cycles.computed_dots, 0);
        assert_eq!(second.output, first.output);
        e.end_epoch();
        let third = fc(&mut e, &inputs, &weights);
        assert_eq!(third.stats().maus, 4);
        assert_eq!(third.output, first.output);
    }

    #[test]
    fn persistent_fc_never_serves_rows_of_other_weights() {
        let inputs = randn(&[4, 10], 30);
        let (w1, w2) = (randn(&[10, 6], 31), randn(&[10, 6], 32));
        let exact = |w: &Tensor| bits(&ops::matmul(&inputs, w).unwrap());
        let mut e = FcEngine::persistent(MercuryConfig::default(), 30, 8).unwrap();
        fc(&mut e, &inputs, &w1);
        // The tags persist, so every row HITs; its stored row was computed
        // under w1, so each is recomputed under w2.
        let swapped = fc(&mut e, &inputs, &w2);
        assert_eq!(bits(&swapped.output), exact(&w2));
        assert_eq!((swapped.stats().hits, swapped.stats().recomputed), (4, 4));
        // The recomputed rows are stored and serve the next call.
        let warm = fc(&mut e, &inputs, &w2);
        assert_eq!(bits(&warm.output), exact(&w2));
        assert_eq!(warm.stats().recomputed, 0);
        // A malformed call is refused before it can bind its weights.
        assert!(e
            .forward(LayerOp::fc(&inputs, &randn(&[9, 6], 33)))
            .is_err());
        assert_eq!(fc(&mut e, &inputs, &w2).stats().recomputed, 0);
        // Weights changed in place are other weights too, and so is a
        // detection-off call's tensor, which binds nothing.
        let mut w3 = w2.clone();
        w3.data_mut()[7] += 1.0;
        e.set_detection(false);
        assert_eq!(bits(&fc(&mut e, &inputs, &w3).output), exact(&w3));
        e.set_detection(true);
        let changed = fc(&mut e, &inputs, &w3);
        assert_eq!(bits(&changed.output), exact(&w3));
        assert_eq!(changed.stats().recomputed, 4);
    }

    #[test]
    fn persistent_attention_stays_exact_across_calls() {
        let x = randn(&[5, 8], 17);
        let mut e = AttentionEngine::persistent(MercuryConfig::default(), 17, 8).unwrap();
        let first = attend(&mut e, &x);
        let second = attend(&mut e, &x);
        // A row of W depends on the whole sequence, so attention stores
        // none: each cross-call HIT is recomputed.
        assert_eq!(second.stats().hits, 5);
        assert_eq!(second.stats().recomputed, 5);
        assert_eq!(second.stats().cycles.reused_dots, 0);
        assert_eq!(second.output, first.output);
        assert_eq!(e.cache_bytes(), 5 * (16 + 1), "tags only");
    }

    #[test]
    fn threaded_executor_matches_serial_for_fc_and_attention() {
        let inputs = randn(&[12, 10], 20);
        let weights = randn(&[10, 6], 21);
        let x = randn(&[7, 9], 22);
        let fc_serial = fc(&mut engine(20), &inputs, &weights);
        let att_serial = attend(&mut attention_engine(20), &x);
        for threads in [2, 8] {
            let config = MercuryConfig::builder()
                .executor(mercury_tensor::exec::ExecutorKind::Threaded { threads })
                .build()
                .unwrap();
            let mut e = FcEngine::try_new(config, 20).unwrap();
            let out = fc(&mut e, &inputs, &weights);
            assert_eq!(out.output, fc_serial.output);
            assert_eq!(out.report, fc_serial.report);
            let mut a = AttentionEngine::try_new(config, 20).unwrap();
            let out = attend(&mut a, &x);
            assert_eq!(out.output, att_serial.output);
            assert_eq!(out.report, att_serial.report);
        }
    }

    #[test]
    fn batch_fc_rebinds_when_its_weights_change() {
        // A batch engine fed alternating weights, with one detection-off
        // call between: every detection-on call computes, bit for bit,
        // what a fresh engine's first call does.
        let rows = randn(&[3, 10], 40);
        // Rows 3..6 repeat rows 0..3: HITs.
        let inputs = Tensor::from_vec([rows.data(), rows.data()].concat(), &[6, 10]).unwrap();
        let (w1, w2) = (randn(&[10, 6], 41), randn(&[10, 6], 42));
        for kind in EXECUTORS {
            let new = || FcEngine::try_new(on(kind), 40).unwrap();
            let mut e = new();
            for (i, w) in [&w1, &w2, &w1, &w2, &w1].into_iter().enumerate() {
                e.set_detection(i != 3);
                let got = fc(&mut e, &inputs, w);
                if i == 3 {
                    let want = ops::matmul(&inputs, w).unwrap();
                    assert_eq!(bits(&got.output), bits(&want), "{kind:?} call {i}");
                    continue;
                }
                let want = fc(&mut new(), &inputs, w);
                assert_eq!(want.stats().hits, 3, "{kind:?} call {i}");
                assert_eq!(bits(&got.output), bits(&want.output), "{kind:?} call {i}");
                assert_eq!(got.report, want.report, "{kind:?} call {i}");
            }
        }
    }
}
