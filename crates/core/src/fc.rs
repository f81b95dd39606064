use crate::base::{EngineBase, PassOut, Product};
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
use mercury_tensor::exec::Executor;
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
            (proj.signatures(rows.data(), &mut Vec::new()), false)
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
/// runs per channel: the rows that compute are dotted with the weights,
/// packed once per call into the panels of the packed-panel row kernel
/// ([`dot_rows`](mercury_tensor::kernel::sign::dot_rows)), in one
/// contiguous chunk per executor worker, and every row takes its
/// producer's output row. With detection off the engine is
/// [`ops::matmul`], which runs on the same kernel.
#[derive(Debug)]
pub struct FcEngine {
    pub(crate) base: EngineBase,
}

impl FcEngine {
    /// Creates a batch-mode FC engine (MCACHE restarts per call); the seed
    /// pins down the projection matrices.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] the configuration violates.
    pub fn try_new(config: MercuryConfig, seed: u64) -> Result<Self, ConfigError> {
        EngineBase::new(config, seed, Executor::from_kind(config.executor), 1, false)
            .map(|base| FcEngine { base })
    }

    /// Creates a persistent FC engine: a banked MCACHE survives across
    /// calls and is evicted only by [`end_epoch`](ReuseEngine::end_epoch).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for an invalid configuration or bank
    /// split.
    pub fn persistent(config: MercuryConfig, seed: u64, banks: usize) -> Result<Self, ConfigError> {
        EngineBase::new(
            config,
            seed,
            Executor::from_kind(config.executor),
            banks,
            true,
        )
        .map(|base| FcEngine { base })
    }

    fn run(
        &mut self,
        inputs: &Tensor,
        weights: &Tensor,
        saved: Option<&[Signature]>,
    ) -> Result<LayerForward, MercuryError> {
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

        if !self.base.detection_enabled {
            let work = FcWork::new(OutcomeMix::all_mnu(n), m, l, 0).with_precomputed_signatures();
            let cycles = simulate_fc(&AcceleratorConfig::paper_default(), &work);
            return Ok(exact_forward(ops::matmul(inputs, weights)?, n, cycles));
        }

        let (sigs, reuse_saved) = row_signatures(&mut self.base, inputs, saved);
        let mut panels = ScratchF32::take();
        pack_panels(weights.data(), l, m, m, &mut panels);
        let mut output = Tensor::zeros(&[n, m]);
        let pass = self
            .base
            .rows_pass(&sigs, inputs.data(), l, m, &panels, output.data_mut());
        let mut work = FcWork::new(pass.charged, m, l, self.base.signature_bits);
        if reuse_saved {
            work = work.with_precomputed_signatures();
        }
        let cycles = simulate_fc(&AcceleratorConfig::paper_default(), &work);
        Ok(reuse_forward(output, pass, cycles, sigs))
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
        EngineBase::new(config, seed, Executor::from_kind(config.executor), 1, false)
            .map(|base| AttentionEngine { base })
    }

    /// Creates a persistent attention engine (banked MCACHE, evicted by
    /// epoch).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for an invalid configuration or bank
    /// split.
    pub fn persistent(config: MercuryConfig, seed: u64, banks: usize) -> Result<Self, ConfigError> {
        EngineBase::new(
            config,
            seed,
            Executor::from_kind(config.executor),
            banks,
            true,
        )
        .map(|base| AttentionEngine { base })
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
        let pass = self.base.rows_pass(&sigs, xd, k, t, &panels, w.data_mut());

        // Y = W·X: the same plan computes and fans out the rows of W.
        pack_panels(xd, t, k, k, &mut panels);
        let mut y = Tensor::zeros(&[t, k]);
        let base = &mut self.base;
        let product = Product {
            vectors: w.data(),
            len: t,
            width: k,
            panels: &panels,
            rows: &mut base.rows,
            dots: &mut base.dots,
            dest: y.data_mut(),
            accumulate: false,
        };
        base.plan.compute(&base.exec, product);

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
        // Same rows again: every probe hits a persisted tag; promoted
        // producers recompute so the output stays exact.
        let second = fc(&mut e, &inputs, &weights);
        assert_eq!(second.stats().hits, 4);
        assert_eq!(second.stats().maus, 0);
        assert_eq!(second.output, first.output);
        e.end_epoch();
        let third = fc(&mut e, &inputs, &weights);
        assert_eq!(third.stats().maus, 4);
        assert_eq!(third.output, first.output);
    }

    #[test]
    fn persistent_attention_stays_exact_across_calls() {
        let x = randn(&[5, 8], 17);
        let mut e = AttentionEngine::persistent(MercuryConfig::default(), 17, 8).unwrap();
        let first = attend(&mut e, &x);
        let second = attend(&mut e, &x);
        assert_eq!(second.stats().hits, 5);
        assert_eq!(second.output, first.output);
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
}
