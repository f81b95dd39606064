use crate::base::{EngineBase, ReusePlan};
use crate::config::ConfigError;
use crate::reuse::{LayerForward, LayerOp, ReuseEngine, ReuseReport, ReuseSignatures};
use crate::stats::LayerStats;
use crate::{MercuryConfig, MercuryError};
use mercury_accel::fc::{simulate_attention, simulate_fc, FcWork};
use mercury_mcache::OutcomeMix;
use mercury_rpq::Signature;
use mercury_tensor::exec::Executor;
use mercury_tensor::{ops, Tensor, TensorError};

/// Opens a reuse scope, probes one signature per row against the engine
/// cache and builds the engine's [`ReusePlan`](crate::base::ReusePlan)
/// from the outcomes. Returns the insertion conflicts the probes met.
///
/// Probing goes through the batched path, so a multi-bank cache fans the
/// probes out across its banks on a parallel executor — outcomes are
/// identical to the serial loop either way.
fn probe_rows(base: &mut EngineBase, sigs: &[Signature]) -> u64 {
    base.begin_reuse_scope();
    base.plan.probe(&mut base.cache, sigs, &base.exec)
}

/// Copies every consumer row of a row-major `[n, width]` matrix from its
/// producer: the earlier PE forwards its results in stream order.
fn forward_rows(out: &mut [f32], width: usize, plan: &ReusePlan) {
    for (i, &r) in plan.source.iter().enumerate() {
        let src = plan.compute[r as usize];
        if src != i {
            out.copy_within(src * width..(src + 1) * width, i * width);
        }
    }
}

/// Whether saved per-row signatures can stand in for fresh ones: one per
/// row, all at the engine's current signature length.
fn rows_reusable(saved: Option<&[Signature]>, n: usize, bits: usize) -> bool {
    saved
        .map(|sigs| sigs.len() == n && sigs.iter().all(|s| s.len() == bits))
        .unwrap_or(false)
}

/// Runs the producer rows of a row-sharded dense product: each index in
/// `compute` (strictly increasing — it is built by filtering `0..n` in
/// order) names one `width`-wide row of `out`, and `fill` computes that
/// row in place. The rows are disjoint `&mut` chunks fanned out across
/// the executor as owned items, so producer rows write straight into the
/// output tensor — no per-row result buffers, no copy-back pass, and no
/// allocator traffic on the pool workers. `row_work` is the per-row
/// dispatch hint in the executor's work units. `fill` performs the identical
/// per-element accumulation on either backend, so threaded output stays
/// bit-identical to serial.
fn producer_rows_into<F>(
    exec: &Executor,
    out: &mut [f32],
    width: usize,
    compute: &[usize],
    row_work: usize,
    fill: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if width == 0 {
        return; // zero-width rows carry no values to compute
    }
    let mut rows: Vec<(usize, &mut [f32])> = Vec::with_capacity(compute.len());
    let mut next = compute.iter().peekable();
    for (i, chunk) in out.chunks_mut(width).enumerate() {
        if next.peek().is_some_and(|&&c| c == i) {
            next.next();
            rows.push((i, chunk));
        }
    }
    debug_assert_eq!(rows.len(), compute.len(), "every producer row resolved");
    exec.map(rows, |_| row_work, || (), |(i, row), ()| fill(i, row));
}

/// The MERCURY engine for fully-connected layers (§III-C3): one PE per
/// input vector, block-wise weight streaming, and earlier-PE result
/// forwarding on signature matches. Implements [`ReuseEngine`] for
/// [`LayerOp::Fc`] requests; attention lives in [`AttentionEngine`].
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

        let mut output = Tensor::zeros(&[n, m]);
        let mut stats = LayerStats {
            detection_enabled: self.base.detection_enabled,
            ..LayerStats::default()
        };

        if !self.base.detection_enabled {
            let exact = ops::matmul(inputs, weights).map_err(MercuryError::Tensor)?;
            output = exact;
            stats.mnus = n as u64;
            stats.unique_vectors = n as u64;
            stats.cycles = simulate_fc(
                &self.base.config.accelerator,
                &FcWork::new(OutcomeMix::all_mnu(n), m, l, 0).with_precomputed_signatures(),
            );
            // With detection off the engine pays no signature cost and no
            // reuse: force MERCURY total == baseline.
            stats.cycles.signature = 0;
            stats.cycles.compute = stats.cycles.baseline;
            return Ok(LayerForward {
                output,
                report: ReuseReport {
                    stats,
                    signatures: ReuseSignatures::Rows(Vec::new()),
                    degraded: false,
                },
            });
        }

        let reuse_saved = rows_reusable(saved, n, self.base.signature_bits);
        let sigs: Vec<Signature> = if reuse_saved {
            saved.unwrap().to_vec()
        } else {
            self.base.signatures_for_rows(inputs)
        };

        let conflicts = probe_rows(&mut self.base, &sigs);
        let plan = &self.base.plan;

        // Producer rows — the ones that actually compute — are mutually
        // independent, so they shard across the executor; each row's
        // accumulation order is unchanged, keeping the threaded backend
        // bit-identical to serial. Consumers then copy their producer's
        // row in stream order (a producer always precedes its consumers).
        let (id, wd) = (inputs.data(), weights.data());
        let od = output.data_mut();
        // Work-size hint: one producer row costs a [1, l] x [l, m] product
        // (saturating, so overflow-shaped layers can't wrap the hint).
        producer_rows_into(
            &self.base.exec,
            od,
            m,
            &plan.compute,
            crate::base::dense_work(1, l, m),
            |i, out_row| {
                let row = &id[i * l..(i + 1) * l];
                for (j, o) in out_row.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for (k, &x) in row.iter().enumerate() {
                        acc += x * wd[k * m + j];
                    }
                    *o = acc;
                }
            },
        );
        forward_rows(od, m, plan);

        plan.tally(&mut stats);
        let mut work = FcWork::new(plan.charged(), m, l, self.base.signature_bits);
        if reuse_saved {
            work = work.with_precomputed_signatures();
        }
        stats.cycles = simulate_fc(&self.base.config.accelerator, &work);
        // Insertion conflicts serialize through the per-set queues like the
        // conv path; charge them to the signature phase.
        stats.cycles.signature += conflicts
            * self
                .base
                .config
                .accelerator
                .timing
                .mcache_insert_conflict_cycles;

        Ok(LayerForward {
            output,
            report: ReuseReport {
                stats,
                signatures: ReuseSignatures::Rows(sigs),
                degraded: false,
            },
        })
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
/// The paper treats attention exactly like the FC design; this engine
/// shares all its plumbing with [`FcEngine`] through the common base but
/// is its own type so attention layers are first-class in the unified
/// API.
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
            let xt = ops::transpose(x).map_err(MercuryError::Tensor)?;
            let w = ops::matmul(x, &xt).map_err(MercuryError::Tensor)?;
            let y = ops::matmul(&w, x).map_err(MercuryError::Tensor)?;
            let mut stats = LayerStats {
                mnus: t as u64,
                unique_vectors: t as u64,
                detection_enabled: false,
                ..LayerStats::default()
            };
            let mix = OutcomeMix::all_mnu(t);
            stats.cycles = simulate_attention(&self.base.config.accelerator, mix, t, k, 0);
            stats.cycles.signature = 0;
            stats.cycles.compute = stats.cycles.baseline;
            return Ok(LayerForward {
                output: y,
                report: ReuseReport {
                    stats,
                    signatures: ReuseSignatures::Rows(Vec::new()),
                    degraded: false,
                },
            });
        }

        let reuse_saved = rows_reusable(saved, t, self.base.signature_bits);
        let sigs: Vec<Signature> = if reuse_saved {
            saved.unwrap().to_vec()
        } else {
            self.base.signatures_for_rows(x)
        };
        let conflicts = probe_rows(&mut self.base, &sigs);
        let plan = &self.base.plan;

        // Producer rows shard across the executor for both products; row
        // arithmetic is unchanged, so the threaded backend stays
        // bit-identical to serial. Consumers copy in stream order after.
        let exec = &self.base.exec;
        let compute = &plan.compute;
        let xd = x.data();

        // W = X·Xᵀ with row reuse. Work-size hint: one producer row is t
        // k-element dots (saturating).
        let mut w = Tensor::zeros(&[t, t]);
        let wd = w.data_mut();
        producer_rows_into(
            exec,
            wd,
            t,
            compute,
            crate::base::dense_work(1, k, t),
            |i, row| {
                let xi = &xd[i * k..(i + 1) * k];
                for (j, o) in row.iter_mut().enumerate() {
                    *o = ops::dot(xi, &xd[j * k..(j + 1) * k]);
                }
            },
        );
        forward_rows(wd, t, plan);

        // Y = W·X with the same row reuse (identical xᵢ ⇒ identical rows).
        let mut y = Tensor::zeros(&[t, k]);
        let wd = w.data();
        let yd = y.data_mut();
        producer_rows_into(
            exec,
            yd,
            k,
            compute,
            crate::base::dense_work(1, t, k),
            |i, row| {
                for (j, o) in row.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for p in 0..t {
                        acc += wd[i * t + p] * xd[p * k + j];
                    }
                    *o = acc;
                }
            },
        );
        forward_rows(yd, k, plan);

        let mut stats = LayerStats {
            detection_enabled: true,
            ..LayerStats::default()
        };
        plan.tally(&mut stats);
        stats.cycles = simulate_attention(
            &self.base.config.accelerator,
            plan.charged(),
            t,
            k,
            if reuse_saved {
                0
            } else {
                self.base.signature_bits
            },
        );
        // Same-window insertion conflicts serialize through the per-set
        // queues exactly as in the FC path; charge them identically.
        stats.cycles.signature += conflicts
            * self
                .base
                .config
                .accelerator
                .timing
                .mcache_insert_conflict_cycles;

        Ok(LayerForward {
            output: y,
            report: ReuseReport {
                stats,
                signatures: ReuseSignatures::Rows(sigs),
                degraded: false,
            },
        })
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
    use mercury_tensor::rng::Rng;

    fn engine(seed: u64) -> FcEngine {
        FcEngine::try_new(MercuryConfig::default(), seed).unwrap()
    }

    fn attention_engine(seed: u64) -> AttentionEngine {
        AttentionEngine::try_new(MercuryConfig::default(), seed).unwrap()
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
        let out = fc(&mut engine(1), &inputs, &weights);
        let want = ops::matmul(&inputs, &weights).unwrap();
        for (g, w) in out.output.data().iter().zip(want.data()) {
            assert!((g - w).abs() < 1e-4);
        }
        assert_eq!(out.stats().hits, 0);
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
        let mut e = engine(3);
        e.set_detection(false);
        let out = fc(&mut e, &inputs, &weights);
        let want = ops::matmul(&inputs, &weights).unwrap();
        assert_eq!(out.output, want);
        assert_eq!(out.stats().cycles.total(), out.stats().cycles.baseline);
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
        let out = attend(&mut attention_engine(5), &x);
        let xt = ops::transpose(&x).unwrap();
        let w = ops::matmul(&x, &xt).unwrap();
        let want = ops::matmul(&w, &x).unwrap();
        for (g, w) in out.output.data().iter().zip(want.data()) {
            assert!((g - w).abs() < 1e-3);
        }
        assert_eq!(out.output.shape(), &[5, 8]);
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
        let mut e = attention_engine(7);
        e.set_detection(false);
        let out = attend(&mut e, &x);
        let xt = ops::transpose(&x).unwrap();
        let want = ops::matmul(&ops::matmul(&x, &xt).unwrap(), &x).unwrap();
        assert_eq!(out.output, want);
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
