#[cfg(feature = "fault-inject")]
use crate::base::{draw_faults, fault_post, fault_pre};
use crate::base::{Bound, EngineBase, PassOut, Product, ReusePlan};
use crate::config::ConfigError;
use crate::reuse::{LayerForward, LayerOp, ReuseEngine, ReuseReport, ReuseSignatures};
use crate::stats::LayerStats;
use crate::{MercuryConfig, MercuryError, SavedSignatures};
use mercury_accel::config::AcceleratorConfig;
use mercury_accel::sim::{ChannelWork, LayerSim};
#[cfg(feature = "fault-inject")]
use mercury_faults::FaultSite;
use mercury_mcache::{MCache, OutcomeMix};
use mercury_rpq::{ProjectionMatrix, Signature};
use mercury_tensor::conv::{self, extract_patches_into, ConvGeometry};
use mercury_tensor::exec::Executor;
use mercury_tensor::kernel::{self, sign::LANES};
use mercury_tensor::scratch::ScratchF32;
use mercury_tensor::{Tensor, TensorError};

/// The MERCURY convolution engine: similarity detection + computation
/// reuse for one layer at a time, with an MCACHE and projection matrices
/// shared across calls. Implements [`ReuseEngine`] for
/// [`LayerOp::Conv`] requests.
///
/// Per channel, the engine runs the one reuse pass the FC and attention
/// engines run per call: the vectors that compute are dotted with every
/// filter in one pass of the packed-panel row kernel
/// ([`dot_rows`](mercury_tensor::kernel::sign::dot_rows)), and every HIT
/// takes its producer's whole row of `F` filter outputs (§III-C1) — the
/// value the hardware reads back from MCACHE. The rows land in a
/// position-major `[P, F]` accumulator, one add per element per channel
/// in channel order, which is transposed to `[F, oh, ow]` once per layer.
/// [`LayerSim`] charges the data traffic: one MCACHE read per HIT and one
/// write per MAU. With detection off the engine is the exact layer: it
/// runs [`conv2d_multi`](mercury_tensor::conv::conv2d_multi) and books
/// every vector as an MNU.
///
/// Every reuse forward computes from kernels the engine has bound: packed
/// once, and kept until a forward passes other kernels, which the engine
/// binds in their place. Both modes hold the same cache type, an
/// [`MCache`]: a batch engine ([`ConvEngine::try_new`]) holds one bank and
/// restarts it per channel. In **persistent mode**
/// ([`ConvEngine::persistent`], the mode
/// [`MercurySession`](crate::MercurySession) uses) the cache's sets split
/// across banks (§V), it survives across channels and submits, and each
/// line keeps the `F`-float row its producer computed, for the channel
/// that stored it: a HIT in a later submit on the same channel copies that
/// row. A HIT on a line another channel stored — the filter slices differ
/// — is recomputed: its first vector computes (charged as an MAU and
/// counted in [`LayerStats::recomputed`]) and fans its row out to the rest
/// of the channel. Binding other kernels drops every stored row first.
/// Eviction happens only at [`end_epoch`](ReuseEngine::end_epoch).
///
/// See the [crate docs](crate) for the full pipeline and an example.
#[derive(Debug)]
pub struct ConvEngine {
    pub(crate) base: EngineBase,
    /// The kernels the reuse forwards compute from: bound by the session
    /// at registration, or by a direct caller's first reuse forward.
    kernels: Option<Bound>,
    /// Schedules a batch engine's channels, which §III-B3 makes
    /// independent. Resolving it joins the pool of that width the building
    /// thread already has, so the conv layers of one network share one
    /// pool. A persistent engine's channels share its cache and run in
    /// order on the calling thread, so it holds the serial executor.
    exec: Executor,
}

impl ConvEngine {
    /// Creates a batch-mode engine (MCACHE restarts per channel, §III-B3)
    /// with the given configuration and RNG seed (the seed pins down the
    /// random projection matrices).
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] the configuration violates.
    pub fn try_new(config: MercuryConfig, seed: u64) -> Result<Self, ConfigError> {
        EngineBase::new(config, seed, 1, false).map(|base| ConvEngine {
            base,
            kernels: None,
            exec: Executor::from_kind(config.executor),
        })
    }

    /// Creates a persistent engine: the MCACHE is split across `banks`
    /// banks, survives with its stored rows across forward passes, and is
    /// evicted only by [`end_epoch`](ReuseEngine::end_epoch). The engine
    /// binds the kernels of its first reuse forward.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for an invalid configuration or a bank
    /// count that does not divide the cache's set count.
    pub fn persistent(config: MercuryConfig, seed: u64, banks: usize) -> Result<Self, ConfigError> {
        EngineBase::new(config, seed, banks, true).map(|base| ConvEngine {
            base,
            kernels: None,
            exec: Executor::serial(),
        })
    }

    /// A session layer's engine: persistent `base` with `kernels` bound.
    pub(crate) fn bound(base: EngineBase, kernels: Tensor) -> Self {
        let mut engine = ConvEngine {
            base,
            kernels: None,
            exec: Executor::serial(),
        };
        engine.bind(kernels);
        engine
    }

    /// Binds rank-4 `kernels`: packs them once and drops every row stored
    /// under the old ones.
    pub(crate) fn bind(&mut self, kernels: Tensor) {
        let panels = conv::filter_panels(&kernels);
        self.base.cache.drop_rows();
        self.kernels = Some(Bound {
            weights: kernels,
            panels,
        });
    }

    /// The bound kernels.
    ///
    /// # Panics
    ///
    /// If the engine is not bound — a session binds every conv engine.
    pub(crate) fn kernels(&self) -> &Tensor {
        &self
            .kernels
            .as_ref()
            .expect("session engines are bound")
            .weights
    }

    /// A session submit: `input` through the bound kernels.
    pub(crate) fn submit(
        &mut self,
        input: &Tensor,
        stride: usize,
        pad: usize,
    ) -> Result<LayerForward, MercuryError> {
        let bound = self.kernels.as_ref().expect("session engines are bound");
        let geom = conv_geometry(input, &bound.weights, stride, pad)?;
        if !self.base.detection_enabled {
            return run_exact(&self.base, input, &bound.weights, &geom);
        }
        conv_forward(&mut self.base, &self.exec, input, bound, &geom, None)
    }

    /// A forward through [`ReuseEngine`]: with detection on, the engine
    /// binds `kernels` first unless they are bound already; with detection
    /// off it is the exact layer and binds nothing.
    fn run(
        &mut self,
        input: &Tensor,
        kernels: &Tensor,
        stride: usize,
        pad: usize,
        saved: Option<&SavedSignatures>,
    ) -> Result<LayerForward, MercuryError> {
        let geom = conv_geometry(input, kernels, stride, pad)?;
        if !self.base.detection_enabled {
            return run_exact(&self.base, input, kernels, &geom);
        }
        if !self.kernels.as_ref().is_some_and(|b| b.holds(kernels)) {
            self.bind(kernels.clone());
        }
        let bound = self.kernels.as_ref().expect("bound above");
        conv_forward(&mut self.base, &self.exec, input, bound, &geom, saved)
    }
}

/// The geometry of a conv forward of `[C, H, W]` `input` through
/// `[F, C, k1, k2]` `kernels`, or the error its operands earn.
fn conv_geometry(
    input: &Tensor,
    kernels: &Tensor,
    stride: usize,
    pad: usize,
) -> Result<ConvGeometry, MercuryError> {
    if input.rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: input.rank(),
        }
        .into());
    }
    if kernels.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: kernels.rank(),
        }
        .into());
    }
    let (h, w) = (input.shape()[1], input.shape()[2]);
    let (kh, kw) = (kernels.shape()[2], kernels.shape()[3]);
    if input.shape()[0] != kernels.shape()[1] {
        return Err(TensorError::ShapeMismatch {
            left: input.shape().to_vec(),
            right: kernels.shape().to_vec(),
        }
        .into());
    }
    ConvGeometry::new(h, w, kh, kw, stride, pad).map_err(MercuryError::Tensor)
}

/// One reuse forward of `base`'s engine: `input` through the `bound`
/// kernels, whose operands `geom` has checked, with a batch engine's
/// channels scheduled on `exec`. A persistent engine's channel passes keep
/// rows.
fn conv_forward(
    base: &mut EngineBase,
    exec: &Executor,
    input: &Tensor,
    bound: &Bound,
    geom: &ConvGeometry,
    saved: Option<&SavedSignatures>,
) -> Result<LayerForward, MercuryError> {
    let c = input.shape()[0];
    let kernels = &bound.weights;
    let (f, kh, kw) = (kernels.shape()[0], kernels.shape()[2], kernels.shape()[3]);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patches_n = geom.num_patches();
    let plen = geom.patch_len();
    let bits = base.signature_bits;
    let mut sim = LayerSim::new(AcceleratorConfig::paper_default());

    // Reuse of saved signatures requires one saved list per input
    // channel — `compatible` cannot check that (it does not know `c`),
    // and a shorter `per_channel` would otherwise be indexed out of
    // bounds.
    let saved = saved.filter(|s| {
        s.per_channel.len() == c && s.compatible((kh, kw), patches_n) && s.bits == bits
    });

    // Every channel (on every worker — the projection is read-only
    // for the whole forward) signs its patch rows against the
    // projection's packed filters.
    let projection = match saved {
        Some(_) => None,
        None => Some(base.projections.get(plen, bits)),
    };

    let ctx = ChannelCtx {
        input,
        geom,
        f,
        panels: &bound.panels,
        projection,
        saved,
    };
    // Position-major accumulator: row `v` holds vector `v`'s `F` outputs.
    let mut acc = ScratchF32::zeroed(patches_n * f);

    // ---- Per-channel execution ---------------------------------------
    //
    // Batch engines restart MCACHE at every channel (§III-B3), so the
    // channels are fully independent: on a parallel executor they shard
    // across the pool, each worker owning a scratch cache (its own
    // "MCACHE set range" — probe/insert is single-writer per shard) and
    // reusing its packed buffers across the channels it claims. A fresh
    // scratch cache is indistinguishable from the serial
    // clear-per-channel discipline, and each channel's contribution
    // block folds into the output in channel order — the exact add
    // sequence the sequential loop performs — so outcomes are
    // bit-identical to the serial executor.
    //
    // Persistent engines carry tags *across* channels within a submit
    // (that is the cross-request detection the session buys), so their
    // channel loop stays sequential. Either way each channel's reuse pass
    // runs whole on the thread that runs the channel.
    //
    // Fault events are drawn here on the dispatching thread, one per
    // channel in channel order, BEFORE any fan-out — which channel
    // faults never depends on the executor or pool scheduling.
    #[cfg(feature = "fault-inject")]
    let channel_faults = draw_faults(FaultSite::ChannelShard, c);
    #[cfg(feature = "fault-inject")]
    let channel_faults = &channel_faults;
    type ChannelResult = Result<(PassOut, Option<Vec<Signature>>, Vec<f32>), MercuryError>;
    let channel_outs: Vec<ChannelResult> = if base.persistent || !exec.is_parallel() {
        // Sequential channel loop — persistent engines always (tags
        // persist *across* channels), batch engines whenever the
        // executor is serial. Both accumulate straight into the
        // accumulator and reuse the engine's own cache, so the default
        // path pays no per-channel contribution buffer and no scratch
        // caches; batch mode restarts the cache per channel (clear_scope).
        let clear_scope = !base.persistent;
        let cache = &mut base.cache;
        let mut scratch = ConvScratch::default();
        let od = &mut acc[..];
        (0..c)
            .map(|ch| {
                #[cfg(feature = "fault-inject")]
                fault_pre(FaultSite::ChannelShard, channel_faults, ch);
                let res = conv_channel(&ctx, ch, cache, clear_scope, &mut scratch, od, true)
                    .map(|(pass, sigs)| (pass, sigs, Vec::new()));
                #[cfg(feature = "fault-inject")]
                if res.is_ok() {
                    fault_post(channel_faults, ch, od);
                }
                res
            })
            .collect()
    } else {
        let cache_cfg = base.config.cache;
        // Workers probe their own scratch caches, so the engine's
        // `base.cache` is untouched on this path — its counters only
        // reflect serial-executor batch runs.
        let ctx = &ctx;
        exec.map(
            0..c,
            || (MCache::new(cache_cfg), ConvScratch::default()),
            move |ch, state| {
                #[cfg(feature = "fault-inject")]
                fault_pre(FaultSite::ChannelShard, channel_faults, ch);
                let (cache, scratch) = state;
                let mut contrib = vec![0.0f32; f * patches_n];
                let res = conv_channel(ctx, ch, cache, true, scratch, &mut contrib, false);
                #[cfg(feature = "fault-inject")]
                fault_post(channel_faults, ch, &mut contrib);
                res.map(|(pass, sigs)| (pass, sigs, contrib))
            },
        )
    };
    // A batch engine's last channel scope ends with the forward: its
    // cache is left empty, as the sharded path leaves it, so what it
    // reports resident never depends on the executor.
    if !base.persistent {
        base.cache.clear();
    }

    // ---- Deterministic reduce ----------------------------------------
    // Channel contributions fold into the accumulator, the cycle simulator,
    // and the statistics in channel order — the exact add sequence the
    // serial reference performs — so scheduling never shows up in any
    // observable number.
    let mut stats = LayerStats {
        detection_enabled: true,
        ..LayerStats::default()
    };
    let mut saved_out: Vec<Vec<Signature>> = Vec::with_capacity(c);
    for out in channel_outs {
        let (pass, sigs, contrib) = out?;
        // Batch channels return their contribution block (persistent
        // ones accumulated in place and return an empty one).
        for (o, &x) in acc.iter_mut().zip(&contrib) {
            *o += x;
        }
        // Statistics report the raw probe outcomes (cross-pass repeats
        // are HITs — the similarity the hardware observed); the cycle
        // simulator is charged with recomputed HITs as MAUs, since those
        // vectors computed rather than reused.
        let mut work =
            ChannelWork::new(pass.charged, f, kh, bits).with_insert_conflicts(pass.conflicts);
        if saved.is_some() {
            work = work.with_precomputed_signatures();
        }
        sim.push_channel(&work);
        stats.accumulate(&pass.counts);
        if let Some(s) = sigs {
            saved_out.push(s);
        }
    }

    stats.cycles = sim.finish();
    let mut output = Tensor::zeros(&[f, oh, ow]);
    kernel::pack::transpose_pack(output.data_mut(), &acc, patches_n, f);
    let per_channel = match saved {
        // The pass consumed the saved signatures unchanged; clone them
        // once here, outside the per-channel hot path.
        Some(s) => s.per_channel.clone(),
        None => saved_out,
    };
    Ok(LayerForward {
        output,
        report: ReuseReport {
            stats,
            signatures: ReuseSignatures::Conv(SavedSignatures {
                kernel: (kh, kw),
                bits,
                per_channel,
            }),
            degraded: false,
        },
    })
}

/// The detection-off forward: exactly [`conv::conv2d_multi`], booked as
/// one all-MNU channel per input channel with no signature cost and one
/// empty signature list per channel, for operands `geom` has checked.
fn run_exact(
    base: &EngineBase,
    input: &Tensor,
    kernels: &Tensor,
    geom: &ConvGeometry,
) -> Result<LayerForward, MercuryError> {
    let c = input.shape()[0];
    let f = kernels.shape()[0];
    // The channel fault events keep their order and their target slot.
    #[cfg(feature = "fault-inject")]
    let channel_faults = draw_faults(FaultSite::ChannelShard, c);
    #[cfg(feature = "fault-inject")]
    (0..c).for_each(|ch| fault_pre(FaultSite::ChannelShard, &channel_faults, ch));
    let output = conv::conv2d_multi(input, kernels, geom.stride, geom.pad)?;
    #[cfg(feature = "fault-inject")]
    let output = {
        let mut output = output;
        (0..c).for_each(|ch| fault_post(&channel_faults, ch, output.data_mut()));
        output
    };

    let patches_n = geom.num_patches();
    let work = ChannelWork::new(OutcomeMix::all_mnu(patches_n), f, geom.kernel_h, 0);
    let mut sim = LayerSim::new(AcceleratorConfig::paper_default());
    for _ in 0..c {
        sim.push_channel(&work);
    }
    let vectors = (c * patches_n) as u64;
    Ok(LayerForward {
        output,
        report: ReuseReport {
            stats: LayerStats {
                mnus: vectors,
                unique_vectors: vectors,
                cycles: sim.finish(),
                ..LayerStats::default()
            },
            signatures: ReuseSignatures::Conv(SavedSignatures {
                kernel: (geom.kernel_h, geom.kernel_w),
                bits: base.signature_bits,
                per_channel: vec![Vec::new(); c],
            }),
            degraded: false,
        },
    })
}

/// Immutable per-forward context shared by every channel worker of one
/// [`conv_forward`] call.
struct ChannelCtx<'a> {
    input: &'a Tensor,
    geom: &'a ConvGeometry,
    f: usize,
    /// Every channel's packed `[plen, F]` filter panel, channel-major
    /// (see [`filter_panels`](conv::filter_panels)).
    panels: &'a [f32],
    /// The projection for `plen`-element patches; `Some` exactly when
    /// fresh signatures will be generated.
    projection: Option<&'a ProjectionMatrix>,
    /// `Some` when compatible saved signatures replace generation.
    saved: Option<&'a SavedSignatures>,
}

/// Reusable per-worker buffers: the im2col patch matrix, the compute rows
/// copied contiguously, their `[rows, ⌈F/LANES⌉·LANES]` dot products, and
/// the reuse plan. A worker allocates these once and reuses them across
/// every channel it claims; the `f32` buffers draw from the per-thread
/// [`ScratchF32`] arena, so a pool worker's *next* region recycles the
/// same allocations instead of contending on the global allocator (the
/// scratch is created and dropped inside the worker's runner closure, so
/// take and return land on the same thread-local free list).
#[derive(Default)]
struct ConvScratch {
    patch_buf: ScratchF32,
    rows: ScratchF32,
    dots: ScratchF32,
    sig_words: Vec<u128>,
    plan: ReusePlan,
}

/// Runs one channel of a conv forward: im2col, similarity detection, then
/// the one reuse pass ([`ReusePlan::pass`]) — reuse planning, the compute
/// rows and the fan-out. Returns the pass's report and the signatures to
/// save (`None` when saved signatures were reused). `clear_scope`
/// distinguishes the batch discipline (restart the cache per channel,
/// §III-B3 — what makes channels independent and therefore shardable)
/// from the persistent discipline (tags and the rows each channel stores
/// stay resident; the caller must then run channels sequentially). The
/// whole channel runs on the calling thread.
///
/// The channel's position-major `[patches_n, f]` block lands in `dest`:
/// with `accumulate` it adds in place (the sequential path hands the
/// layer accumulator directly — one add per element per channel, the
/// hardware's fan-out order); without, it stores into the caller's block
/// (the sharded batch path, whose blocks fold into the accumulator
/// afterwards in channel order).
#[allow(clippy::too_many_arguments)]
fn conv_channel(
    ctx: &ChannelCtx<'_>,
    ch: usize,
    cache: &mut MCache,
    clear_scope: bool,
    scratch: &mut ConvScratch,
    dest: &mut [f32],
    accumulate: bool,
) -> Result<(PassOut, Option<Vec<Signature>>), MercuryError> {
    let geom = ctx.geom;
    let (f, plen) = (ctx.f, geom.patch_len());
    let hw = geom.height * geom.width;
    extract_patches_into(
        &ctx.input.data()[ch * hw..(ch + 1) * hw],
        geom,
        &mut scratch.patch_buf,
    )
    .map_err(MercuryError::Tensor)?;

    // ---- Similarity detection --------------------------------------------
    // Fresh signatures come from one row-kernel pass with fused sign
    // quantization; saved ones are borrowed, never cloned, on the hot path.
    let sigs_owned: Option<Vec<Signature>> = match ctx.saved {
        Some(_) => None,
        None => {
            let proj = ctx.projection.expect("projection drawn before channel run");
            Some(proj.signatures(&scratch.patch_buf, &mut scratch.sig_words))
        }
    };
    let sigs: &[Signature] = match &sigs_owned {
        Some(s) => s,
        None => &ctx.saved.unwrap().per_channel[ch],
    };

    // One reuse pass over the channel's patches: batch engines restart
    // MCACHE here (§III-B3); persistent engines keep tags resident across
    // channels and submits, evicting only at epoch boundaries.
    let ld = f.div_ceil(LANES) * LANES;
    let product = Product {
        vectors: &scratch.patch_buf,
        len: plen,
        width: f,
        panels: &ctx.panels[ch * plen * ld..(ch + 1) * plen * ld],
        rows: &mut scratch.rows,
        dots: &mut scratch.dots,
        dest,
        accumulate,
    };
    let owner = (!clear_scope).then_some(ch as u32);
    let pass = scratch.plan.pass(cache, clear_scope, sigs, product, owner);
    Ok((pass, sigs_owned))
}

impl ReuseEngine for ConvEngine {
    fn forward(&mut self, op: LayerOp<'_>) -> Result<LayerForward, MercuryError> {
        match op {
            LayerOp::Conv {
                input,
                kernels,
                stride,
                pad,
            } => self.run(input, kernels, stride, pad, None),
            other => Err(MercuryError::UnsupportedOp {
                engine: "conv",
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
            LayerOp::Conv {
                input,
                kernels,
                stride,
                pad,
            } => self.run(input, kernels, stride, pad, saved.as_conv()),
            other => Err(MercuryError::UnsupportedOp {
                engine: "conv",
                op: other.family(),
            }),
        }
    }

    crate::base::reuse_engine_lifecycle!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mercury_tensor::conv::conv2d_multi;
    use mercury_tensor::rng::Rng;

    fn engine(seed: u64) -> ConvEngine {
        ConvEngine::try_new(MercuryConfig::default(), seed).unwrap()
    }

    fn forward(
        engine: &mut ConvEngine,
        input: &Tensor,
        kernels: &Tensor,
        stride: usize,
        pad: usize,
    ) -> LayerForward {
        engine
            .forward(LayerOp::conv(input, kernels, stride, pad))
            .unwrap()
    }

    fn conv_sigs(fwd: &LayerForward) -> &SavedSignatures {
        fwd.report.signatures.as_conv().expect("conv signatures")
    }

    #[test]
    fn output_shape_matches_reference() {
        let mut rng = Rng::new(1);
        let input = Tensor::randn(&[2, 7, 7], &mut rng);
        let kernels = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        let out = forward(&mut engine(1), &input, &kernels, 1, 0);
        assert_eq!(out.output.shape(), &[3, 5, 5]);
    }

    #[test]
    fn random_input_matches_exact_convolution() {
        // With i.i.d. random inputs, distinct patches essentially never
        // collide at 20 bits, so MERCURY output == exact convolution.
        let mut rng = Rng::new(2);
        let input = Tensor::randn(&[1, 6, 6], &mut rng);
        let kernels = Tensor::randn(&[2, 1, 3, 3], &mut rng);
        let got = forward(&mut engine(2), &input, &kernels, 1, 0);
        let want = conv2d_multi(&input, &kernels, 1, 0).unwrap();
        for (g, w) in got.output.data().iter().zip(want.data()) {
            assert!((g - w).abs() < 1e-4, "got {g}, want {w}");
        }
    }

    #[test]
    fn constant_input_reuses_almost_everything() {
        // Every patch of a constant image is identical: one MAU per
        // channel, the rest HITs, and the output still matches exactly.
        // 16x16 input and 64 filters: large enough that PE-set chunks hold
        // several vectors and the signature phase amortizes, as in real
        // conv layers.
        let input = Tensor::full(&[1, 16, 16], 0.5);
        let mut rng = Rng::new(3);
        let kernels = Tensor::randn(&[64, 1, 3, 3], &mut rng);
        let out = forward(&mut engine(3), &input, &kernels, 1, 0);
        assert_eq!(out.stats().maus, 1);
        assert_eq!(out.stats().hits, 196 - 1);
        assert_eq!(out.stats().unique_vectors, 1);
        let want = conv2d_multi(&input, &kernels, 1, 0).unwrap();
        for (g, w) in out.output.data().iter().zip(want.data()) {
            assert!((g - w).abs() < 1e-4);
        }
        assert!(out.stats().cycles.speedup() > 1.0);
    }

    #[test]
    fn hit_reuses_producer_value() {
        // A 3x4 image with constant rows: its two 3x3 patches are
        // identical, so the second's output must equal the first's exactly
        // (reuse substitutes the producer's result).
        let img = Tensor::from_vec(
            vec![
                1.0, 1.0, 1.0, 1.0, //
                2.0, 2.0, 2.0, 2.0, //
                3.0, 3.0, 3.0, 3.0,
            ],
            &[1, 3, 4],
        )
        .unwrap();
        let mut rng = Rng::new(4);
        let kernels = Tensor::randn(&[1, 1, 3, 3], &mut rng);
        let out = forward(&mut engine(4), &img, &kernels, 1, 0);
        assert_eq!(out.output.shape(), &[1, 1, 2]);
        // Both patches identical → outputs identical.
        assert_eq!(out.output.data()[0], out.output.data()[1]);
        assert_eq!(out.stats().hits, 1);
    }

    #[test]
    fn detection_off_is_exact_and_baseline_cost() {
        let mut rng = Rng::new(5);
        let input = Tensor::randn(&[2, 6, 6], &mut rng);
        let kernels = Tensor::randn(&[2, 2, 3, 3], &mut rng);
        let mut e = engine(5);
        e.set_detection(false);
        let out = forward(&mut e, &input, &kernels, 1, 0);
        assert!(!out.stats().detection_enabled);
        assert_eq!(out.stats().hits, 0);
        assert_eq!(out.stats().cycles.signature, 0);
        let want = conv2d_multi(&input, &kernels, 1, 0).unwrap();
        for (g, w) in out.output.data().iter().zip(want.data()) {
            assert!((g - w).abs() < 1e-4);
        }
    }

    #[test]
    fn detection_off_forward_is_conv2d_multi_bit_for_bit() {
        // Off means the exact layer: the same bits as `conv2d_multi`,
        // which accumulates channel by channel in place, on every
        // executor.
        let mut rng = Rng::new(15);
        let input = Tensor::randn(&[4, 9, 9], &mut rng);
        let kernels = Tensor::randn(&[5, 4, 3, 3], &mut rng);
        let want = conv2d_multi(&input, &kernels, 1, 1).unwrap();
        for kind in [
            mercury_tensor::exec::ExecutorKind::Serial,
            mercury_tensor::exec::ExecutorKind::Threaded { threads: 2 },
        ] {
            let config = MercuryConfig::builder().executor(kind).build().unwrap();
            let mut e = ConvEngine::try_new(config, 15).unwrap();
            e.set_detection(false);
            let out = forward(&mut e, &input, &kernels, 1, 1);
            assert_eq!(out.output, want, "{kind:?}");
            assert_eq!(out.stats().mnus, 4 * 81);
            assert_eq!(out.stats().unique_vectors, 4 * 81);
        }
    }

    #[test]
    fn saved_signatures_skip_signature_phase() {
        let input = Tensor::full(&[1, 8, 8], 1.0);
        let mut rng = Rng::new(6);
        let kernels = Tensor::randn(&[2, 1, 3, 3], &mut rng);
        let mut e = engine(6);
        let first = forward(&mut e, &input, &kernels, 1, 0);
        let second = e
            .forward_reusing(
                LayerOp::conv(&input, &kernels, 1, 0),
                &first.report.signatures,
            )
            .unwrap();
        assert_eq!(second.stats().cycles.signature, 0);
        assert!(second.stats().cycles.total() < first.stats().cycles.total());
        // Outcomes identical since signatures identical.
        assert_eq!(second.stats().hits, first.stats().hits);
    }

    #[test]
    fn channel_count_mismatch_falls_back_to_fresh_signatures() {
        // Signatures saved from a 2-channel input must not be reused for a
        // 3-channel input of the same spatial/kernel geometry: per-channel
        // lists would run out at channel 2. The engine must recompute
        // instead of panicking.
        let mut rng = Rng::new(14);
        let kernels2 = Tensor::randn(&[2, 2, 3, 3], &mut rng);
        let kernels3 = Tensor::randn(&[2, 3, 3, 3], &mut rng);
        let input2 = Tensor::randn(&[2, 8, 8], &mut rng);
        let input3 = Tensor::randn(&[3, 8, 8], &mut rng);
        let mut e = engine(14);
        let saved = forward(&mut e, &input2, &kernels2, 1, 0).report.signatures;
        assert_eq!(saved.as_conv().unwrap().per_channel.len(), 2);
        let out = e
            .forward_reusing(LayerOp::conv(&input3, &kernels3, 1, 0), &saved)
            .unwrap();
        assert!(
            out.stats().cycles.signature > 0,
            "signatures were recomputed"
        );
        assert_eq!(conv_sigs(&out).per_channel.len(), 3);
    }

    #[test]
    fn detection_off_signatures_are_not_reusable() {
        // A detection-off pass records one empty signature list per
        // channel; feeding that back into a detection-on pass must be
        // treated as incompatible (lengths differ from the patch count)
        // and fall back to fresh signatures rather than indexing into the
        // empty lists.
        let mut rng = Rng::new(13);
        let input = Tensor::randn(&[2, 8, 8], &mut rng);
        let kernels = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        let mut e = engine(13);
        e.set_detection(false);
        let off = forward(&mut e, &input, &kernels, 1, 0);
        assert!(off.report.signatures.is_empty());
        assert_eq!(conv_sigs(&off).per_channel.len(), 2);
        e.set_detection(true);
        let on = e
            .forward_reusing(
                LayerOp::conv(&input, &kernels, 1, 0),
                &off.report.signatures,
            )
            .unwrap();
        assert!(on.stats().cycles.signature > 0, "signatures recomputed");
        assert_eq!(conv_sigs(&on).per_channel[0].len(), 36);
    }

    #[test]
    fn incompatible_saved_signatures_fall_back() {
        let input = Tensor::full(&[1, 8, 8], 1.0);
        let mut rng = Rng::new(7);
        let kernels3 = Tensor::randn(&[1, 1, 3, 3], &mut rng);
        let kernels5 = Tensor::randn(&[1, 1, 5, 5], &mut rng);
        let mut e = engine(7);
        let first = forward(&mut e, &input, &kernels3, 1, 0);
        // 5x5 kernels: saved 3x3 signatures are incompatible → fresh ones.
        let second = e
            .forward_reusing(
                LayerOp::conv(&input, &kernels5, 1, 0),
                &first.report.signatures,
            )
            .unwrap();
        assert!(second.stats().cycles.signature > 0);
        assert_eq!(conv_sigs(&second).kernel, (5, 5));
    }

    #[test]
    fn foreign_ops_are_rejected() {
        let mut e = engine(20);
        let x = Tensor::zeros(&[4, 4]);
        let err = e.forward(LayerOp::attention(&x)).unwrap_err();
        assert_eq!(
            err,
            MercuryError::UnsupportedOp {
                engine: "conv",
                op: "attention"
            }
        );
    }

    #[test]
    fn grow_signature_respects_max() {
        let config = MercuryConfig {
            initial_signature_bits: 63,
            max_signature_bits: 64,
            ..MercuryConfig::default()
        };
        let mut e = ConvEngine::try_new(config, 8).unwrap();
        assert_eq!(e.grow_signature(), 64);
        assert_eq!(e.grow_signature(), 64); // saturates
    }

    #[test]
    fn growing_signature_extends_projection() {
        let input = Tensor::full(&[1, 6, 6], 2.0);
        let mut rng = Rng::new(9);
        let kernels = Tensor::randn(&[1, 1, 3, 3], &mut rng);
        let mut e = engine(9);
        let a = forward(&mut e, &input, &kernels, 1, 0);
        e.grow_signature();
        let b = forward(&mut e, &input, &kernels, 1, 0);
        assert_eq!(conv_sigs(&a).bits, 20);
        assert_eq!(conv_sigs(&b).bits, 21);
        // Constant image still fully reuses at the longer signature.
        assert_eq!(b.stats().hits, a.stats().hits);
    }

    #[test]
    fn rejects_bad_shapes() {
        let mut e = engine(10);
        let input = Tensor::zeros(&[2, 6, 6]);
        let bad_kernels = Tensor::zeros(&[2, 3, 3, 3]); // channel mismatch
        assert!(e
            .forward(LayerOp::conv(&input, &bad_kernels, 1, 0))
            .is_err());
        let flat = Tensor::zeros(&[6, 6]);
        let kernels = Tensor::zeros(&[1, 1, 3, 3]);
        assert!(e.forward(LayerOp::conv(&flat, &kernels, 1, 0)).is_err());
    }

    #[test]
    fn stride_and_padding_are_honoured() {
        let mut rng = Rng::new(11);
        let input = Tensor::randn(&[1, 8, 8], &mut rng);
        let kernels = Tensor::randn(&[1, 1, 3, 3], &mut rng);
        let out = forward(&mut engine(11), &input, &kernels, 2, 1);
        let want = conv2d_multi(&input, &kernels, 2, 1).unwrap();
        assert_eq!(out.output.shape(), want.shape());
    }

    #[test]
    fn multichannel_accumulation_matches_reference() {
        let mut rng = Rng::new(12);
        let input = Tensor::randn(&[3, 5, 5], &mut rng);
        let kernels = Tensor::randn(&[2, 3, 3, 3], &mut rng);
        let out = forward(&mut engine(12), &input, &kernels, 1, 0);
        let want = conv2d_multi(&input, &kernels, 1, 0).unwrap();
        for (g, w) in out.output.data().iter().zip(want.data()) {
            assert!((g - w).abs() < 1e-3);
        }
    }

    #[test]
    fn threaded_executor_matches_serial_bit_for_bit() {
        let mut rng = Rng::new(30);
        let input = Tensor::randn(&[3, 10, 10], &mut rng);
        let kernels = Tensor::randn(&[4, 3, 3, 3], &mut rng);
        let serial_out = forward(&mut engine(30), &input, &kernels, 1, 1);
        for threads in [2, 8] {
            let config = MercuryConfig::builder()
                .executor(mercury_tensor::exec::ExecutorKind::Threaded { threads })
                .build()
                .unwrap();
            let mut e = ConvEngine::try_new(config, 30).unwrap();
            let out = forward(&mut e, &input, &kernels, 1, 1);
            assert_eq!(out.output, serial_out.output);
            assert_eq!(out.report, serial_out.report);
        }
    }

    #[test]
    fn a_batch_forward_offers_its_pool_one_region() {
        // The channels are a batch engine's one fan-out: each channel's
        // reuse pass runs whole on the runner that claims it, so a forward
        // of two or more channels dispatches once, however small.
        let mut rng = Rng::new(22);
        for (input, kernels) in [([4, 16, 16], [8, 4, 3, 3]), ([2, 3, 3], [2, 2, 3, 3])] {
            let input = Tensor::randn(&input, &mut rng);
            let kernels = Tensor::randn(&kernels, &mut rng);
            let config = MercuryConfig::builder()
                .executor(mercury_tensor::exec::ExecutorKind::Threaded { threads: 2 })
                .build()
                .unwrap();
            let mut e = ConvEngine::try_new(config, 22).unwrap();
            let out = forward(&mut e, &input, &kernels, 1, 1);
            assert_eq!(out, forward(&mut engine(22), &input, &kernels, 1, 1));
            let stats = e.exec.pool_stats().unwrap();
            assert_eq!((stats.regions_dispatched, stats.regions_inlined), (1, 0));
        }
    }

    #[test]
    fn persistent_engine_hits_across_submits_and_evicts_by_epoch() {
        let input = Tensor::full(&[1, 8, 8], 0.25);
        let mut rng = Rng::new(16);
        let kernels = Tensor::randn(&[4, 1, 3, 3], &mut rng);
        let mut e = ConvEngine::persistent(MercuryConfig::default(), 16, 8).unwrap();

        // First submit: one MAU (constant image), the rest HITs.
        let first = forward(&mut e, &input, &kernels, 1, 0);
        assert_eq!(first.stats().maus, 1);
        // Second submit: the tag persisted, so even the first patch HITs,
        // and every patch copies the row the line stored.
        let second = forward(&mut e, &input, &kernels, 1, 0);
        assert_eq!(second.stats().maus, 0);
        assert_eq!(second.stats().hits, first.stats().hits + 1);
        assert_eq!(second.stats().recomputed, 0);
        assert_eq!(second.stats().cycles.computed_dots, 0);
        assert_eq!(second.output, first.output);
        // Epoch eviction restores the cold-start outcome mix.
        e.end_epoch();
        let third = forward(&mut e, &input, &kernels, 1, 0);
        assert_eq!(third.stats().maus, 1);
        assert_eq!(third.stats().hits, first.stats().hits);
        assert_eq!(third.output, first.output);
    }

    #[test]
    fn persistent_engine_never_serves_rows_of_other_kernels() {
        // After the kernels change, each line's first patch recomputes and
        // the rest of the pass takes its row: exactly the forward of an
        // engine that never saw the old kernels.
        let mut rng = Rng::new(19);
        let input = Tensor::randn(&[1, 7, 7], &mut rng);
        let k1 = Tensor::randn(&[3, 1, 3, 3], &mut rng);
        let k2 = Tensor::randn(&[3, 1, 3, 3], &mut rng);
        let persistent = || ConvEngine::persistent(MercuryConfig::default(), 19, 8).unwrap();
        let cold = forward(&mut persistent(), &input, &k2, 1, 1);
        let mut e = persistent();
        forward(&mut e, &input, &k1, 1, 1);
        let swapped = forward(&mut e, &input, &k2, 1, 1);
        assert_eq!(swapped.output, cold.output);
        assert_eq!(swapped.stats().maus, 0, "the tags persist");
        assert_eq!(swapped.stats().recomputed, cold.stats().maus);
        let warm = forward(&mut e, &input, &k2, 1, 1);
        assert_eq!(warm.output, cold.output);
        assert_eq!(warm.stats().recomputed, 0);
        // A malformed call is refused before it can bind its kernels.
        let two_channel = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        assert!(e
            .forward(LayerOp::conv(&input, &two_channel, 1, 1))
            .is_err());
        assert_eq!(forward(&mut e, &input, &k2, 1, 1).stats().recomputed, 0);
    }

    #[test]
    fn a_line_another_channel_stored_is_recomputed() {
        // Channel 1 is channel 0 doubled, so each of its patches HITs the
        // line channel 0's patch at the same position inserted. That line's
        // row holds channel 0's filter slice: channel 1 computes its own.
        let mut rng = Rng::new(18);
        let plane = Tensor::randn(&[1, 8, 8], &mut rng);
        let doubled: Vec<f32> = plane.data().iter().map(|v| v * 2.0).collect();
        let input = Tensor::from_vec([plane.data(), &doubled].concat(), &[2, 8, 8]).unwrap();
        let kernels = Tensor::randn(&[4, 2, 3, 3], &mut rng);
        let want = conv2d_multi(&input, &kernels, 1, 0).unwrap();
        let mut e = ConvEngine::persistent(MercuryConfig::default(), 18, 8).unwrap();
        for pass in 0..2 {
            let out = forward(&mut e, &input, &kernels, 1, 0);
            for (g, w) in out.output.data().iter().zip(want.data()) {
                assert!((g - w).abs() < 1e-4, "pass {pass}: got {g}, want {w}");
            }
            // One recompute per line channel 0 owns; the first pass
            // inserted each of those lines with one MAU.
            let st = out.stats();
            assert!(st.recomputed > 0);
            if pass == 0 {
                assert_eq!(st.recomputed, st.maus);
            } else {
                assert_eq!(st.maus, 0);
            }
        }
    }

    #[test]
    fn batch_engine_never_carries_state_across_submits() {
        let input = Tensor::full(&[1, 8, 8], 0.25);
        let mut rng = Rng::new(17);
        let kernels = Tensor::randn(&[4, 1, 3, 3], &mut rng);
        let mut e = engine(17);
        let first = forward(&mut e, &input, &kernels, 1, 0);
        let second = forward(&mut e, &input, &kernels, 1, 0);
        assert_eq!(first.stats().maus, second.stats().maus);
        assert_eq!(first.stats().hits, second.stats().hits);
    }

    #[test]
    fn batch_engine_rebinds_across_the_trainers_call_pattern() {
        // A trainer's conv engine alternates between the forward kernels
        // and the flipped input-gradient kernels, and the §III-D controller
        // may turn detection off for a call: every detection-on call still
        // computes, bit for bit, what a fresh engine's first call does.
        let mut rng = Rng::new(21);
        let (k, pad) = (3, 1);
        // Zeroed bottom halves give every channel repeated patches: HITs.
        let half_zero = |shape: &[usize], rng: &mut Rng| {
            let mut t = Tensor::randn(shape, rng);
            let plane = shape[1] * shape[2];
            for ch in t.data_mut().chunks_mut(plane) {
                ch[plane / 2..].fill(0.0);
            }
            t
        };
        let x = half_zero(&[3, 8, 8], &mut rng);
        let dout = half_zero(&[4, 8, 8], &mut rng);
        let a = Tensor::randn(&[4, 3, k, k], &mut rng);
        let b = Tensor::randn(&[4, 3, k, k], &mut rng);
        let flipped = conv::flip_kernels(&a);
        let bits = |fwd: &LayerForward| -> Vec<u32> {
            fwd.output.data().iter().map(|v| v.to_bits()).collect()
        };
        for kind in [
            mercury_tensor::exec::ExecutorKind::Serial,
            mercury_tensor::exec::ExecutorKind::Threaded { threads: 2 },
        ] {
            let config = MercuryConfig::builder().executor(kind).build().unwrap();
            let new = || ConvEngine::try_new(config, 21).unwrap();
            let mut e = new();
            let calls = [
                (&x, &a, pad),
                (&dout, &flipped, k - 1 - pad),
                (&x, &a, pad),
                (&x, &b, pad),
                (&x, &a, pad),
            ];
            for (i, (input, kernels, pad)) in calls.into_iter().enumerate() {
                e.set_detection(i != 3);
                let got = forward(&mut e, input, kernels, 1, pad);
                if i == 3 {
                    let want = conv2d_multi(input, kernels, 1, pad).unwrap();
                    assert_eq!(got.output, want, "{kind:?} call {i}");
                    continue;
                }
                let want = forward(&mut new(), input, kernels, 1, pad);
                assert!(want.stats().hits > 0, "{kind:?} call {i}");
                assert_eq!(bits(&got), bits(&want), "{kind:?} call {i}");
                assert_eq!(got.report, want.report, "{kind:?} call {i}");
            }
        }
    }
}
