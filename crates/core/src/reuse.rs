//! The unified reuse-engine surface: one trait ([`ReuseEngine`]) over the
//! convolution, fully-connected, and attention engines, one request type
//! ([`LayerOp`]), and one result type ([`LayerForward`]).
//!
//! Every engine family takes the same request and returns the same result,
//! so benches, examples and tests can drive any engine through the trait.
//! The engines' owners hold the concrete types:
//! [`MercurySession`](crate::MercurySession) keeps one per registered
//! layer, and each `mercury-dnn` conv or attention layer keeps its own.

use crate::stats::LayerStats;
use crate::MercuryError;
use mercury_rpq::Signature;
use mercury_tensor::Tensor;
use std::fmt;

/// Signatures saved by a forward pass, to be reloaded during the backward
/// pass of the previous layer (paper §III-C2: `Oᵢ = Iᵢ₊₁`, so layer `i+1`'s
/// input signatures describe layer `i`'s output gradients' similarity
/// structure when the kernel dimensions match).
#[derive(Debug, Clone, PartialEq)]
pub struct SavedSignatures {
    /// Kernel size `(k1, k2)` the signatures were generated for.
    pub kernel: (usize, usize),
    /// Signature length in bits at generation time.
    pub bits: usize,
    /// One signature list per channel, in patch order.
    pub per_channel: Vec<Vec<Signature>>,
}

impl SavedSignatures {
    /// Whether these signatures apply to a convolution with the given
    /// kernel size and per-channel patch count.
    ///
    /// Note this cannot see the consuming convolution's channel count;
    /// the convolution engine additionally requires one saved list per
    /// input channel before reusing.
    pub fn compatible(&self, kernel: (usize, usize), patches_per_channel: usize) -> bool {
        self.kernel == kernel
            && self
                .per_channel
                .iter()
                .all(|sigs| sigs.len() == patches_per_channel)
    }
}

/// Signatures produced by one [`ReuseEngine`] pass, in the shape the
/// engine family works with. Feed them back through
/// [`ReuseEngine::forward_reusing`] to skip the signature-generation phase
/// when the paper's dimension conditions hold (§III-C2).
#[derive(Debug, Clone, PartialEq)]
pub enum ReuseSignatures {
    /// Per-channel convolution patch signatures.
    Conv(SavedSignatures),
    /// Per-row signatures from a fully-connected or attention pass (one
    /// signature per input row / sequence position).
    Rows(Vec<Signature>),
}

impl ReuseSignatures {
    /// The convolution signature bundle, when this came from a conv pass.
    pub fn as_conv(&self) -> Option<&SavedSignatures> {
        match self {
            ReuseSignatures::Conv(saved) => Some(saved),
            ReuseSignatures::Rows(_) => None,
        }
    }

    /// The per-row signatures, when this came from an FC/attention pass.
    pub fn as_rows(&self) -> Option<&[Signature]> {
        match self {
            ReuseSignatures::Rows(sigs) => Some(sigs),
            ReuseSignatures::Conv(_) => None,
        }
    }

    /// Whether the pass recorded no signatures (detection was off).
    pub fn is_empty(&self) -> bool {
        match self {
            ReuseSignatures::Conv(saved) => saved.per_channel.iter().all(|s| s.is_empty()),
            ReuseSignatures::Rows(sigs) => sigs.is_empty(),
        }
    }
}

/// One layer forward request, unified across the engine families.
///
/// Operands are borrowed per call so training loops can keep updating
/// weights between passes; use the [`conv`](Self::conv) /
/// [`fc`](Self::fc) / [`attention`](Self::attention) constructors.
#[derive(Debug, Clone, Copy)]
pub enum LayerOp<'a> {
    /// Convolution: `input` `[C, H, W]` against `kernels` `[F, C, k1, k2]`.
    Conv {
        /// Layer input feature maps.
        input: &'a Tensor,
        /// Convolution kernels.
        kernels: &'a Tensor,
        /// Spatial stride.
        stride: usize,
        /// Zero padding on each border.
        pad: usize,
    },
    /// Fully-connected: `inputs` `[N, L]` times `weights` `[L, M]`.
    Fc {
        /// Minibatch of input rows.
        inputs: &'a Tensor,
        /// Weight matrix.
        weights: &'a Tensor,
    },
    /// Self-attention over `x` `[t, k]`: `Y = (X·Xᵀ)·X` (§III-C4).
    Attention {
        /// Sequence of input vectors.
        x: &'a Tensor,
    },
}

impl<'a> LayerOp<'a> {
    /// A convolution op.
    pub fn conv(input: &'a Tensor, kernels: &'a Tensor, stride: usize, pad: usize) -> Self {
        LayerOp::Conv {
            input,
            kernels,
            stride,
            pad,
        }
    }

    /// A fully-connected op.
    pub fn fc(inputs: &'a Tensor, weights: &'a Tensor) -> Self {
        LayerOp::Fc { inputs, weights }
    }

    /// A self-attention op.
    pub fn attention(x: &'a Tensor) -> Self {
        LayerOp::Attention { x }
    }

    /// The op family name, used in [`MercuryError::UnsupportedOp`].
    pub fn family(&self) -> &'static str {
        match self {
            LayerOp::Conv { .. } => "conv",
            LayerOp::Fc { .. } => "fc",
            LayerOp::Attention { .. } => "attention",
        }
    }
}

/// Everything a reuse pass reports besides the numeric output: the
/// HIT/MAU/MNU statistics with cycle accounting, and the signatures the
/// pass generated (or reused) for backward-pass reuse.
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseReport {
    /// Per-pass statistics and cycle accounting.
    pub stats: LayerStats,
    /// Signatures for §III-C2 backward reuse.
    pub signatures: ReuseSignatures,
    /// `true` when this pass ran in post-recovery exact-compute
    /// degradation: the layer was recovered from poisoning and is serving
    /// its warm-up window with reuse detection disabled (correct but
    /// unaccelerated). Callers and benches use this to tell a degraded
    /// exact pass from a normal detection-off configuration.
    pub degraded: bool,
}

/// Result of one [`ReuseEngine`] forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerForward {
    /// The layer output. Where MCACHE hits occurred, producer results
    /// stand in for consumers' — the approximation Figure 13 measures.
    pub output: Tensor,
    /// Statistics and saved signatures.
    pub report: ReuseReport,
}

impl LayerForward {
    /// Shorthand for the pass statistics.
    pub fn stats(&self) -> &LayerStats {
        &self.report.stats
    }
}

/// A MERCURY detect-and-reuse engine for one layer: similarity detection
/// via RPQ signatures, an MCACHE holding reusable results, and cycle
/// accounting from the accelerator model.
///
/// Implemented by [`ConvEngine`](crate::ConvEngine) (conv ops),
/// [`FcEngine`](crate::FcEngine) (fc ops), and
/// [`AttentionEngine`](crate::AttentionEngine) (attention ops). Handing an
/// engine an op family it does not implement returns
/// [`MercuryError::UnsupportedOp`].
///
/// The conv and FC engines compute every reuse pass from weights they
/// have bound, packed once: a call with detection on binds the op's
/// weights unless they are bound already, and a detection-off call runs
/// the exact product and binds nothing.
///
/// Engines come in two cache lifetimes over one cache type,
/// [`MCache`](mercury_mcache::MCache):
///
/// * **batch mode** (`try_new`) — a one-bank MCACHE restarts at every
///   reuse scope (channel for conv, call for FC/attention), the paper's
///   §III-B3 behaviour;
/// * **persistent mode** (`persistent`) — an MCACHE whose sets split
///   across banks (§V) survives across passes and is evicted only by
///   [`end_epoch`](Self::end_epoch), the behaviour
///   [`MercurySession`](crate::MercurySession) streams through. The conv
///   and FC engines keep each line's result row with its tag, so a HIT in
///   a later pass copies it instead of computing.
///
/// Engines are [`Send`] by contract: a [`MercurySession`](crate::MercurySession) fans
/// independent per-layer engines out across its executor's workers
/// ([`submit_batch`](crate::MercurySession::submit_batch)), so an
/// engine's state must be movable between threads. (Engines are *not*
/// required to be [`Sync`] — each one is always driven by one thread at
/// a time.)
pub trait ReuseEngine: fmt::Debug + Send {
    /// Runs one forward pass, generating fresh signatures.
    ///
    /// # Errors
    ///
    /// [`MercuryError::Tensor`] for malformed operand shapes and
    /// [`MercuryError::UnsupportedOp`] for a foreign op family.
    fn forward(&mut self, op: LayerOp<'_>) -> Result<LayerForward, MercuryError>;

    /// Runs one forward pass reusing previously saved signatures
    /// (backward-pass reuse, §III-C2). Incompatible signatures fall back
    /// to fresh generation, exactly as the paper prescribes.
    ///
    /// # Errors
    ///
    /// Same as [`forward`](Self::forward).
    fn forward_reusing(
        &mut self,
        op: LayerOp<'_>,
        saved: &ReuseSignatures,
    ) -> Result<LayerForward, MercuryError>;

    /// Current signature length in bits.
    fn signature_bits(&self) -> usize;

    /// Grows the signature by one bit, up to the configured maximum;
    /// returns the new length.
    fn grow_signature(&mut self) -> usize;

    /// Enables or disables similarity detection (the stoppage mechanism of
    /// §III-D). With detection off, passes run at baseline cost.
    fn set_detection(&mut self, enabled: bool);

    /// Whether similarity detection is currently enabled.
    fn detection_enabled(&self) -> bool;

    /// Ends the current epoch: evicts all MCACHE state (tags and stored
    /// rows). For persistent engines this is the *only* eviction point;
    /// batch engines already restart per reuse scope, so for them this is
    /// a cheap extra flash-clear.
    fn end_epoch(&mut self);

    /// Bytes of MCACHE state currently resident in this engine: the tag of
    /// every occupied line plus every stored row (see
    /// [`MCache::resident_bytes`](mercury_mcache::MCache::resident_bytes)).
    /// Occupancy-sensitive — an epoch eviction
    /// ([`end_epoch`](Self::end_epoch)) drops it to zero — so a serving
    /// tier can meter many sessions against one global memory budget
    /// through
    /// [`MercurySession::bank_bytes`](crate::MercurySession::bank_bytes).
    /// A batch engine's reuse scopes end with its forward, so between
    /// forwards it reports zero on every executor.
    fn cache_bytes(&self) -> usize;
}
