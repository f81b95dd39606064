//! The long-lived streaming facade over the reuse engines.
//!
//! MERCURY's value proposition is a *persistent* detect-and-reuse
//! pipeline: signatures and MCACHE state outlive any single minibatch
//! (paper §IV–V). A [`MercurySession`] makes that lifetime explicit: it
//! owns one persistent [`ReuseEngine`] per registered layer and keeps each
//! engine's MCACHE alive across an unbounded stream of
//! [`submit`](MercurySession::submit) calls. The conv and FC engines pack
//! the layer's weights once and keep each line's result row with its tag,
//! so a HIT on a line an earlier submit filled copies that row instead of
//! computing it. The session picks the bank split itself: 8 banks (§V)
//! when the configured set count divides by 8, one bank otherwise. It
//! evicts by *epoch* — [`advance_epoch`](MercurySession::advance_epoch)
//! flash-clears every engine's cache, tags and rows, in O(sets) (a per-set
//! occupancy reset and an emptied row slab; no per-entry walk) — instead
//! of clearing per forward pass.
//!
//! # Examples
//!
//! ```
//! use mercury_core::{MercuryConfig, MercurySession};
//! use mercury_tensor::{rng::Rng, Tensor};
//!
//! # fn main() -> Result<(), mercury_core::MercuryError> {
//! let mut rng = Rng::new(7);
//! let config = MercuryConfig::builder().build()?;
//! let mut session = MercurySession::new(config, 42)?;
//!
//! let kernels = Tensor::randn(&[4, 1, 3, 3], &mut rng);
//! let conv = session.register_conv(kernels, 1, 1)?;
//!
//! // Stream requests; MCACHE state persists between submits, so repeated
//! // content is detected as similar across requests, not just within one.
//! let input = Tensor::full(&[1, 8, 8], 0.5);
//! let first = session.submit(conv, &input)?;
//! let second = session.submit(conv, &input)?;
//! assert!(second.stats().hits > first.stats().hits);
//!
//! // Epoch boundary: evict everything, the next submit starts cold.
//! session.advance_epoch();
//! let third = session.submit(conv, &input)?;
//! assert_eq!(third.stats().hits, first.stats().hits);
//! # Ok(())
//! # }
//! ```

use crate::base::EngineBase;
use crate::config::{ConfigError, NonfinitePolicy};
use crate::fc::{AttentionEngine, FcEngine};
use crate::reuse::{LayerForward, LayerOp, ReuseEngine};
use crate::stats::LayerStats;
use crate::{ConvEngine, MercuryConfig, MercuryError};
use mercury_tensor::conv::ConvGeometry;
use mercury_tensor::exec::Executor;
use mercury_tensor::{Tensor, TensorError};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Handle to a layer registered with a [`MercurySession`]. Only valid for
/// the session that issued it — ids carry a process-unique session token,
/// so presenting one to a different session is a typed
/// [`MercuryError::UnknownLayer`] rather than silently addressing
/// whatever layer shares the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerId {
    index: usize,
    session: u64,
}

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "layer#{}", self.index)
    }
}

#[cfg(test)]
impl LayerId {
    /// A detached id for unit tests that only need a displayable layer
    /// handle (never resolvable against a real session).
    pub(crate) fn for_tests(index: usize) -> Self {
        LayerId { index, session: 0 }
    }
}

/// Source of process-unique session tokens.
static SESSION_TOKENS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Observable health of one session layer (see
/// [`MercurySession::layer_health`]).
///
/// The lifecycle is `Healthy → Poisoned` (an engine panic or error
/// escaped mid-request, so the layer's persistent cache may be
/// half-mutated), then `Poisoned → Degraded` via
/// [`recover`](MercurySession::recover) (bank quarantined by flash-clear,
/// serving exact compute), then `Degraded → Healthy` after the
/// configured warm-up re-arms reuse detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerHealth {
    /// Serving normally.
    Healthy,
    /// Refusing every submit with [`MercuryError::Poisoned`] until
    /// [`recover`](MercurySession::recover) quarantines the cache.
    Poisoned,
    /// Recovered and serving correct exact-compute results with reuse
    /// detection disabled; `warmup_remaining` more successful requests
    /// re-arm detection.
    Degraded {
        /// Successful submits left before reuse detection re-arms.
        warmup_remaining: u64,
    },
}

/// Internal health state. `Degraded` additionally remembers whether
/// detection should be re-armed when the warm-up completes — a layer the
/// §III-D stoppage controller had switched off *stays* off after
/// recovery instead of being silently re-enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    Healthy,
    Poisoned,
    Degraded { remaining: u64, rearm: bool },
}

/// Renders a caught panic payload for [`MercuryError::EnginePanic`]:
/// `&str` and `String` payloads (every `panic!` with a message, including
/// injected faults) come through verbatim.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A session layer's persistent engine and the operands bound with it.
/// The conv and FC engines hold the layer's weights, packed once per
/// registration or [`update_weights`](MercurySession::update_weights);
/// the input tensor is the only per-submit operand.
#[derive(Debug)]
enum LayerEngine {
    Conv {
        engine: ConvEngine,
        stride: usize,
        pad: usize,
    },
    Fc(FcEngine),
    Attention(AttentionEngine),
}

impl LayerEngine {
    fn get(&self) -> &dyn ReuseEngine {
        match self {
            LayerEngine::Conv { engine, .. } => engine,
            LayerEngine::Fc(engine) => engine,
            LayerEngine::Attention(engine) => engine,
        }
    }

    fn get_mut(&mut self) -> &mut dyn ReuseEngine {
        match self {
            LayerEngine::Conv { engine, .. } => engine,
            LayerEngine::Fc(engine) => engine,
            LayerEngine::Attention(engine) => engine,
        }
    }
}

#[derive(Debug)]
struct SessionLayer {
    engine: LayerEngine,
    /// Statistics accumulated over every submit since session creation.
    stats: LayerStats,
    submits: u64,
    health: Health,
}

impl SessionLayer {
    /// The fault-containment boundary around [`run`](Self::run): the
    /// single implementation behind [`MercurySession::submit`] and the
    /// per-layer workers of [`MercurySession::submit_batch`].
    ///
    /// Order of operations is the contract the chaos suite pins:
    ///
    /// 1. a poisoned layer refuses immediately ([`MercuryError::Poisoned`]);
    /// 2. the input is validated against the registered layer *before*
    ///    any engine or cache state is touched — validation failures
    ///    (shape, geometry, rejected non-finite values) never poison;
    /// 3. the engine runs under `catch_unwind`: a panic or a
    ///    post-validation engine error poisons this layer (its persistent
    ///    cache may be half-mutated, so it is fenced until
    ///    [`MercurySession::recover`] quarantines it);
    /// 4. a successful pass in the post-recovery warm-up is flagged
    ///    `degraded` and counts the warm-up down, re-arming reuse
    ///    detection when it reaches zero.
    fn serve(
        &mut self,
        id: LayerId,
        input: &Tensor,
        policy: NonfinitePolicy,
    ) -> Result<LayerForward, MercuryError> {
        if self.health == Health::Poisoned {
            return Err(MercuryError::Poisoned(id));
        }
        self.validate_input(id, input, policy)?;
        // AssertUnwindSafe: on a caught panic the layer is marked
        // poisoned, which fences every broken invariant of the engine's
        // half-mutated state behind `MercuryError::Poisoned` until
        // `recover` flash-clears the cache.
        match catch_unwind(AssertUnwindSafe(|| self.run(input))) {
            Ok(Ok(mut fwd)) => {
                if let Health::Degraded { remaining, rearm } = self.health {
                    fwd.report.degraded = true;
                    let remaining = remaining - 1;
                    if remaining == 0 {
                        self.engine.get_mut().set_detection(rearm);
                        self.health = Health::Healthy;
                    } else {
                        self.health = Health::Degraded { remaining, rearm };
                    }
                }
                Ok(fwd)
            }
            Ok(Err(err)) => {
                self.health = Health::Poisoned;
                Err(err)
            }
            Err(payload) => {
                self.health = Health::Poisoned;
                Err(MercuryError::EnginePanic {
                    layer: id,
                    message: panic_message(payload.as_ref()),
                })
            }
        }
    }

    /// Session-boundary input validation: shape against the registered
    /// layer (a typed [`MercuryError::ShapeMismatch`] instead of a panic
    /// deep inside an engine), conv spatial geometry, and the non-finite
    /// ingress policy. Runs before the engine, so a rejected request
    /// provably cannot have planted anything in the persistent bank.
    fn validate_input(
        &self,
        id: LayerId,
        input: &Tensor,
        policy: NonfinitePolicy,
    ) -> Result<(), MercuryError> {
        match &self.engine {
            LayerEngine::Conv {
                engine,
                stride,
                pad,
            } => {
                let kernels = engine.kernels();
                let kc = kernels.shape()[1];
                if input.rank() != 3 || input.shape()[0] != kc {
                    return Err(MercuryError::ShapeMismatch {
                        layer: id,
                        expected: vec![Some(kc), None, None],
                        actual: input.shape().to_vec(),
                    });
                }
                // Spatial geometry (kernel overrunning the padded input,
                // zero stride) keeps its precise tensor-level error.
                ConvGeometry::new(
                    input.shape()[1],
                    input.shape()[2],
                    kernels.shape()[2],
                    kernels.shape()[3],
                    *stride,
                    *pad,
                )
                .map_err(MercuryError::Tensor)?;
            }
            LayerEngine::Fc(engine) => {
                let l = engine.weights().shape()[0];
                if input.rank() != 2 || input.shape()[1] != l {
                    return Err(MercuryError::ShapeMismatch {
                        layer: id,
                        expected: vec![None, Some(l)],
                        actual: input.shape().to_vec(),
                    });
                }
            }
            LayerEngine::Attention(_) => {
                if input.rank() != 2 {
                    return Err(MercuryError::ShapeMismatch {
                        layer: id,
                        expected: vec![None, None],
                        actual: input.shape().to_vec(),
                    });
                }
            }
        }
        if policy == NonfinitePolicy::Reject {
            if let Some(index) = input.data().iter().position(|v| !v.is_finite()) {
                return Err(MercuryError::NonfiniteInput { layer: id, index });
            }
        }
        Ok(())
    }

    /// Runs one request through this layer's engine, accumulating the
    /// layer statistics on success. Callers go through
    /// [`serve`](Self::serve); this is the unguarded inner step.
    fn run(&mut self, input: &Tensor) -> Result<LayerForward, MercuryError> {
        let fwd = match &mut self.engine {
            LayerEngine::Conv {
                engine,
                stride,
                pad,
            } => engine.submit(input, *stride, *pad),
            LayerEngine::Fc(engine) => engine.submit(input),
            LayerEngine::Attention(engine) => engine.forward(LayerOp::attention(input)),
        }?;
        self.stats.accumulate(&fwd.report.stats);
        self.submits += 1;
        Ok(fwd)
    }
}

/// A long-lived MERCURY service endpoint: registered layers with
/// persistent engines, a streaming [`submit`](Self::submit) API, and
/// epoch-based MCACHE eviction.
///
/// See the module-level docs in `session.rs` for the lifecycle; the
/// example below mirrors them.
#[derive(Debug)]
pub struct MercurySession {
    config: MercuryConfig,
    seed: u64,
    banks: usize,
    /// Process-unique token stamped into every [`LayerId`] this session
    /// issues, so foreign ids are rejected rather than misrouted.
    token: u64,
    layers: Vec<SessionLayer>,
    epoch: u64,
    /// Backend for the [`submit_batch`](Self::submit_batch) fan-out, its
    /// only use: resolved **once** at session creation, so an arbitrarily
    /// long request stream reuses the same parked workers instead of
    /// re-resolving per call. The layer engines hold no executor — each
    /// request's reuse passes run whole on the thread that serves it, a
    /// pool worker inside a `submit_batch` fan-out or the caller of
    /// [`submit`](Self::submit).
    exec: Executor,
}

impl MercurySession {
    /// Creates a session scheduling on the executor `config.executor`
    /// names (see [`new_on`](Self::new_on)).
    ///
    /// Layer `i`'s engine draws its projection matrices from
    /// `Rng::new(seed.wrapping_add(i))`, so a session is fully pinned by
    /// `(config, seed)`.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] the configuration violates.
    pub fn new(config: MercuryConfig, seed: u64) -> Result<Self, ConfigError> {
        Self::new_on(config, seed, Executor::from_kind(config.executor))
    }

    /// [`new`](Self::new) scheduling on a caller-provided executor: cloned
    /// `Executor`s share one worker pool, so a multi-session owner (the
    /// `mercury-serve` server) resolves its backend once and hands the
    /// same pool to every session it creates, overriding each session
    /// config's own `executor` field.
    ///
    /// Every layer engine splits its MCACHE across 8 banks when the
    /// configured set count divides by 8 (the paper-default 64-set cache
    /// does), otherwise it keeps one bank.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] the configuration violates.
    pub fn new_on(config: MercuryConfig, seed: u64, exec: Executor) -> Result<Self, ConfigError> {
        config.validate()?;
        let banks = if config.cache.sets % 8 == 0 { 8 } else { 1 };
        Ok(MercurySession {
            config,
            seed,
            banks,
            token: SESSION_TOKENS.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            layers: Vec::new(),
            epoch: 0,
            exec,
        })
    }

    /// The state of the next layer's persistent engine.
    fn next_engine_base(&self) -> Result<EngineBase, ConfigError> {
        let seed = self.seed.wrapping_add(self.layers.len() as u64);
        EngineBase::new(self.config, seed, self.banks, true)
    }

    /// Resolves an id to this session's layer slot, rejecting ids issued
    /// by other sessions (token mismatch) or out of range.
    fn slot_index(&self, layer: LayerId) -> Result<usize, MercuryError> {
        if layer.session != self.token || layer.index >= self.layers.len() {
            return Err(MercuryError::UnknownLayer(layer));
        }
        Ok(layer.index)
    }

    fn slot(&self, layer: LayerId) -> Option<&SessionLayer> {
        self.slot_index(layer).ok().map(|i| &self.layers[i])
    }

    fn push_layer(&mut self, engine: LayerEngine) -> LayerId {
        let id = LayerId {
            index: self.layers.len(),
            session: self.token,
        };
        self.layers.push(SessionLayer {
            engine,
            stats: LayerStats::default(),
            submits: 0,
            health: Health::Healthy,
        });
        id
    }

    /// Registers a convolution layer with fixed `kernels` `[F, C, k1, k2]`,
    /// stride, and padding; submits supply the `[C, H, W]` input.
    ///
    /// # Errors
    ///
    /// [`MercuryError::Tensor`] if `kernels` is not rank 4.
    pub fn register_conv(
        &mut self,
        kernels: Tensor,
        stride: usize,
        pad: usize,
    ) -> Result<LayerId, MercuryError> {
        if kernels.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: kernels.rank(),
            }
            .into());
        }
        let engine = ConvEngine::bound(self.next_engine_base()?, kernels);
        Ok(self.push_layer(LayerEngine::Conv {
            engine,
            stride,
            pad,
        }))
    }

    /// Registers a fully-connected layer with fixed `weights` `[L, M]`;
    /// submits supply the `[N, L]` input rows.
    ///
    /// # Errors
    ///
    /// [`MercuryError::Tensor`] if `weights` is not rank 2.
    pub fn register_fc(&mut self, weights: Tensor) -> Result<LayerId, MercuryError> {
        if weights.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: weights.rank(),
            }
            .into());
        }
        let engine = FcEngine::bound(self.next_engine_base()?, weights);
        Ok(self.push_layer(LayerEngine::Fc(engine)))
    }

    /// Registers a non-parametric self-attention layer; submits supply the
    /// `[t, k]` sequence.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`]-wrapping [`MercuryError`] only if engine
    /// construction fails (the session's config was validated at
    /// creation, so this is effectively infallible).
    pub fn register_attention(&mut self) -> Result<LayerId, MercuryError> {
        let engine = AttentionEngine {
            base: self.next_engine_base()?,
        };
        Ok(self.push_layer(LayerEngine::Attention(engine)))
    }

    /// Runs one streaming request through a registered layer. The layer's
    /// MCACHE state persists across calls: similarity is detected against
    /// everything seen since the last epoch boundary, not just within this
    /// input.
    ///
    /// # Errors
    ///
    /// [`MercuryError::UnknownLayer`] for a foreign id;
    /// [`MercuryError::ShapeMismatch`] / [`MercuryError::Tensor`] /
    /// [`MercuryError::NonfiniteInput`] for an input rejected at the
    /// session boundary (the layer is untouched and stays healthy);
    /// [`MercuryError::Poisoned`] for a layer fenced off by an earlier
    /// failure; [`MercuryError::EnginePanic`] (poisoning the layer) when
    /// the engine panics mid-request.
    pub fn submit(&mut self, layer: LayerId, input: &Tensor) -> Result<LayerForward, MercuryError> {
        let index = self.slot_index(layer)?;
        let policy = self.config.nonfinite_policy;
        self.layers[index].serve(layer, input, policy)
    }

    /// Runs a batch of streaming requests, fanning the **independent
    /// per-layer engines** out across the session's executor: requests
    /// addressed to distinct layers run concurrently (each layer's engine
    /// is self-contained state — its own banked MCACHE, projections, and
    /// statistics), while requests to the *same* layer keep their batch
    /// order, because a persistent engine's cache state makes same-layer
    /// submits order-dependent by design.
    ///
    /// Results come back in request order and are **bit-identical** to
    /// issuing the same requests through [`submit`](Self::submit) one by
    /// one, on any executor — the property `tests/parallel_determinism.rs`
    /// pins.
    ///
    /// # Errors
    ///
    /// [`MercuryError::UnknownLayer`] if any id is foreign (checked up
    /// front: no request runs in that case). Per-request failures
    /// (rejected inputs, poisoned layers, engine panics) do not abort the
    /// batch — every request is attempted, successful ones keep their
    /// statistics, and the error of the **lowest-positioned** failing
    /// request is returned, independent of scheduling. An engine panic
    /// poisons only the layer it escaped from: later same-layer requests
    /// in this batch answer [`MercuryError::Poisoned`], requests to other
    /// layers are unaffected.
    pub fn submit_batch(
        &mut self,
        requests: &[(LayerId, &Tensor)],
    ) -> Result<Vec<LayerForward>, MercuryError> {
        self.submit_batch_each(requests)?.into_iter().collect()
    }

    /// [`submit_batch`](Self::submit_batch) with **per-request** results:
    /// the same fan-out, ordering, and bit-identity guarantees, but
    /// instead of collapsing to the lowest-positioned error, every
    /// request's own `Result` comes back in request order. A serving tier
    /// coalescing many tenants' requests needs this — one tenant's
    /// poisoned layer must not eat its neighbours' answers.
    ///
    /// # Errors
    ///
    /// The outer `Err` is [`MercuryError::UnknownLayer`] only, checked up
    /// front — no request runs in that case. Everything else is a
    /// per-request inner `Result`.
    pub fn submit_batch_each(
        &mut self,
        requests: &[(LayerId, &Tensor)],
    ) -> Result<Vec<Result<LayerForward, MercuryError>>, MercuryError> {
        // Validate every id before any engine runs.
        let mut indices = Vec::with_capacity(requests.len());
        for &(layer, _) in requests {
            indices.push(self.slot_index(layer)?);
        }
        // Group request positions by layer slot, preserving order within
        // each layer.
        let mut per_layer: Vec<Vec<usize>> = vec![Vec::new(); self.layers.len()];
        for (pos, &index) in indices.iter().enumerate() {
            per_layer[index].push(pos);
        }
        // Pair each involved layer's &mut slot with its request list; the
        // borrows are disjoint by construction (one per slot).
        let jobs: Vec<(&mut SessionLayer, Vec<usize>)> = self
            .layers
            .iter_mut()
            .zip(per_layer)
            .filter(|(_, positions)| !positions.is_empty())
            .collect();
        let policy = self.config.nonfinite_policy;
        let per_job: Vec<Vec<(usize, Result<LayerForward, MercuryError>)>> = self.exec.map(
            jobs,
            |_| usize::MAX,
            || (),
            |(slot, positions), ()| {
                positions
                    .into_iter()
                    .map(|pos| (pos, slot.serve(requests[pos].0, requests[pos].1, policy)))
                    .collect()
            },
        );

        let mut results: Vec<Option<Result<LayerForward, MercuryError>>> =
            (0..requests.len()).map(|_| None).collect();
        for job in per_job {
            for (pos, result) in job {
                results[pos] = Some(result);
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every request answered exactly once"))
            .collect())
    }

    /// Recovers a layer from poisoning: quarantines its (possibly
    /// half-mutated) persistent cache via the O(1)-per-set epoch
    /// flash-clear, then re-enters the layer into service in
    /// exact-compute degradation — reuse detection disabled for the
    /// configured [`recovery_warmup`](MercuryConfig::recovery_warmup)
    /// requests (each flagged [`degraded`](crate::ReuseReport::degraded)),
    /// after which detection re-arms to its pre-failure setting. A
    /// warm-up of `0` re-arms immediately.
    ///
    /// Calling this on a healthy layer is allowed and forces the same
    /// quarantine + warm-up cycle (an operator's "flush this layer"
    /// lever); on a degraded layer it restarts the warm-up.
    ///
    /// # Errors
    ///
    /// [`MercuryError::UnknownLayer`] for a foreign id.
    pub fn recover(&mut self, layer: LayerId) -> Result<(), MercuryError> {
        let index = self.slot_index(layer)?;
        let warmup = self.config.recovery_warmup as u64;
        let slot = &mut self.layers[index];
        // Quarantine first: nothing planted by the failed request — no tag,
        // no stored row — can survive into the recovered layer's reuse
        // decisions.
        let engine = slot.engine.get_mut();
        engine.end_epoch();
        let rearm = match slot.health {
            // Preserve the original re-arm target across repeated
            // recoveries — the engine currently reads detection-off only
            // because the warm-up turned it off.
            Health::Degraded { rearm, .. } => rearm,
            _ => engine.detection_enabled(),
        };
        if warmup == 0 {
            engine.set_detection(rearm);
            slot.health = Health::Healthy;
        } else {
            engine.set_detection(false);
            slot.health = Health::Degraded {
                remaining: warmup,
                rearm,
            };
        }
        Ok(())
    }

    /// The health of one layer (`None` for a foreign id): `Healthy`,
    /// `Poisoned` (refusing submits until [`recover`](Self::recover)), or
    /// `Degraded` with the number of exact-compute warm-up requests left.
    pub fn layer_health(&self, layer: LayerId) -> Option<LayerHealth> {
        self.slot(layer).map(|l| match l.health {
            Health::Healthy => LayerHealth::Healthy,
            Health::Poisoned => LayerHealth::Poisoned,
            Health::Degraded { remaining, .. } => LayerHealth::Degraded {
                warmup_remaining: remaining,
            },
        })
    }

    /// The ids of every currently poisoned layer, in registration order —
    /// what an auto-recovery sweep feeds to [`recover`](Self::recover).
    pub fn poisoned_layers(&self) -> impl Iterator<Item = LayerId> + '_ {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.health == Health::Poisoned)
            .map(|(index, _)| LayerId {
                index,
                session: self.token,
            })
    }

    /// Bytes of MCACHE state resident across every layer's banks (see
    /// [`ReuseEngine::cache_bytes`]): the session's reuse-state working
    /// set, its tags and its stored rows. Occupancy-sensitive — an epoch
    /// boundary ([`advance_epoch`](Self::advance_epoch)) drops it to zero —
    /// which is exactly the lever a multi-session memory budget pulls when
    /// it evicts an idle session.
    pub fn bank_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.engine.get().cache_bytes())
            .sum()
    }

    /// Ends the current epoch: every engine's MCACHE is evicted via the
    /// banked flash-clear — an O(sets) occupancy reset, never a per-entry
    /// walk — and the epoch counter advances. Returns the new epoch
    /// number.
    ///
    /// Poisoned layers stay poisoned: the epoch clear evicts their caches
    /// too, but re-entering service is an explicit per-layer decision via
    /// [`recover`](Self::recover), not a side effect of a global
    /// boundary.
    pub fn advance_epoch(&mut self) -> u64 {
        for layer in &mut self.layers {
            layer.engine.get_mut().end_epoch();
        }
        self.epoch += 1;
        self.epoch
    }

    /// The current epoch (starts at 0; incremented by
    /// [`advance_epoch`](Self::advance_epoch)).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The session configuration.
    pub fn config(&self) -> &MercuryConfig {
        &self.config
    }

    /// The MCACHE bank count each engine was built with: 8 when the
    /// configured set count divides by 8, otherwise 1.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Statistics accumulated across every submit to `layer` since the
    /// session was created (`None` for a foreign id).
    pub fn layer_stats(&self, layer: LayerId) -> Option<&LayerStats> {
        self.slot(layer).map(|l| &l.stats)
    }

    /// Number of submits `layer` has served (`None` for a foreign id).
    pub fn layer_submits(&self, layer: LayerId) -> Option<u64> {
        self.slot(layer).map(|l| l.submits)
    }

    /// Statistics summed over all layers and submits.
    pub fn total_stats(&self) -> LayerStats {
        let mut total = LayerStats::default();
        for layer in &self.layers {
            total.accumulate(&layer.stats);
        }
        total
    }

    /// Borrows a layer's engine (`None` for a foreign id).
    pub fn engine(&self, layer: LayerId) -> Option<&dyn ReuseEngine> {
        self.slot(layer).map(|l| l.engine.get())
    }

    /// Enables/disables similarity detection on one layer (§III-D
    /// stoppage).
    ///
    /// On a layer serving its post-recovery warm-up this updates the
    /// **re-arm target** instead of the live engine: the warm-up's
    /// exact-compute guarantee is not silently cut short, and when it
    /// completes, detection lands on the setting requested here.
    ///
    /// # Errors
    ///
    /// [`MercuryError::UnknownLayer`] for a foreign id.
    pub fn set_detection(&mut self, layer: LayerId, enabled: bool) -> Result<(), MercuryError> {
        let index = self.slot_index(layer)?;
        let slot = &mut self.layers[index];
        if let Health::Degraded { remaining, .. } = slot.health {
            slot.health = Health::Degraded {
                remaining,
                rearm: enabled,
            };
        } else {
            slot.engine.get_mut().set_detection(enabled);
        }
        Ok(())
    }

    /// Grows every layer's signature by one bit (the §III-D response to a
    /// loss plateau). Each persistent cache is flushed when its length
    /// actually changes — old-length tags can never match again, so they
    /// would otherwise sit in the sets as unmatchable dead weight until
    /// the next epoch.
    pub fn grow_signatures(&mut self) {
        for layer in &mut self.layers {
            layer.engine.get_mut().grow_signature();
        }
    }

    /// Replaces a conv layer's kernels or an FC layer's weights (a service
    /// picking up retrained parameters). The new tensor must keep the old
    /// rank; attention layers have no parameters. The engine packs the new
    /// weights once, and the layer's epoch ends: every tag and every row
    /// stored under the old weights is evicted.
    ///
    /// # Errors
    ///
    /// [`MercuryError::UnknownLayer`] for a foreign id,
    /// [`MercuryError::Tensor`] for a rank mismatch, and
    /// [`MercuryError::NoParameters`] for an attention layer.
    pub fn update_weights(&mut self, layer: LayerId, params: Tensor) -> Result<(), MercuryError> {
        let index = self.slot_index(layer)?;
        let slot = &mut self.layers[index];
        let mismatch = |expected, actual| TensorError::RankMismatch { expected, actual }.into();
        match (&mut slot.engine, params.rank()) {
            (LayerEngine::Conv { engine, .. }, 4) => engine.bind(params),
            (LayerEngine::Fc(engine), 2) => engine.bind(params),
            (LayerEngine::Conv { .. }, rank) => return Err(mismatch(4, rank)),
            (LayerEngine::Fc(_), rank) => return Err(mismatch(2, rank)),
            (LayerEngine::Attention(_), _) => return Err(MercuryError::NoParameters(layer)),
        }
        slot.engine.get_mut().end_epoch();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mercury_tensor::ops;
    use mercury_tensor::rng::Rng;

    fn session(seed: u64) -> MercurySession {
        MercurySession::new(MercuryConfig::default(), seed).unwrap()
    }

    #[test]
    fn default_bank_split_follows_config() {
        assert_eq!(session(1).banks(), 8);
        let odd_sets = MercuryConfig {
            cache: mercury_mcache::MCacheConfig::new(9, 4).unwrap(),
            ..MercuryConfig::default()
        };
        assert_eq!(MercurySession::new(odd_sets, 1).unwrap().banks(), 1);
    }

    #[test]
    fn rejects_bad_bank_splits() {
        // The session derives its bank count, so every geometry it accepts
        // splits evenly; the one engine constructor it builds through
        // refuses the splits it never asks for.
        for sets in 1..=64 {
            let cfg = MercuryConfig {
                cache: mercury_mcache::MCacheConfig::new(sets, 2).unwrap(),
                ..MercuryConfig::default()
            };
            let s = MercurySession::new(cfg, 1).unwrap();
            assert_eq!(sets % s.banks(), 0, "{sets} sets, {} banks", s.banks());
        }
        let cfg = MercuryConfig::default();
        assert_eq!(
            ConvEngine::persistent(cfg, 1, 0).unwrap_err(),
            ConfigError::ZeroBanks
        );
        assert_eq!(
            FcEngine::persistent(cfg, 1, 7).unwrap_err(),
            ConfigError::BankSplit { sets: 64, banks: 7 }
        );
    }

    #[test]
    fn submit_streams_through_registered_layers() {
        let mut rng = Rng::new(2);
        let mut s = session(2);
        let conv = s
            .register_conv(Tensor::randn(&[2, 1, 3, 3], &mut rng), 1, 1)
            .unwrap();
        let fc = s.register_fc(Tensor::randn(&[8, 4], &mut rng)).unwrap();
        let att = s.register_attention().unwrap();
        for layer in [conv, fc, att] {
            assert_eq!(s.layer_health(layer), Some(LayerHealth::Healthy));
        }

        let img = Tensor::randn(&[1, 6, 6], &mut rng);
        let out = s.submit(conv, &img).unwrap();
        assert_eq!(out.output.shape(), &[2, 6, 6]);

        let rows = Tensor::randn(&[3, 8], &mut rng);
        let out = s.submit(fc, &rows).unwrap();
        assert_eq!(out.output.shape(), &[3, 4]);

        let seq = Tensor::randn(&[4, 5], &mut rng);
        let out = s.submit(att, &seq).unwrap();
        assert_eq!(out.output.shape(), &[4, 5]);

        assert_eq!(s.layer_submits(conv), Some(1));
        assert!(s.total_stats().total_vectors() > 0);
    }

    #[test]
    fn mcache_state_persists_across_submits_until_epoch() {
        let mut rng = Rng::new(3);
        let mut s = session(3);
        let conv = s
            .register_conv(Tensor::randn(&[4, 1, 3, 3], &mut rng), 1, 0)
            .unwrap();
        let input = Tensor::full(&[1, 8, 8], 0.4);
        let cold = s.submit(conv, &input).unwrap();
        assert_eq!(cold.stats().maus, 1);
        let warm = s.submit(conv, &input).unwrap();
        assert_eq!(warm.stats().maus, 0, "tags persisted across submits");
        assert_eq!(warm.stats().hits, cold.stats().hits + 1);
        assert_eq!(s.advance_epoch(), 1);
        let evicted = s.submit(conv, &input).unwrap();
        assert_eq!(evicted.stats().maus, 1, "epoch evicted the tags");
        assert_eq!(evicted.output, cold.output);
    }

    #[test]
    fn submit_batch_matches_sequential_submits() {
        use mercury_tensor::exec::ExecutorKind;
        let mut rng = Rng::new(50);
        let kernels = Tensor::randn(&[4, 1, 3, 3], &mut rng);
        let fc_weights = Tensor::randn(&[12, 5], &mut rng);
        let img_a = Tensor::full(&[1, 8, 8], 0.5);
        let img_b = Tensor::randn(&[1, 8, 8], &mut rng);
        let rows = Tensor::randn(&[6, 12], &mut rng);
        let seq = Tensor::randn(&[5, 7], &mut rng);

        let build = |kind: ExecutorKind| {
            let config = MercuryConfig::builder().executor(kind).build().unwrap();
            let mut s = MercurySession::new(config, 50).unwrap();
            let conv = s.register_conv(kernels.clone(), 1, 1).unwrap();
            let fc = s.register_fc(fc_weights.clone()).unwrap();
            let att = s.register_attention().unwrap();
            (s, conv, fc, att)
        };

        // Reference: sequential submits on the serial backend.
        let (mut serial, conv, fc, att) = build(ExecutorKind::Serial);
        let want = [
            serial.submit(conv, &img_a).unwrap(),
            serial.submit(fc, &rows).unwrap(),
            serial.submit(conv, &img_b).unwrap(),
            serial.submit(att, &seq).unwrap(),
            serial.submit(conv, &img_a).unwrap(),
        ];
        let want_fc_stats = serial.layer_stats(fc).cloned();

        for kind in [ExecutorKind::Serial, ExecutorKind::Threaded { threads: 8 }] {
            let (mut s, conv, fc, att) = build(kind);
            let got = s
                .submit_batch(&[
                    (conv, &img_a),
                    (fc, &rows),
                    (conv, &img_b),
                    (att, &seq),
                    (conv, &img_a),
                ])
                .unwrap();
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.output, w.output, "{kind:?}");
                assert_eq!(g.report, w.report, "{kind:?}");
            }
            assert_eq!(s.layer_submits(conv), Some(3));
            assert_eq!(s.layer_stats(fc).cloned(), want_fc_stats);
        }
    }

    #[test]
    fn submit_batch_rejects_foreign_ids_and_surfaces_lowest_error() {
        let mut rng = Rng::new(51);
        let mut s = session(51);
        let conv = s
            .register_conv(Tensor::randn(&[2, 1, 3, 3], &mut rng), 1, 0)
            .unwrap();
        let good = Tensor::zeros(&[1, 6, 6]);
        let bad = Tensor::zeros(&[6, 6]); // wrong rank

        // Foreign id: nothing runs at all.
        let mut other = session(52);
        let foreign = other
            .register_conv(Tensor::randn(&[1, 1, 3, 3], &mut rng), 1, 0)
            .unwrap();
        assert_eq!(
            s.submit_batch(&[(conv, &good), (foreign, &good)])
                .unwrap_err(),
            MercuryError::UnknownLayer(foreign)
        );
        assert_eq!(
            s.layer_submits(conv),
            Some(0),
            "validation precedes execution"
        );

        // Rejected input: lowest failing position wins; the good request
        // still counted, and boundary validation leaves the layer
        // healthy — the engine never ran for the bad requests.
        let err = s
            .submit_batch(&[(conv, &good), (conv, &bad), (conv, &bad)])
            .unwrap_err();
        assert!(matches!(err, MercuryError::ShapeMismatch { .. }), "{err}");
        assert_eq!(s.layer_submits(conv), Some(1));
        assert_eq!(s.layer_health(conv), Some(LayerHealth::Healthy));
        assert!(s.submit(conv, &good).is_ok());
    }

    #[test]
    fn shape_validation_is_typed_per_engine_family() {
        let mut rng = Rng::new(60);
        let mut s = session(60);
        let conv = s
            .register_conv(Tensor::randn(&[2, 3, 3, 3], &mut rng), 1, 1)
            .unwrap();
        let fc = s.register_fc(Tensor::randn(&[8, 4], &mut rng)).unwrap();
        let att = s.register_attention().unwrap();

        // Conv: wrong rank and wrong channel count both name the layer
        // and the fixed dimension.
        for bad in [Tensor::zeros(&[6, 6]), Tensor::zeros(&[2, 6, 6])] {
            match s.submit(conv, &bad).unwrap_err() {
                MercuryError::ShapeMismatch {
                    layer,
                    expected,
                    actual,
                } => {
                    assert_eq!(layer, conv);
                    assert_eq!(expected, vec![Some(3), None, None]);
                    assert_eq!(actual, bad.shape().to_vec());
                }
                other => panic!("expected ShapeMismatch, got {other}"),
            }
        }
        // Conv spatial geometry (kernel overrunning an unpadded input)
        // keeps its precise tensor-level error.
        let unpadded = s
            .register_conv(Tensor::randn(&[2, 3, 3, 3], &mut rng), 1, 0)
            .unwrap();
        assert!(matches!(
            s.submit(unpadded, &Tensor::zeros(&[3, 2, 2])),
            Err(MercuryError::Tensor(_))
        ));
        assert_eq!(s.layer_health(unpadded), Some(LayerHealth::Healthy));

        // FC: wrong inner dimension.
        match s.submit(fc, &Tensor::zeros(&[3, 5])).unwrap_err() {
            MercuryError::ShapeMismatch { expected, .. } => {
                assert_eq!(expected, vec![None, Some(8)]);
            }
            other => panic!("expected ShapeMismatch, got {other}"),
        }

        // Attention: wrong rank.
        match s.submit(att, &Tensor::zeros(&[4])).unwrap_err() {
            MercuryError::ShapeMismatch { expected, .. } => {
                assert_eq!(expected, vec![None, None]);
            }
            other => panic!("expected ShapeMismatch, got {other}"),
        }

        // Rejection happened before any engine or cache mutation: every
        // layer is healthy, served zero submits, and still works.
        for id in [conv, fc, att] {
            assert_eq!(s.layer_submits(id), Some(0));
            assert_eq!(s.layer_health(id), Some(LayerHealth::Healthy));
        }
        assert!(s.submit(fc, &Tensor::zeros(&[3, 8])).is_ok());
    }

    #[test]
    fn overflowing_conv_padding_is_a_typed_error_not_a_panic() {
        // Boundary validation runs outside the engine's panic fence, so
        // geometry arithmetic must fail as a typed error, not overflow.
        let mut rng = Rng::new(61);
        let mut s = session(61);
        let input = Tensor::zeros(&[1, 8, 8]);
        for pad in [usize::MAX / 2 + 1, 1 << 40] {
            let conv = s
                .register_conv(Tensor::randn(&[2, 1, 3, 3], &mut rng), 1, pad)
                .unwrap();
            assert!(matches!(
                s.submit(conv, &input),
                Err(MercuryError::Tensor(TensorError::InvalidConv(_)))
            ));
            let each = s.submit_batch_each(&[(conv, &input)]).unwrap();
            assert!(matches!(
                each[0],
                Err(MercuryError::Tensor(TensorError::InvalidConv(_)))
            ));
            assert_eq!(s.layer_health(conv), Some(LayerHealth::Healthy));
        }
    }

    #[test]
    fn nonfinite_reject_leaves_bank_state_untouched() {
        let mut rng = Rng::new(61);
        let kernels = Tensor::randn(&[2, 1, 3, 3], &mut rng);
        let good = Tensor::full(&[1, 6, 6], 0.3);
        let mut poisoned_input = Tensor::full(&[1, 6, 6], 0.3);
        poisoned_input.data_mut()[7] = f32::NAN;

        let build = || {
            let config = MercuryConfig::builder()
                .nonfinite_policy(NonfinitePolicy::Reject)
                .build()
                .unwrap();
            let mut s = MercurySession::new(config, 61).unwrap();
            let conv = s.register_conv(kernels.clone(), 1, 0).unwrap();
            (s, conv)
        };

        // Two identical sessions; only one sees the rejected request.
        let (mut a, conv_a) = build();
        let (mut b, conv_b) = build();
        a.submit(conv_a, &good).unwrap();
        b.submit(conv_b, &good).unwrap();
        assert_eq!(
            a.submit(conv_a, &poisoned_input).unwrap_err(),
            MercuryError::NonfiniteInput {
                layer: conv_a,
                index: 7
            }
        );
        assert_eq!(a.layer_health(conv_a), Some(LayerHealth::Healthy));

        // Bank state is untouched by the rejection: the next submit sees
        // outputs, reports (hit counts probe the cache content), and
        // accumulated statistics bit-identical to the session that never
        // received it.
        let after_a = a.submit(conv_a, &good).unwrap();
        let after_b = b.submit(conv_b, &good).unwrap();
        assert_eq!(after_a.output, after_b.output);
        assert_eq!(after_a.report, after_b.report);
        assert!(after_a.stats().hits > 0, "cache content survived");
        assert_eq!(a.layer_stats(conv_a), b.layer_stats(conv_b));

        // Propagate (the default) keeps pre-policy behaviour.
        let mut s = session(61);
        let conv = s.register_conv(kernels.clone(), 1, 0).unwrap();
        let fwd = s.submit(conv, &poisoned_input).unwrap();
        assert!(fwd.output.data().iter().any(|v| v.is_nan()));
    }

    #[test]
    fn recover_quarantines_and_warms_up_exact() {
        let mut rng = Rng::new(62);
        let kernels = Tensor::randn(&[4, 1, 3, 3], &mut rng);
        let input = Tensor::full(&[1, 8, 8], 0.4);
        let config = MercuryConfig::builder().recovery_warmup(2).build().unwrap();

        let mut s = MercurySession::new(config, 62).unwrap();
        let conv = s.register_conv(kernels.clone(), 1, 0).unwrap();
        s.submit(conv, &input).unwrap();
        assert!(s.submit(conv, &input).unwrap().stats().hits > 0);

        // A fresh exact-compute reference: same construction, detection
        // off from the start.
        let mut exact = MercurySession::new(config, 62).unwrap();
        let conv_e = exact.register_conv(kernels, 1, 0).unwrap();
        exact.set_detection(conv_e, false).unwrap();
        let want = exact.submit(conv_e, &input).unwrap();

        // Recover forces quarantine + warm-up even on a healthy layer.
        s.recover(conv).unwrap();
        assert_eq!(
            s.layer_health(conv),
            Some(LayerHealth::Degraded {
                warmup_remaining: 2
            })
        );
        for remaining in [1u64, 0] {
            let fwd = s.submit(conv, &input).unwrap();
            assert!(fwd.report.degraded, "warm-up passes are flagged");
            assert_eq!(fwd.stats().hits, 0, "reuse disabled during warm-up");
            assert_eq!(
                fwd.output, want.output,
                "degraded output is bit-identical to a fresh exact session"
            );
            match remaining {
                0 => assert_eq!(s.layer_health(conv), Some(LayerHealth::Healthy)),
                r => assert_eq!(
                    s.layer_health(conv),
                    Some(LayerHealth::Degraded {
                        warmup_remaining: r
                    })
                ),
            }
        }

        // Warm-up complete: detection re-armed to its pre-recovery
        // setting and reuse resumes against the quarantined (empty) bank.
        assert!(s.engine(conv).unwrap().detection_enabled());
        let rearmed = s.submit(conv, &input).unwrap();
        assert!(!rearmed.report.degraded);
        assert!(rearmed.stats().maus > 0, "bank was flash-cleared");
    }

    #[test]
    fn degraded_fc_propagates_zero_times_infinity_like_the_healthy_layer() {
        // `Propagate` promises IEEE propagation on both sides of a
        // recovery: the exact warm-up must keep the 0·∞ term the reuse
        // pass computes, not skip it and answer 1.
        let config = MercuryConfig::builder().recovery_warmup(1).build().unwrap();
        let mut s = MercurySession::new(config, 64).unwrap();
        let weights = Tensor::from_vec(vec![f32::INFINITY, 1.0, 1.0, 1.0], &[2, 2]).unwrap();
        let fc = s.register_fc(weights).unwrap();
        let input = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
        let healthy = s.submit(fc, &input).unwrap();
        s.recover(fc).unwrap();
        let degraded = s.submit(fc, &input).unwrap();
        assert!(degraded.report.degraded);
        assert!(healthy.output.at(&[0, 0]).is_nan());
        assert!(degraded.output.at(&[0, 0]).is_nan());
        assert_eq!(
            healthy.output.at(&[0, 1]).to_bits(),
            degraded.output.at(&[0, 1]).to_bits()
        );
    }

    #[test]
    fn set_detection_during_warmup_retargets_the_rearm() {
        let mut rng = Rng::new(63);
        let config = MercuryConfig::builder().recovery_warmup(1).build().unwrap();
        let mut s = MercurySession::new(config, 63).unwrap();
        let fc = s.register_fc(Tensor::randn(&[6, 3], &mut rng)).unwrap();
        let rows = Tensor::randn(&[2, 6], &mut rng);

        s.recover(fc).unwrap();
        // The warm-up keeps serving exact compute...
        s.set_detection(fc, false).unwrap();
        let fwd = s.submit(fc, &rows).unwrap();
        assert!(fwd.report.degraded);
        // ...and the completed warm-up lands on the requested setting
        // instead of silently re-enabling reuse.
        assert_eq!(s.layer_health(fc), Some(LayerHealth::Healthy));
        assert!(!s.engine(fc).unwrap().detection_enabled());

        // recovery_warmup = 0 re-arms immediately.
        let config = MercuryConfig::builder().recovery_warmup(0).build().unwrap();
        let mut s = MercurySession::new(config, 63).unwrap();
        let fc = s.register_fc(Tensor::randn(&[6, 3], &mut rng)).unwrap();
        s.recover(fc).unwrap();
        assert_eq!(s.layer_health(fc), Some(LayerHealth::Healthy));
        assert!(s.engine(fc).unwrap().detection_enabled());
        assert!(!s.submit(fc, &rows).unwrap().report.degraded);
    }

    #[test]
    fn foreign_layer_ids_are_typed_errors() {
        // An id issued by one session must be rejected by another, even
        // when the bare index would be in range — ids are session-bound.
        let mut issuer = session(40);
        let mut rng = Rng::new(40);
        let foreign = issuer
            .register_conv(Tensor::randn(&[1, 1, 3, 3], &mut rng), 1, 0)
            .unwrap();

        let mut s = session(4);
        let own = s
            .register_conv(Tensor::randn(&[1, 1, 3, 3], &mut rng), 1, 0)
            .unwrap();
        let input = Tensor::zeros(&[1, 4, 4]);
        assert!(s.submit(own, &input).is_ok());
        assert_eq!(
            s.submit(foreign, &input).unwrap_err(),
            MercuryError::UnknownLayer(foreign)
        );
        assert!(s.layer_stats(foreign).is_none());
        assert!(s.engine(foreign).is_none());
        assert_eq!(
            s.set_detection(foreign, false).unwrap_err(),
            MercuryError::UnknownLayer(foreign)
        );
    }

    #[test]
    fn registration_validates_parameter_ranks() {
        let mut s = session(5);
        assert!(s.register_conv(Tensor::zeros(&[2, 3, 3]), 1, 0).is_err());
        assert!(s.register_fc(Tensor::zeros(&[2, 3, 3])).is_err());
    }

    #[test]
    fn update_weights_swaps_parameters() {
        let mut rng = Rng::new(6);
        let mut s = session(6);
        let fc = s.register_fc(Tensor::randn(&[6, 2], &mut rng)).unwrap();
        let rows = Tensor::randn(&[2, 6], &mut rng);
        let before = s.submit(fc, &rows).unwrap();
        s.update_weights(fc, Tensor::zeros(&[6, 2])).unwrap();
        let after = s.submit(fc, &rows).unwrap();
        assert_ne!(before.output, after.output);
        assert!(after.output.data().iter().all(|&v| v == 0.0));
        assert!(s.update_weights(fc, Tensor::zeros(&[3])).is_err());
        let att = s.register_attention().unwrap();
        assert_eq!(
            s.update_weights(att, Tensor::zeros(&[2, 2])).unwrap_err(),
            MercuryError::NoParameters(att)
        );
    }

    #[test]
    fn bank_bytes_track_cache_state_and_drop_on_epoch() {
        let mut rng = Rng::new(70);
        let mut s = session(70);
        let conv = s
            .register_conv(Tensor::randn(&[2, 1, 3, 3], &mut rng), 1, 0)
            .unwrap();
        let fc = s.register_fc(Tensor::randn(&[8, 4], &mut rng)).unwrap();
        assert_eq!(s.bank_bytes(), 0, "fresh session holds no cache state");

        s.submit(conv, &Tensor::randn(&[1, 8, 8], &mut rng))
            .unwrap();
        let after_conv = s.bank_bytes();
        assert!(after_conv > 0, "a served request pins cache lines");
        assert_eq!(
            after_conv,
            s.engine(conv).unwrap().cache_bytes(),
            "only the served layer contributes"
        );

        s.submit(fc, &Tensor::randn(&[3, 8], &mut rng)).unwrap();
        assert!(s.bank_bytes() > after_conv, "layers sum");

        // The epoch flash-clear is the eviction lever: reported bytes
        // drop to zero even though the buffers stay allocated.
        s.advance_epoch();
        assert_eq!(s.bank_bytes(), 0);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `t` times a power of two: every row and patch keeps its RPQ
    /// signature exactly (the projections scale exactly too), so the
    /// scaled input HITs every line the original inserted, while its exact
    /// results differ.
    fn scaled(t: &Tensor, k: f32) -> Tensor {
        t.map(|v| v * k)
    }

    #[test]
    fn a_stored_row_serves_later_hits_bit_for_bit() {
        let mut rng = Rng::new(80);
        let mut s = session(80);
        let fc = s.register_fc(Tensor::randn(&[12, 6], &mut rng)).unwrap();
        let rows = Tensor::randn(&[5, 12], &mut rng);
        let first = s.submit(fc, &rows).unwrap();
        let again = s.submit(fc, &scaled(&rows, 2.0)).unwrap();
        assert_eq!(bits(&again.output), bits(&first.output));
        let st = again.stats();
        assert_eq!((st.hits, st.recomputed, st.maus), (5, 0, 0));
        assert_eq!((st.cycles.reused_dots, st.cycles.computed_dots), (5 * 6, 0));

        let conv = s
            .register_conv(Tensor::randn(&[4, 1, 3, 3], &mut rng), 1, 1)
            .unwrap();
        let img = Tensor::randn(&[1, 6, 6], &mut rng);
        let first = s.submit(conv, &img).unwrap();
        let again = s.submit(conv, &scaled(&img, 4.0)).unwrap();
        assert_eq!(bits(&again.output), bits(&first.output));
        let st = again.stats();
        assert_eq!((st.hits, st.recomputed, st.maus, st.mnus), (36, 0, 0, 0));
        assert_eq!(st.cycles.computed_dots, 0);
    }

    #[test]
    fn every_row_dropping_event_leaves_exact_results() {
        // Each event evicts the stored rows with the tags: the session
        // holds no bytes afterwards, and a scaled repeat of the first
        // submit — which would HIT any line that survived — computes its
        // own rows, matching the exact product bit for bit.
        let mut rng = Rng::new(81);
        let weights = Tensor::randn(&[10, 4], &mut rng);
        let kernels = Tensor::randn(&[3, 1, 3, 3], &mut rng);
        let new_weights = Tensor::randn(&[10, 4], &mut rng);
        let new_kernels = Tensor::randn(&[3, 1, 3, 3], &mut rng);
        let rows = Tensor::randn(&[6, 10], &mut rng);
        let img = Tensor::randn(&[1, 7, 7], &mut rng);
        let config = MercuryConfig::builder().recovery_warmup(0).build().unwrap();
        type Event<'a> = &'a dyn Fn(&mut MercurySession, LayerId, LayerId);
        let events: [(&str, Event<'_>); 4] = [
            ("update_weights", &|s, fc, conv| {
                s.update_weights(fc, new_weights.clone()).unwrap();
                s.update_weights(conv, new_kernels.clone()).unwrap();
            }),
            ("recover", &|s, fc, conv| {
                s.recover(fc).unwrap();
                s.recover(conv).unwrap();
            }),
            ("advance_epoch", &|s, _, _| {
                s.advance_epoch();
            }),
            ("grow_signatures", &|s, _, _| s.grow_signatures()),
        ];
        for (name, event) in events {
            let mut s = MercurySession::new(config, 81).unwrap();
            let fc = s.register_fc(weights.clone()).unwrap();
            let conv = s.register_conv(kernels.clone(), 1, 1).unwrap();
            s.submit(fc, &rows).unwrap();
            s.submit(conv, &img).unwrap();
            assert!(s.bank_bytes() > 0);
            event(&mut s, fc, conv);
            assert_eq!(s.bank_bytes(), 0, "{name} left bytes resident");

            let (w, k) = match name {
                "update_weights" => (&new_weights, &new_kernels),
                _ => (&weights, &kernels),
            };
            let doubled = scaled(&rows, 2.0);
            let out = s.submit(fc, &doubled).unwrap();
            let want = ops::matmul(&doubled, w).unwrap();
            assert_eq!(bits(&out.output), bits(&want), "{name}: fc");
            assert_eq!(out.stats().hits, 0, "{name}: fc");
            let doubled = scaled(&img, 2.0);
            let out = s.submit(conv, &doubled).unwrap();
            let want = mercury_tensor::conv::conv2d_multi(&doubled, k, 1, 1).unwrap();
            assert_eq!(bits(&out.output), bits(&want), "{name}: conv");
        }
    }

    #[test]
    fn bank_bytes_meter_tags_and_stored_rows() {
        let mut rng = Rng::new(82);
        let mut s = session(82);
        let fc = s.register_fc(Tensor::randn(&[10, 6], &mut rng)).unwrap();
        let att = s.register_attention().unwrap();
        let rows = Tensor::randn(&[5, 10], &mut rng);
        // Five lines, each a 17-byte tag and a stored 6-float row with
        // its line and owner words.
        let fc_bytes = 5 * (16 + 1 + 6 * 4 + 2 * 4);
        s.submit(fc, &rows).unwrap();
        assert_eq!(s.bank_bytes(), fc_bytes);
        // HITs on stored rows store nothing new.
        s.submit(fc, &scaled(&rows, 2.0)).unwrap();
        assert_eq!(s.bank_bytes(), fc_bytes);
        // Attention keeps tags only.
        s.submit(att, &rows).unwrap();
        assert_eq!(s.engine(att).unwrap().cache_bytes(), 5 * (16 + 1));
        assert_eq!(s.bank_bytes(), fc_bytes + 5 * (16 + 1));
        s.advance_epoch();
        assert_eq!(s.bank_bytes(), 0);
    }

    #[test]
    fn shared_executor_sessions_stay_bit_identical() {
        use mercury_tensor::exec::ExecutorKind;
        let mut rng = Rng::new(71);
        let kernels = Tensor::randn(&[2, 1, 3, 3], &mut rng);
        let input = Tensor::randn(&[1, 8, 8], &mut rng);

        let config = MercuryConfig::builder()
            .executor(ExecutorKind::Serial)
            .build()
            .unwrap();
        let mut own = MercurySession::new(config, 71).unwrap();
        let conv_own = own.register_conv(kernels.clone(), 1, 0).unwrap();
        let want = own.submit(conv_own, &input).unwrap();

        // Two sessions on one shared pool answer identically to a session
        // that resolved its own backend.
        let shared = Executor::threaded(4);
        for seed_session in 0..2 {
            let mut s = MercurySession::new_on(config, 71, shared.clone()).unwrap();
            let conv = s.register_conv(kernels.clone(), 1, 0).unwrap();
            let got = s.submit(conv, &input).unwrap();
            assert_eq!(got.output, want.output, "session {seed_session}");
            assert_eq!(got.report, want.report, "session {seed_session}");
        }
    }

    #[test]
    fn the_session_executor_schedules_submit_batch_alone() {
        // A lone submit runs every reuse pass — probes and dots alike — on
        // the calling thread, however large, so the handle a session was
        // built on sees no region; a batch over several layers offers it
        // exactly one.
        let mut rng = Rng::new(76);
        let exec = Executor::threaded(2);
        let mut s = MercurySession::new_on(MercuryConfig::default(), 76, exec.clone()).unwrap();
        let conv = s
            .register_conv(Tensor::randn(&[8, 4, 3, 3], &mut rng), 1, 1)
            .unwrap();
        let fc = s.register_fc(Tensor::randn(&[64, 32], &mut rng)).unwrap();
        let att = s.register_attention().unwrap();
        let img = Tensor::randn(&[4, 16, 16], &mut rng);
        let rows = Tensor::randn(&[128, 64], &mut rng);
        let seq = Tensor::randn(&[64, 16], &mut rng);
        let regions = || {
            let stats = exec.pool_stats().unwrap();
            (stats.regions_dispatched, stats.regions_inlined)
        };
        for (id, input) in [(conv, &img), (fc, &rows), (att, &seq)] {
            assert!(s.submit(id, input).unwrap().stats().maus > 0, "{id}");
            assert_eq!(regions(), (0, 0), "{id}");
        }
        s.submit_batch(&[(conv, &img), (fc, &rows), (att, &seq)])
            .unwrap();
        let (dispatched, inlined) = regions();
        assert_eq!(dispatched + inlined, 1);
    }

    #[test]
    fn submit_batch_each_returns_per_request_results() {
        let mut rng = Rng::new(72);
        let mut s = session(72);
        let conv = s
            .register_conv(Tensor::randn(&[2, 1, 3, 3], &mut rng), 1, 0)
            .unwrap();
        let good = Tensor::zeros(&[1, 6, 6]);
        let bad = Tensor::zeros(&[6, 6]); // wrong rank

        let results = s
            .submit_batch_each(&[(conv, &good), (conv, &bad), (conv, &good)])
            .unwrap();
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(MercuryError::ShapeMismatch { .. })
        ));
        assert!(
            results[2].is_ok(),
            "a rejected neighbour does not eat later requests"
        );

        // Foreign ids still fail the whole call up front.
        let mut other = session(73);
        let foreign = other
            .register_conv(Tensor::randn(&[1, 1, 3, 3], &mut rng), 1, 0)
            .unwrap();
        assert_eq!(
            s.submit_batch_each(&[(conv, &good), (foreign, &good)])
                .unwrap_err(),
            MercuryError::UnknownLayer(foreign)
        );
    }

    #[test]
    fn poisoned_scan_is_empty_on_healthy_sessions() {
        let mut rng = Rng::new(74);
        let mut s = session(74);
        let conv = s
            .register_conv(Tensor::randn(&[2, 1, 3, 3], &mut rng), 1, 0)
            .unwrap();
        assert_eq!(s.layer_health(conv), Some(LayerHealth::Healthy));
        assert_eq!(s.poisoned_layers().count(), 0);

        // Foreign ids have no health here, and never read as poisoned.
        let mut other = session(75);
        let foreign = other
            .register_conv(Tensor::randn(&[1, 1, 3, 3], &mut rng), 1, 0)
            .unwrap();
        assert_eq!(s.layer_health(foreign), None);
    }

    #[test]
    fn detection_toggle_and_growth_reach_engines() {
        let mut rng = Rng::new(7);
        let mut s = session(7);
        let conv = s
            .register_conv(Tensor::randn(&[2, 1, 3, 3], &mut rng), 1, 0)
            .unwrap();
        s.set_detection(conv, false).unwrap();
        assert!(!s.engine(conv).unwrap().detection_enabled());
        assert_eq!(s.engine(conv).unwrap().signature_bits(), 20);
        s.grow_signatures();
        assert_eq!(s.engine(conv).unwrap().signature_bits(), 21);
    }
}
