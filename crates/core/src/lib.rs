//! MERCURY — input-similarity-driven computation reuse for DNN training
//! (HPCA 2023).
//!
//! This crate is the paper's primary contribution: it glues the substrates
//! together into the end-to-end MERCURY pipeline of Figure 6:
//!
//! 1. extract input vectors from a layer's input ([`mercury_tensor`]),
//! 2. generate RPQ signatures on the PE array ([`mercury_rpq`]),
//! 3. probe/populate MCACHE and build the reuse plan ([`mercury_mcache`]),
//! 4. perform the layer's dot products, *skipping* the ones whose results
//!    an earlier vector already computed — producing both the (slightly
//!    approximate) numeric output and the exact cycle accounting from the
//!    accelerator simulator ([`mercury_accel`]),
//! 5. save forward-pass signatures for reuse in the backward pass, and
//! 6. adapt at run time: grow the signature one bit per loss plateau and
//!    switch similarity detection off per layer when it stops paying for
//!    itself (§III-D).
//!
//! # The unified API
//!
//! Every engine family — [`ConvEngine`], [`FcEngine`], and
//! [`AttentionEngine`] — implements the [`ReuseEngine`] trait: one
//! [`LayerOp`] request in, one [`LayerForward`] (output + [`ReuseReport`])
//! out. For one-shot, batch-shaped use, construct an engine directly with
//! `try_new` (a one-bank MCACHE restarts per reuse scope, §III-B3). The
//! conv and FC engines compute every reuse pass from weights they have
//! bound, packed once: a call that passes the bound weights again
//! compares them instead of packing them, and one that passes other
//! weights binds those.
//!
//! For service-style workloads, drive a [`MercurySession`] instead: it
//! owns one *persistent* engine per registered layer, keeps its banked
//! MCACHE (§V) alive across an unbounded stream of
//! [`submit`](MercurySession::submit) calls, and evicts by epoch rather
//! than per forward pass. [`AdaptiveController`] implements the §III-D
//! adaptation policy on top of either shape.
//!
//! # Examples
//!
//! ```
//! use mercury_core::{LayerOp, MercuryConfig, MercurySession, ReuseEngine};
//! use mercury_tensor::{rng::Rng, Tensor};
//!
//! # fn main() -> Result<(), mercury_core::MercuryError> {
//! let mut rng = Rng::new(7);
//! let config = MercuryConfig::builder().build()?;
//! let mut session = MercurySession::new(config, 42)?;
//!
//! let kernels = Tensor::randn(&[4, 1, 3, 3], &mut rng);
//! let conv = session.register_conv(kernels, 1, 0)?;
//!
//! let input = Tensor::randn(&[1, 8, 8], &mut rng);
//! let out = session.submit(conv, &input)?;
//! assert_eq!(out.output.shape(), &[4, 6, 6]);
//! // MCACHE state persists across submits: the same input again is pure
//! // signature hits.
//! let again = session.submit(conv, &input)?;
//! assert!(again.stats().hits > out.stats().hits);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod adapt;
mod base;
mod config;
mod engine;
mod error;
mod fc;
mod reuse;
mod session;
pub mod stats;

pub use adapt::{AdaptiveController, PlateauDetector, StoppageController};
pub use config::{ConfigError, MercuryConfig, MercuryConfigBuilder, NonfinitePolicy};
pub use engine::ConvEngine;
pub use error::MercuryError;
pub use fc::{AttentionEngine, FcEngine};
pub use mercury_tensor::exec::ExecutorKind;
pub use reuse::{
    LayerForward, LayerOp, ReuseEngine, ReuseReport, ReuseSignatures, SavedSignatures,
};
pub use session::{LayerHealth, LayerId, MercurySession};
