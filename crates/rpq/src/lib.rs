//! Random Projection with Quantization (RPQ) — the similarity detector at
//! the heart of MERCURY (HPCA 2023, §II-A and §III-B).
//!
//! Given an input vector `X` of length `m`, RPQ multiplies it by a random
//! matrix `R` (entries drawn from N(0, 1)) of shape `m×n` and quantizes each
//! projected element by its sign, yielding an `n`-bit [`Signature`]. Two
//! vectors with the same signature are, with high probability, close in the
//! original space — so MERCURY reuses the dot products computed for one in
//! place of the other.
//!
//! The paper's key hardware insight is that each column of `R` can be
//! treated as a *random filter*, making signature generation a convolution
//! that runs on the accelerator's existing PE array. [`ProjectionMatrix`]
//! stores its columns as exactly such filters, packed once into the panels
//! of the workspace's one dense kernel, and
//! [`signatures`](ProjectionMatrix::signatures) streams a whole batch of
//! vectors through them, the way the PE sets stream patches.
//!
//! The crate also contains the [`bloom`] baseline and the [`analysis`]
//! utilities used to regenerate Figures 1, 3, and 15c of the paper.
//!
//! # Examples
//!
//! ```
//! use mercury_rpq::ProjectionMatrix;
//! use mercury_tensor::rng::Rng;
//!
//! let mut rng = Rng::new(1);
//! let proj = ProjectionMatrix::generate(9, 20, &mut rng);
//! // Two rows of 9: a vector and a nearly identical one.
//! let mut rows = vec![0.5; 9];
//! rows.extend([0.5001; 9]);
//! let sigs = proj.signatures(&rows, &mut Vec::new());
//! assert_eq!(sigs[0], sigs[1]);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod bloom;
mod projection;
mod signature;

pub use projection::ProjectionMatrix;
pub use signature::Signature;

/// Maximum supported signature length in bits.
///
/// The paper starts at 20 bits and grows by one bit per loss plateau; 128
/// bits is far beyond any length reachable in practice.
pub const MAX_SIGNATURE_BITS: usize = 128;
