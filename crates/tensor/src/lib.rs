//! Dense `f32` tensor substrate for the MERCURY reproduction.
//!
//! The MERCURY accelerator (HPCA 2023) operates on multidimensional dot
//! products between *input vectors* and *weight vectors* extracted from
//! convolution, fully-connected, and attention layers. This crate provides
//! the numeric substrate every other crate in the workspace builds on:
//!
//! * [`Tensor`] — an owned, row-major, dense `f32` tensor with shape
//!   bookkeeping and bounds-checked indexing,
//! * [`conv`] — im2col extraction and reference conv2d forward/backward,
//!   matching the formulation of §II-C of the paper (equations 1 and 2),
//! * [`ops`] — matmul, transpose and elementwise helpers,
//! * [`kernel`] — the workspace's one dense kernel, the packed-panel row
//!   kernel behind RPQ signatures, the reuse engine's compute rows and
//!   the exact conv passes (its AVX2 path pinned bit-identical to its
//!   scalar reference), plus the transpose that packs its panels,
//! * [`exec`] — the pluggable [`Executor`](exec::Executor) backend (serial
//!   reference vs persistent worker pool) every parallel path in the
//!   workspace schedules through, bit-identically,
//! * [`tune`] — the [`DispatchTuning`](tune::DispatchTuning) constants
//!   an executor's dispatch gate and the engines' work hints share,
//! * [`scratch`] — per-thread recycling arenas for the hot paths' scratch
//!   buffers, so pool workers stop hitting the global allocator once warm,
//! * [`rng`] — a small deterministic RNG (SplitMix64 + Box–Muller) so every
//!   experiment in the workspace is reproducible from a single `u64` seed.
//!
//! # Examples
//!
//! ```
//! use mercury_tensor::{Tensor, rng::Rng};
//!
//! # fn main() -> Result<(), mercury_tensor::TensorError> {
//! let mut rng = Rng::new(42);
//! let input = Tensor::randn(&[1, 5, 5], &mut rng);
//! let kernels = Tensor::randn(&[1, 1, 3, 3], &mut rng);
//! let out = mercury_tensor::conv::conv2d_multi(&input, &kernels, 1, 0)?;
//! assert_eq!(out.shape(), &[1, 3, 3]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod conv;
mod error;
pub mod exec;
pub mod kernel;
pub mod ops;
pub mod rng;
pub mod scratch;
mod tensor;
pub mod tune;

pub use error::TensorError;
pub use tensor::Tensor;
