//! Explicit fixed-width SIMD kernels for the workspace's hot loops.
//!
//! Every compute-bound inner loop in the reproduction funnels through one
//! of two kernel families, laid out one-file-per-family (the UniZK
//! `src/kernel/` shape):
//!
//! * [`sign`] — the packed-panel row kernel, the workspace's one dense
//!   kernel: fused random projection + sign quantization behind batched
//!   RPQ signature generation, the dot products of every reuse engine's
//!   compute rows (conv, FC and attention), both exact conv passes
//!   ([`conv2d_multi`](crate::conv::conv2d_multi) and
//!   [`conv2d_backward_weights`](crate::conv::conv2d_backward_weights)),
//!   and [`matmul`](crate::ops::matmul),
//! * [`pack`] — the transpose that lays `[F, C·k1·k2]` filters out as
//!   the `[C·k1·k2, F]` matrix the row kernel's panels are packed from,
//!   and turns position-major results back into `[F, oh, ow]` maps.
//!
//! The row kernel ships a scalar reference and, on `x86_64`, an AVX2 path
//! selected by **runtime feature detection** (`std::arch` intrinsics — the
//! portable `std::simd` API is still nightly-only at this workspace's MSRV,
//! so the feature-gated lane types it would provide are not used). The
//! AVX2 path keeps the workspace's **bit-identical contract**: per output
//! element it performs exactly the scalar reference's operation sequence —
//! same multiplies, same adds, same ascending accumulation order, two
//! roundings per multiply-add (no FMA contraction) — so vectorizing across
//! independent elements changes nothing observable. Its unit tests pin
//! the SIMD path bit-identical to the scalar reference and to plain
//! ascending dots.

pub mod pack;
pub mod sign;

/// Whether the AVX2 kernel paths can run on this host. Detection is cached
/// by the standard library, so hot loops may call this per block without
/// re-probing CPUID.
#[cfg(target_arch = "x86_64")]
pub fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Whether the AVX2 kernel paths can run on this host (never, off
/// `x86_64` — every kernel then uses its scalar reference).
#[cfg(not(target_arch = "x86_64"))]
pub fn avx2_available() -> bool {
    false
}
