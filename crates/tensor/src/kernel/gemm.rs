//! The GEMM register-block kernel: one 16-lane accumulator strip.
//!
//! [`ops::gemm_blocked`](crate::ops::gemm_blocked) walks each output row in
//! [`BLOCK`]-wide strips; this module owns the strip update
//! `acc[j] += a[p] · b[p, jb + j]` over all `p`, in ascending `p` order.
//! The AVX2 path runs the identical per-lane operation sequence (separate
//! multiply and add — FMA's single rounding would break the bit-identical
//! contract), so both paths produce the same bits for every input.

/// Width of the register block: 16 `f32` lanes (two 256-bit vectors).
pub const BLOCK: usize = 16;

/// Width of the wide strip: 64 `f32` lanes (eight 256-bit vectors).
/// Amortizes the per-`p` broadcast over four times as many lanes as
/// [`BLOCK`]; [`ops::gemm_blocked`](crate::ops::gemm_blocked) prefers it
/// whenever a full strip fits the row.
pub const WIDE: usize = 4 * BLOCK;

/// Accumulates one [`WIDE`]-lane strip of an output row, `p` ascending —
/// per lane the exact operation sequence of [`accumulate_block`], so the
/// result is bit-identical to the scalar reference.
///
/// # Panics
///
/// Panics if any `b[p·ldb + jb .. p·ldb + jb + WIDE]` range for
/// `p < arow.len()` is out of bounds.
#[allow(unsafe_code)] // runtime-dispatched call into the checked AVX2 path
pub fn accumulate_wide(acc: &mut [f32; WIDE], arow: &[f32], b: &[f32], ldb: usize, jb: usize) {
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::avx2_available() {
        // SAFETY: AVX2 support was verified at runtime just above.
        unsafe { avx2::accumulate_wide(acc, arow, b, ldb, jb) };
        return;
    }
    accumulate_wide_scalar(acc, arow, b, ldb, jb);
}

/// The scalar reference for [`accumulate_wide`] — same per-lane sequence
/// as [`accumulate_block_scalar`], over the wider strip.
pub fn accumulate_wide_scalar(
    acc: &mut [f32; WIDE],
    arow: &[f32],
    b: &[f32],
    ldb: usize,
    jb: usize,
) {
    for (p, &aip) in arow.iter().enumerate() {
        let brow = &b[p * ldb + jb..p * ldb + jb + WIDE];
        for (aj, &bv) in acc.iter_mut().zip(brow) {
            *aj += aip * bv;
        }
    }
}

/// Width of the half strip: 8 `f32` lanes (one 256-bit vector). The
/// narrowest vectorized tile — [`ops::gemm_blocked`](crate::ops::gemm_blocked)
/// uses it on sub-[`BLOCK`] column tails, such as a layer whose output
/// width is not a multiple of [`BLOCK`].
pub const HALF: usize = 8;

/// Accumulates one [`HALF`]-lane strip of an output row, `p` ascending —
/// per lane the exact operation sequence of [`accumulate_block`], so the
/// result is bit-identical to the scalar reference.
///
/// # Panics
///
/// Panics if any `b[p·ldb + jb .. p·ldb + jb + HALF]` range for
/// `p < arow.len()` is out of bounds.
#[allow(unsafe_code)] // runtime-dispatched call into the checked AVX2 path
pub fn accumulate_half(acc: &mut [f32; HALF], arow: &[f32], b: &[f32], ldb: usize, jb: usize) {
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::avx2_available() {
        // SAFETY: AVX2 support was verified at runtime just above.
        unsafe { avx2::accumulate_half(acc, arow, b, ldb, jb) };
        return;
    }
    accumulate_half_scalar(acc, arow, b, ldb, jb);
}

/// The scalar reference for [`accumulate_half`] — same per-lane sequence
/// as [`accumulate_block_scalar`], over the narrower strip.
pub fn accumulate_half_scalar(
    acc: &mut [f32; HALF],
    arow: &[f32],
    b: &[f32],
    ldb: usize,
    jb: usize,
) {
    for (p, &aip) in arow.iter().enumerate() {
        let brow = &b[p * ldb + jb..p * ldb + jb + HALF];
        for (aj, &bv) in acc.iter_mut().zip(brow) {
            *aj += aip * bv;
        }
    }
}

/// Accumulates one [`BLOCK`]-wide strip of an output row:
/// `acc[j] += Σ_p arow[p] · b[p·ldb + jb + j]`, with `p` ascending — the
/// same per-element order as a sequential [`dot`](crate::ops::dot), so the
/// result is bit-identical to the scalar reference on every platform.
///
/// # Panics
///
/// Panics if any `b[p·ldb + jb .. p·ldb + jb + BLOCK]` range for
/// `p < arow.len()` is out of bounds.
#[allow(unsafe_code)] // runtime-dispatched call into the checked AVX2 path
pub fn accumulate_block(acc: &mut [f32; BLOCK], arow: &[f32], b: &[f32], ldb: usize, jb: usize) {
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::avx2_available() {
        // SAFETY: AVX2 support was verified at runtime just above.
        unsafe { avx2::accumulate_block(acc, arow, b, ldb, jb) };
        return;
    }
    accumulate_block_scalar(acc, arow, b, ldb, jb);
}

/// The scalar reference for [`accumulate_block`] — the exact loop the
/// pre-SIMD `gemm_blocked` ran, kept callable so tests can pin the AVX2
/// path against it bit for bit.
pub fn accumulate_block_scalar(
    acc: &mut [f32; BLOCK],
    arow: &[f32],
    b: &[f32],
    ldb: usize,
    jb: usize,
) {
    for (p, &aip) in arow.iter().enumerate() {
        let brow = &b[p * ldb + jb..p * ldb + jb + BLOCK];
        for (aj, &bv) in acc.iter_mut().zip(brow) {
            *aj += aip * bv;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::{BLOCK, HALF, WIDE};
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    /// AVX2 [`super::accumulate_block`]: two 8-lane vectors hold the strip.
    /// Separate `mul` + `add` (two roundings, like the scalar reference) —
    /// **not** FMA — keeps the result bit-identical.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_block(
        acc: &mut [f32; BLOCK],
        arow: &[f32],
        b: &[f32],
        ldb: usize,
        jb: usize,
    ) {
        // SAFETY: all loads/stores go through unaligned intrinsics on
        // bounds-checked slices of at least 8 elements.
        unsafe {
            let mut lo = _mm256_loadu_ps(acc.as_ptr());
            let mut hi = _mm256_loadu_ps(acc.as_ptr().add(8));
            for (p, &aip) in arow.iter().enumerate() {
                let brow = &b[p * ldb + jb..p * ldb + jb + BLOCK];
                let av = _mm256_set1_ps(aip);
                lo = _mm256_add_ps(lo, _mm256_mul_ps(av, _mm256_loadu_ps(brow.as_ptr())));
                hi = _mm256_add_ps(hi, _mm256_mul_ps(av, _mm256_loadu_ps(brow.as_ptr().add(8))));
            }
            _mm256_storeu_ps(acc.as_mut_ptr(), lo);
            _mm256_storeu_ps(acc.as_mut_ptr().add(8), hi);
        }
    }

    /// AVX2 [`super::accumulate_half`]: one 8-lane vector holds the strip.
    /// Separate `mul` + `add`, never FMA — bit-identical to the scalar
    /// reference.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_half(
        acc: &mut [f32; HALF],
        arow: &[f32],
        b: &[f32],
        ldb: usize,
        jb: usize,
    ) {
        // SAFETY: all loads/stores go through unaligned intrinsics on
        // bounds-checked slices of at least HALF elements.
        unsafe {
            let mut reg = _mm256_loadu_ps(acc.as_ptr());
            for (p, &aip) in arow.iter().enumerate() {
                let brow = &b[p * ldb + jb..p * ldb + jb + HALF];
                let av = _mm256_set1_ps(aip);
                reg = _mm256_add_ps(reg, _mm256_mul_ps(av, _mm256_loadu_ps(brow.as_ptr())));
            }
            _mm256_storeu_ps(acc.as_mut_ptr(), reg);
        }
    }

    /// AVX2 [`super::accumulate_wide`]: eight 8-lane vectors hold the
    /// strip, so each broadcast of `arow[p]` feeds 64 lanes. Separate
    /// `mul` + `add`, never FMA — bit-identical to the scalar reference.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_wide(
        acc: &mut [f32; WIDE],
        arow: &[f32],
        b: &[f32],
        ldb: usize,
        jb: usize,
    ) {
        const V: usize = WIDE / 8;
        // SAFETY: all loads/stores go through unaligned intrinsics on
        // bounds-checked slices of at least WIDE elements.
        unsafe {
            let mut regs = [_mm256_setzero_ps(); V];
            for (v, reg) in regs.iter_mut().enumerate() {
                *reg = _mm256_loadu_ps(acc.as_ptr().add(v * 8));
            }
            for (p, &aip) in arow.iter().enumerate() {
                let brow = &b[p * ldb + jb..p * ldb + jb + WIDE];
                let av = _mm256_set1_ps(aip);
                for (v, reg) in regs.iter_mut().enumerate() {
                    let bv = _mm256_loadu_ps(brow.as_ptr().add(v * 8));
                    *reg = _mm256_add_ps(*reg, _mm256_mul_ps(av, bv));
                }
            }
            for (v, reg) in regs.iter().enumerate() {
                _mm256_storeu_ps(acc.as_mut_ptr().add(v * 8), *reg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn dispatched_block_is_bit_identical_to_scalar_reference() {
        let mut rng = Rng::new(41);
        for &(k, ldb, jb) in &[
            (1usize, 16usize, 0usize),
            (9, 20, 0),
            (57, 40, 16),
            (200, 16, 0),
        ] {
            let arow: Vec<f32> = (0..k).map(|_| rng.next_normal()).collect();
            let b: Vec<f32> = (0..k * ldb).map(|_| rng.next_normal()).collect();
            let mut simd = [0.5f32; BLOCK];
            let mut scalar = simd;
            accumulate_block(&mut simd, &arow, &b, ldb, jb);
            accumulate_block_scalar(&mut scalar, &arow, &b, ldb, jb);
            for (lane, (s, r)) in simd.iter().zip(&scalar).enumerate() {
                assert!(
                    s.to_bits() == r.to_bits(),
                    "k={k} ldb={ldb} jb={jb} lane {lane}: {s} vs {r}"
                );
            }
        }
    }

    #[test]
    fn special_values_quantize_like_scalar() {
        // NaN, infinities, and signed zeros must propagate identically.
        let arow = [1.0f32, f32::NEG_INFINITY, 0.0, -0.0];
        let mut b = vec![0.0f32; 4 * BLOCK];
        b[0] = f32::NAN;
        b[BLOCK + 1] = 2.0;
        b[2 * BLOCK + 2] = -3.0;
        let mut simd = [0.0f32; BLOCK];
        let mut scalar = [0.0f32; BLOCK];
        accumulate_block(&mut simd, &arow, &b, BLOCK, 0);
        accumulate_block_scalar(&mut scalar, &arow, &b, BLOCK, 0);
        for (s, r) in simd.iter().zip(&scalar) {
            assert_eq!(s.to_bits(), r.to_bits(), "{s} vs {r}");
        }
    }

    #[test]
    fn wide_strip_is_bit_identical_to_scalar_reference() {
        let mut rng = Rng::new(43);
        for &(k, ldb, jb) in &[(1usize, 64usize, 0usize), (9, 80, 16), (57, 64, 0)] {
            let arow: Vec<f32> = (0..k).map(|_| rng.next_normal()).collect();
            let b: Vec<f32> = (0..k * ldb).map(|_| rng.next_normal()).collect();
            let mut simd = [0.25f32; WIDE];
            let mut scalar = simd;
            accumulate_wide(&mut simd, &arow, &b, ldb, jb);
            accumulate_wide_scalar(&mut scalar, &arow, &b, ldb, jb);
            for (lane, (s, r)) in simd.iter().zip(&scalar).enumerate() {
                assert!(
                    s.to_bits() == r.to_bits(),
                    "k={k} ldb={ldb} jb={jb} lane {lane}: {s} vs {r}"
                );
            }
        }
    }

    #[test]
    fn half_strip_is_bit_identical_to_scalar_reference() {
        let mut rng = Rng::new(45);
        for &(k, ldb, jb) in &[(1usize, 8usize, 0usize), (9, 20, 8), (57, 16, 8)] {
            let arow: Vec<f32> = (0..k).map(|_| rng.next_normal()).collect();
            let b: Vec<f32> = (0..k * ldb).map(|_| rng.next_normal()).collect();
            let mut simd = [0.75f32; HALF];
            let mut scalar = simd;
            accumulate_half(&mut simd, &arow, &b, ldb, jb);
            accumulate_half_scalar(&mut scalar, &arow, &b, ldb, jb);
            for (lane, (s, r)) in simd.iter().zip(&scalar).enumerate() {
                assert!(
                    s.to_bits() == r.to_bits(),
                    "k={k} ldb={ldb} jb={jb} lane {lane}: {s} vs {r}"
                );
            }
        }
    }

    #[test]
    fn wide_strip_matches_four_narrow_strips() {
        // The wide kernel must agree with four BLOCK strips over the same
        // columns — `gemm_blocked` relies on the two tilings being
        // interchangeable.
        let mut rng = Rng::new(44);
        let k = 13;
        let arow: Vec<f32> = (0..k).map(|_| rng.next_normal()).collect();
        let b: Vec<f32> = (0..k * WIDE).map(|_| rng.next_normal()).collect();
        let mut wide = [0.0f32; WIDE];
        accumulate_wide(&mut wide, &arow, &b, WIDE, 0);
        for blk in 0..WIDE / BLOCK {
            let mut narrow = [0.0f32; BLOCK];
            accumulate_block(&mut narrow, &arow, &b, WIDE, blk * BLOCK);
            for (lane, (w, n)) in wide[blk * BLOCK..(blk + 1) * BLOCK]
                .iter()
                .zip(&narrow)
                .enumerate()
            {
                assert_eq!(w.to_bits(), n.to_bits(), "block {blk} lane {lane}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn short_b_panics() {
        let mut acc = [0.0f32; BLOCK];
        accumulate_block(&mut acc, &[1.0], &[0.0; 8], 16, 0);
    }
}
