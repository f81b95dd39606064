//! The packed-panel row kernel: the workspace's one dense kernel. It runs
//! batched RPQ signature generation, the compute rows of every reuse
//! engine's reuse pass (conv channels, FC calls, both attention
//! products), the exact conv passes, and [`ops::matmul`](crate::ops::matmul)
//! — so the exact FC and attention products and the `mercury-dnn` layers
//! too.
//!
//! One call projects every row of an `[n, plen]` matrix against the columns
//! of a filter matrix held in zero-padded [`LANES`]-wide panels, so the
//! inner loop reads full fixed-width lanes with no stride and no ragged
//! tail. [`pack_panels`] lays weights out that way once per product;
//! `mercury_rpq::ProjectionMatrix` draws its random filters straight into
//! the layout and keeps them there. What happens to a row's finished
//! accumulators is the only difference between the two entry points:
//!
//! * [`sign_rows`] packs the sign bits (`projection < 0.0`) straight from
//!   the accumulator registers into one `u128` word per row — the
//!   projected matrix is never materialized;
//! * [`dot_rows`] stores them: row `i`'s dot products with every filter.
//!
//! [`LANES`] is 8 — one 256-bit vector — rather than two: signature widths
//! sit around 20 bits, where 8-lane blocks waste 4 padding lanes
//! (⌈20/8⌉·8 = 24) against 16-lane blocks' 12 (⌈20/16⌉·16 = 32), a ~25%
//! arithmetic saving, and the reduced models' 8–12 filters fill one or two
//! blocks.
//!
//! Both entry points share one accumulation body: ascending row element,
//! separate multiply then add (no FMA), accumulators seeded at `+0.0`. A
//! dot is therefore bit-identical to a sequential scalar dot of row and
//! filter, and a sign bit quantizes that dot with the exact predicate
//! `acc < 0.0` (NaN and `-0.0` quantize to 0) — on the scalar and the AVX2
//! path alike.

/// Lane width of the kernel's accumulator blocks (one 256-bit vector of
/// `f32`).
pub const LANES: usize = 8;

/// Packs the first `width` columns of a `[plen, ldb]` row-major filter
/// matrix into element-major zero-padded panels for [`sign_rows`] and
/// [`dot_rows`]: `panels[(p·nb + blk)·LANES + lane] = t[p·ldb + blk·LANES +
/// lane]` with `nb = ⌈width/LANES⌉`, and out-of-range lanes left at `0.0`.
/// `panels` is cleared and resized to `plen · nb · LANES`. All of row
/// element `p`'s blocks sit contiguously, so the kernels' `p`-outer walk
/// reads one dense `nb·LANES` slab per element — no strided block loads,
/// no per-block bounds checks. Any width packs, zero included.
///
/// # Panics
///
/// Panics if `t.len() != plen * ldb` or `ldb < width`.
pub fn pack_panels(t: &[f32], plen: usize, ldb: usize, width: usize, panels: &mut Vec<f32>) {
    assert_eq!(t.len(), plen * ldb, "filter matrix must be [plen, ldb]");
    assert!(
        ldb >= width,
        "ldb {ldb} must cover the requested {width} columns"
    );
    let ld = width.div_ceil(LANES) * LANES;
    panels.clear();
    panels.resize(plen * ld, 0.0);
    if ld > 0 {
        for (dst, src) in panels.chunks_exact_mut(ld).zip(t.chunks_exact(ldb)) {
            dst[..width].copy_from_slice(&src[..width]);
        }
    }
}

/// Projects every `plen`-element row of `rows` through the `bits` filter
/// columns packed in `panels` (the layout of [`pack_panels`], which
/// `mercury_rpq::ProjectionMatrix` keeps its random filters in), and
/// appends one sign word per row to `out`: bit `j` of a word is `1` iff
/// the row's dot product with filter `j` is strictly negative. Bits at
/// `bits` and above are zero.
///
/// Accumulation runs in ascending row-element order per filter, so each
/// bit matches a sequential scalar [`dot`](crate::ops::dot) of row and
/// filter, bit for bit — on the scalar and the AVX2 path alike.
///
/// # Panics
///
/// Panics if `plen` is zero, `rows.len()` is not a multiple of `plen`,
/// `bits` is zero or exceeds 128, or `panels` has the wrong length.
pub fn sign_rows(rows: &[f32], plen: usize, bits: usize, panels: &[f32], out: &mut Vec<u128>) {
    sign_with(run, rows, plen, bits, panels, out);
}

/// The scalar reference for [`sign_rows`], kept callable so tests can pin
/// the AVX2 path against it bit for bit.
pub fn sign_rows_scalar(
    rows: &[f32],
    plen: usize,
    bits: usize,
    panels: &[f32],
    out: &mut Vec<u128>,
) {
    sign_with(run_scalar, rows, plen, bits, panels, out);
}

/// Computes the dot products of every `plen`-element row of `rows` with
/// the `nb·LANES` packed filter columns of `panels` (see [`pack_panels`])
/// into `out` as `[rows, nb·LANES]`: `out[i·nb·LANES + j]` is row `i`
/// dotted with filter `j`, accumulated from `+0.0` in ascending
/// row-element order with a separate multiply and add — bit-identical to
/// a sequential scalar dot of row and filter. Padding lanes hold the
/// products with the zero padding.
///
/// # Panics
///
/// Panics if `plen` is zero, `rows.len()` is not a multiple of `plen`,
/// `panels.len() != plen · nb · LANES`, or
/// `out.len() != rows.len() / plen · nb · LANES`.
pub fn dot_rows(rows: &[f32], plen: usize, nb: usize, panels: &[f32], out: &mut [f32]) {
    dot_with(run, rows, plen, nb, panels, out);
}

/// The scalar reference for [`dot_rows`], kept callable so tests can pin
/// the AVX2 path against it bit for bit.
pub fn dot_rows_scalar(rows: &[f32], plen: usize, nb: usize, panels: &[f32], out: &mut [f32]) {
    dot_with(run_scalar, rows, plen, nb, panels, out);
}

/// Where a pass leaves each row's finished accumulator blocks.
enum Sink<'a> {
    /// OR each block's sign bits (`acc < 0.0`) into the row's word.
    Signs(&'a mut [u128]),
    /// Store each block's lanes into the row's `ld`-wide output row.
    Dots { out: &'a mut [f32], ld: usize },
}

/// One accumulation over every row and all `nb` panel blocks.
type Kernel = fn(&[f32], usize, usize, &[f32], &mut Sink<'_>);

/// Checks the shared operand shapes and returns the row count.
fn row_count(rows: &[f32], plen: usize, nb: usize, panels: &[f32]) -> usize {
    assert!(plen > 0, "row length must be positive");
    assert_eq!(
        rows.len() % plen,
        0,
        "row matrix length {} is not a multiple of row length {plen}",
        rows.len()
    );
    assert_eq!(
        panels.len(),
        nb * plen * LANES,
        "panels must come from pack_panels for this (plen, width)"
    );
    rows.len() / plen
}

fn sign_with(
    kernel: Kernel,
    rows: &[f32],
    plen: usize,
    bits: usize,
    panels: &[f32],
    out: &mut Vec<u128>,
) {
    assert!((1..=128).contains(&bits), "bits must be in 1..=128");
    let nb = bits.div_ceil(LANES);
    let n = row_count(rows, plen, nb, panels);
    let start = out.len();
    out.resize(start + n, 0);
    let words = &mut out[start..];
    kernel(rows, plen, nb, panels, &mut Sink::Signs(words));
    // Padding lanes accumulate only `x · 0.0` terms, which can never drive
    // a `+0.0`-seeded accumulator negative, but the contract (bits at
    // `bits` and above are zero) must not rest on that.
    if bits < 128 {
        for word in words {
            *word &= (1u128 << bits) - 1;
        }
    }
}

fn dot_with(kernel: Kernel, rows: &[f32], plen: usize, nb: usize, panels: &[f32], out: &mut [f32]) {
    let n = row_count(rows, plen, nb, panels);
    let ld = nb * LANES;
    assert_eq!(out.len(), n * ld, "out must be [rows, nb·LANES]");
    kernel(rows, plen, nb, panels, &mut Sink::Dots { out, ld });
}

/// The dispatched accumulation: AVX2 when the host has it, the scalar
/// reference otherwise.
#[allow(unsafe_code)] // runtime-dispatched call into the checked AVX2 path
fn run(rows: &[f32], plen: usize, nb: usize, panels: &[f32], sink: &mut Sink<'_>) {
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::avx2_available() {
        // SAFETY: AVX2 support was verified at runtime just above, and the
        // caller checked `panels.len() == plen · nb · LANES`.
        unsafe { avx2::run(rows, plen, nb, panels, sink) };
        return;
    }
    run_scalar(rows, plen, nb, panels, sink);
}

/// The scalar accumulation: per row and block, one `LANES`-wide
/// accumulator walks the row in ascending element order.
fn run_scalar(rows: &[f32], plen: usize, nb: usize, panels: &[f32], sink: &mut Sink<'_>) {
    for (i, row) in rows.chunks_exact(plen).enumerate() {
        for blk in 0..nb {
            let mut acc = [0.0f32; LANES];
            for (p, &x) in row.iter().enumerate() {
                let lanes = &panels[(p * nb + blk) * LANES..(p * nb + blk + 1) * LANES];
                for (a, &w) in acc.iter_mut().zip(lanes) {
                    *a += x * w;
                }
            }
            match sink {
                Sink::Signs(words) => {
                    for (lane, &a) in acc.iter().enumerate() {
                        words[i] |= ((a < 0.0) as u128) << (blk * LANES + lane);
                    }
                }
                Sink::Dots { out, ld } => {
                    let at = i * *ld + blk * LANES;
                    out[at..at + LANES].copy_from_slice(&acc);
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::{Sink, LANES};
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_cmp_ps, _mm256_loadu_ps, _mm256_movemask_ps, _mm256_mul_ps,
        _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps, _CMP_LT_OQ,
    };

    /// Blocks per pass on the grouped path for panels wider than three
    /// blocks: four 8-lane blocks, 32 filters.
    const GROUP: usize = 4;

    /// AVX2 accumulation over all `nb` blocks. Fixed block counts let the
    /// block loop unroll and the accumulators live in registers, with one
    /// broadcast of each row element shared by every block. Up to three
    /// blocks — the shipped ~20-bit signatures and the reduced models'
    /// 8–24 filters — run in one pass; wider panels run one pass per group
    /// of four blocks, then one for the remaining one to three.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime and
    /// `panels.len() == plen · nb · LANES`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run(
        rows: &[f32],
        plen: usize,
        nb: usize,
        panels: &[f32],
        sink: &mut Sink<'_>,
    ) {
        // SAFETY: AVX2 was verified by the caller, every pass covers
        // blocks inside `0..nb`, and the caller checked the panel length.
        unsafe {
            let mut blk0 = 0;
            if nb > 3 {
                while blk0 + GROUP <= nb {
                    pass::<2, GROUP>(rows, plen, nb, blk0, panels, sink, 0);
                    blk0 += GROUP;
                }
            }
            match nb - blk0 {
                1 => pass::<4, 1>(rows, plen, nb, blk0, panels, sink, 0),
                2 => pass::<4, 2>(rows, plen, nb, blk0, panels, sink, 0),
                3 => pass::<4, 3>(rows, plen, nb, blk0, panels, sink, 0),
                _ => {}
            }
        }
    }

    /// Accumulates blocks `blk0..blk0 + NB` of every row, `R` rows per
    /// step: `R·NB ≤ 12` accumulators plus `NB` panel vectors fit the
    /// 16-register file, so each panel load is reused by `R` broadcasts
    /// and the independent add chains hide the `vaddps` latency that
    /// serializes a single row's walk. Rows left over after the last full
    /// step run one at a time through the same body. Per row and lane the
    /// operation sequence is identical either way — ascending p, separate
    /// mul then add — so the batching is unobservable in the output.
    /// `row0` is the index of `rows`' first row in the sink.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime,
    /// `blk0 + NB <= nb` and `panels.len() == plen · nb · LANES`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn pass<const R: usize, const NB: usize>(
        rows: &[f32],
        plen: usize,
        nb: usize,
        blk0: usize,
        panels: &[f32],
        sink: &mut Sink<'_>,
        row0: usize,
    ) {
        let steps = rows.len() / (R * plen);
        // SAFETY: step `s` reads `R·plen` elements starting at
        // `s·R·plen`, inside `rows` for `s < steps`; the panel reads for
        // element `p` cover `(p·nb + blk0)·LANES .. (p·nb + blk0 +
        // NB)·LANES`, inside the `plen·nb·LANES` panels the caller
        // checked. All loads and stores are unaligned intrinsics.
        unsafe {
            let zero = _mm256_setzero_ps();
            for s in 0..steps {
                let xs = rows.as_ptr().add(s * R * plen);
                let mut acc = [[zero; NB]; R];
                for p in 0..plen {
                    let slab = panels.as_ptr().add((p * nb + blk0) * LANES);
                    let mut pv = [zero; NB];
                    for (blk, v) in pv.iter_mut().enumerate() {
                        *v = _mm256_loadu_ps(slab.add(blk * LANES));
                    }
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let xv = _mm256_set1_ps(*xs.add(r * plen + p));
                        for (a, &v) in accr.iter_mut().zip(&pv) {
                            *a = _mm256_add_ps(*a, _mm256_mul_ps(xv, v));
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    put(sink, row0 + s * R + r, blk0, accr);
                }
            }
            if R > 1 && steps * R * plen < rows.len() {
                let rest = &rows[steps * R * plen..];
                pass::<1, NB>(rest, plen, nb, blk0, panels, sink, row0 + steps * R);
            }
        }
    }

    /// Hands row `row`'s finished blocks `blk0..blk0 + NB` to the sink.
    /// Signs quantize with the ordered `< +0.0` compare: `_CMP_LT_OQ`
    /// makes NaN lanes compare false and `-0.0 < +0.0` false — exactly
    /// the scalar `a < 0.0`.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn put<const NB: usize>(
        sink: &mut Sink<'_>,
        row: usize,
        blk0: usize,
        acc: &[__m256; NB],
    ) {
        match sink {
            Sink::Signs(words) => {
                // At most four blocks per pass: the pass's bits fit a u64.
                let mut w = 0u64;
                for (blk, &a) in acc.iter().enumerate() {
                    let neg = _mm256_cmp_ps::<_CMP_LT_OQ>(a, _mm256_setzero_ps());
                    w |= (_mm256_movemask_ps(neg) as u32 as u64) << (blk * LANES);
                }
                words[row] |= (w as u128) << (blk0 * LANES);
            }
            Sink::Dots { out, ld } => {
                let at = row * *ld + blk0 * LANES;
                let dst = &mut out[at..at + NB * LANES];
                for (lanes, &a) in dst.chunks_exact_mut(LANES).zip(acc) {
                    // SAFETY: each chunk holds exactly LANES (8) elements,
                    // written through the unaligned intrinsic.
                    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), a) };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Row `row` dotted with column `j` of the `[plen, ldb]` matrix `t`:
    /// from `+0.0`, ascending `p`, separate multiply and add.
    fn reference_dot(row: &[f32], t: &[f32], ldb: usize, j: usize) -> f32 {
        let mut acc = 0.0f32;
        for (p, &x) in row.iter().enumerate() {
            acc += x * t[p * ldb + j];
        }
        acc
    }

    fn reference_word(row: &[f32], t: &[f32], ldb: usize, bits: usize) -> u128 {
        // Straight per-filter scalar dots — the semantics both paths pin to.
        let mut word = 0u128;
        for j in 0..bits {
            word |= ((reference_dot(row, t, ldb, j) < 0.0) as u128) << j;
        }
        word
    }

    #[test]
    fn packed_kernel_matches_scalar_dots_bit_for_bit() {
        let mut rng = Rng::new(61);
        for &(plen, ldb, bits, n) in &[
            (9usize, 20usize, 20usize, 37usize),
            (9, 20, 1, 5),
            (4, 128, 128, 11),
            (25, 64, 24, 8),
            (1, 8, 7, 16),
        ] {
            let t: Vec<f32> = (0..plen * ldb).map(|_| rng.next_normal()).collect();
            let rows: Vec<f32> = (0..n * plen).map(|_| rng.next_normal()).collect();
            let mut panels = Vec::new();
            pack_panels(&t, plen, ldb, bits, &mut panels);
            let mut simd = Vec::new();
            sign_rows(&rows, plen, bits, &panels, &mut simd);
            let mut scalar = Vec::new();
            sign_rows_scalar(&rows, plen, bits, &panels, &mut scalar);
            assert_eq!(simd, scalar, "plen={plen} bits={bits}");
            for (i, row) in rows.chunks_exact(plen).enumerate() {
                assert_eq!(
                    simd[i],
                    reference_word(row, &t, ldb, bits),
                    "plen={plen} bits={bits} row {i}"
                );
            }
        }
    }

    #[test]
    fn dot_rows_match_scalar_dots_bit_for_bit() {
        // Widths cover one to three blocks, the four-block groups, their
        // one-to-three-block tails and more than 128 filters; 1–9 rows
        // cover every remainder of the multi-row steps.
        let mut rng = Rng::new(63);
        for width in [1usize, 7, 8, 12, 20, 24, 33, 130] {
            for plen in [1usize, 4, 9, 25] {
                for n in 1usize..=9 {
                    let ldb = width + 3;
                    let t: Vec<f32> = (0..plen * ldb).map(|_| rng.next_normal()).collect();
                    let rows: Vec<f32> = (0..n * plen).map(|_| rng.next_normal()).collect();
                    let mut panels = Vec::new();
                    pack_panels(&t, plen, ldb, width, &mut panels);
                    let nb = width.div_ceil(LANES);
                    let mut simd = vec![f32::NAN; n * nb * LANES];
                    dot_rows(&rows, plen, nb, &panels, &mut simd);
                    let mut scalar = vec![f32::NAN; n * nb * LANES];
                    dot_rows_scalar(&rows, plen, nb, &panels, &mut scalar);
                    for (i, row) in rows.chunks_exact(plen).enumerate() {
                        for j in 0..width {
                            let (s, r) = (simd[i * nb * LANES + j], scalar[i * nb * LANES + j]);
                            let want = reference_dot(row, &t, ldb, j);
                            let at = format!("width={width} plen={plen} n={n} row {i} col {j}");
                            assert_eq!(s.to_bits(), r.to_bits(), "simd vs scalar, {at}");
                            assert_eq!(s.to_bits(), want.to_bits(), "simd vs dot, {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn nan_and_negative_zero_quantize_to_zero_bits() {
        // `acc < 0.0` is false for NaN and -0.0; the SIMD compare must
        // agree on both paths.
        let plen = 2;
        let bits = 3;
        // Filters: col 0 → NaN projection, col 1 → -0.0, col 2 → negative.
        let t = vec![f32::INFINITY, -0.0, -1.0, f32::NEG_INFINITY, 0.0, 0.0];
        let mut panels = Vec::new();
        pack_panels(&t, plen, bits, bits, &mut panels);
        let rows = vec![1.0f32, 1.0];
        let mut simd = Vec::new();
        sign_rows(&rows, plen, bits, &panels, &mut simd);
        let mut scalar = Vec::new();
        sign_rows_scalar(&rows, plen, bits, &panels, &mut scalar);
        assert_eq!(simd, scalar);
        // inf + -inf = NaN → 0; 1·-0.0 + 1·0.0 = +0.0 → 0; -1 → 1.
        assert_eq!(simd[0], 0b100);
    }

    #[test]
    fn high_bits_beyond_requested_width_stay_zero() {
        let mut rng = Rng::new(62);
        let (plen, bits) = (6, 13);
        let t: Vec<f32> = (0..plen * bits).map(|_| rng.next_normal()).collect();
        let rows: Vec<f32> = (0..8 * plen).map(|_| rng.next_normal()).collect();
        let mut panels = Vec::new();
        pack_panels(&t, plen, bits, bits, &mut panels);
        let mut words = Vec::new();
        sign_rows(&rows, plen, bits, &panels, &mut words);
        for w in words {
            assert_eq!(w >> bits, 0, "padding lanes leaked into the word");
        }
    }

    #[test]
    #[should_panic(expected = "bits must be in")]
    fn zero_bits_rejected() {
        sign_rows(&[0.0], 1, 0, &[], &mut Vec::new());
    }
}
