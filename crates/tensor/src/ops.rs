//! Matrix and vector operations used throughout the workspace.

use crate::exec::Executor;
use crate::kernel;
use crate::{Tensor, TensorError};

/// Dot product of two equal-length slices.
///
/// This is the fundamental operation MERCURY memoizes: every PE-set
/// computation in the simulator reduces to calls of this function.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot operands must have equal length");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Matrix multiplication of a `[m, k]` tensor by a `[k, n]` tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-2-D operands and
/// [`TensorError::ShapeMismatch`] when the inner dimensions differ.
///
/// # Examples
///
/// ```
/// use mercury_tensor::{ops, Tensor};
///
/// # fn main() -> Result<(), mercury_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
/// assert_eq!(ops::matmul(&a, &i)?, a);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: a.rank(),
        });
    }
    if b.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: b.rank(),
        });
    }
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().to_vec(),
            right: b.shape().to_vec(),
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    for i in 0..m {
        for p in 0..k {
            let aip = ad[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            let orow = &mut od[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aip * bv;
            }
        }
    }
    Ok(out)
}

/// Blocked GEMM over raw row-major slices: `out[m, n] += a[m, k] · b[k, n]`,
/// where `b`'s rows are `ldb` elements long and only its first `n` columns
/// participate (`ldb >= n`). The leading-dimension parameter lets callers
/// multiply against a column prefix of a wider matrix — e.g. the first
/// `bits` filters of a transposed projection matrix — without copying.
///
/// The k-dimension is tiled so a block of `b` stays cache-resident across
/// all rows of `a`, while the innermost loop streams `out` and `b` rows
/// contiguously (auto-vectorizable). Accumulation over `k` runs in
/// ascending order per output element, so results are bit-identical to a
/// sequential [`dot`] of the corresponding row and column.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m`/`k`/`n`/`ldb` or
/// `ldb < n`.
pub fn gemm_blocked(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    ldb: usize,
) {
    assert!(ldb >= n, "ldb {ldb} must be at least n {n}");
    assert_eq!(a.len(), m * k, "a must be [m, k]");
    assert_eq!(b.len(), k * ldb, "b must be [k, ldb]");
    assert_eq!(out.len(), m * n, "out must be [m, n]");
    // Register-blocked along j: full JB-wide blocks keep the running
    // accumulator in registers across the whole k loop (the SIMD strip
    // kernel, or its unrolled scalar reference); the sub-JB tail streams
    // the output row instead, so no variable-length block defeats
    // unrolling.
    const JB: usize = kernel::gemm::BLOCK;
    const JW: usize = kernel::gemm::WIDE;
    const JH: usize = kernel::gemm::HALF;
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        let mut jb = 0;
        // Widest strip first: one broadcast of `a[i, p]` feeds 64 lanes.
        // Both strip kernels perform the identical per-lane sequence, so
        // the tiling split is unobservable in the output bits.
        while jb + JW <= n {
            let mut acc = [0.0f32; JW];
            acc.copy_from_slice(&orow[jb..jb + JW]);
            kernel::gemm::accumulate_wide(&mut acc, arow, b, ldb, jb);
            orow[jb..jb + JW].copy_from_slice(&acc);
            jb += JW;
        }
        while jb + JB <= n {
            let mut acc = [0.0f32; JB];
            acc.copy_from_slice(&orow[jb..jb + JB]);
            kernel::gemm::accumulate_block(&mut acc, arow, b, ldb, jb);
            orow[jb..jb + JB].copy_from_slice(&acc);
            jb += JB;
        }
        while jb + JH <= n {
            let mut acc = [0.0f32; JH];
            acc.copy_from_slice(&orow[jb..jb + JH]);
            kernel::gemm::accumulate_half(&mut acc, arow, b, ldb, jb);
            orow[jb..jb + JH].copy_from_slice(&acc);
            jb += JH;
        }
        if jb < n {
            let orow = &mut orow[jb..];
            for (p, &aip) in arow.iter().enumerate() {
                let brow = &b[p * ldb + jb..p * ldb + n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += aip * bv;
                }
            }
        }
    }
}

/// [`gemm_blocked`] scheduled on an [`Executor`]: the `m` output rows are
/// split into one contiguous chunk per worker and each chunk runs the
/// serial kernel. Every output element is produced by exactly the code
/// path [`gemm_blocked`] would run for it — accumulation order per
/// element is unchanged — so the result is **bit-identical** to the
/// serial call for any worker count.
///
/// Each chunk carries its *own* FLOP count (`chunk_flops` of its actual
/// row count — the final chunk is often short) as the executor's
/// per-item work hint, so the small GEMMs of service-style
/// single-request forwards run inline instead of waking pool workers —
/// the pooled backend only dispatches once a product is large enough to
/// amortize the handoff.
///
/// # Panics
///
/// Same contract as [`gemm_blocked`].
#[allow(clippy::too_many_arguments)] // mirrors gemm_blocked's raw-slice contract + executor
pub fn gemm_blocked_on(
    exec: &Executor,
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    ldb: usize,
) {
    let workers = exec.threads().min(m);
    if workers <= 1 || k == 0 || n == 0 {
        // The serial fallback is a single chunk: one fault event.
        #[cfg(feature = "fault-inject")]
        let fault = mercury_faults::poll(mercury_faults::FaultSite::GemmChunk);
        #[cfg(feature = "fault-inject")]
        chunk_fault_pre(fault);
        gemm_blocked(out, a, b, m, k, n, ldb);
        #[cfg(feature = "fault-inject")]
        chunk_fault_post(fault, out);
        return;
    }
    assert!(ldb >= n, "ldb {ldb} must be at least n {n}");
    assert_eq!(a.len(), m * k, "a must be [m, k]");
    assert_eq!(b.len(), k * ldb, "b must be [k, ldb]");
    assert_eq!(out.len(), m * n, "out must be [m, n]");
    let rows_per = m.div_ceil(workers);
    // Fault events are drawn on the dispatching thread in chunk order,
    // BEFORE the fan-out, so which chunk faults never depends on pool
    // scheduling; the action itself fires on whichever worker runs the
    // chunk.
    #[cfg(feature = "fault-inject")]
    let chunk_faults: Vec<Option<mercury_faults::FaultAction>> = (0..m.div_ceil(rows_per))
        .map(|_| mercury_faults::poll(mercury_faults::FaultSite::GemmChunk))
        .collect();
    let chunks = out
        .chunks_mut(rows_per * n)
        .zip(a.chunks(rows_per * k))
        .enumerate();
    exec.map(
        chunks,
        |(_, (_, arows))| chunk_flops(arows.len() / k, k, n),
        || (),
        |(_i, (orows, arows)), ()| {
            #[cfg(feature = "fault-inject")]
            chunk_fault_pre(chunk_faults[_i]);
            let rows = arows.len() / k;
            gemm_blocked(orows, arows, b, rows, k, n, ldb);
            #[cfg(feature = "fault-inject")]
            chunk_fault_post(chunk_faults[_i], orows);
        },
    );
}

/// Applies the pre-compute half of a [`GemmChunk`] fault: `Panic` fires
/// here so the unwind starts on the worker that owns the chunk, exactly
/// where a real in-kernel fault would originate.
///
/// [`GemmChunk`]: mercury_faults::FaultSite::GemmChunk
#[cfg(feature = "fault-inject")]
fn chunk_fault_pre(action: Option<mercury_faults::FaultAction>) {
    if matches!(action, Some(mercury_faults::FaultAction::Panic)) {
        mercury_faults::injected_panic(mercury_faults::FaultSite::GemmChunk);
    }
}

/// Applies the post-compute half of a [`GemmChunk`] fault: `NanPayload`
/// plants a NaN in the chunk's first output slot after the kernel has
/// written real data, modelling a corrupted result rather than a crash.
/// `CorruptTag` has no meaning at the GEMM level and is ignored.
///
/// [`GemmChunk`]: mercury_faults::FaultSite::GemmChunk
#[cfg(feature = "fault-inject")]
fn chunk_fault_post(action: Option<mercury_faults::FaultAction>, orows: &mut [f32]) {
    if matches!(action, Some(mercury_faults::FaultAction::NanPayload)) {
        if let Some(slot) = orows.first_mut() {
            *slot = f32::NAN;
        }
    }
}

/// The dispatch work hint for a GEMM row chunk: `2 · rows · k · n`
/// scalar FLOPs, computed with saturating multiplies so hint arithmetic
/// on absurd dimensions clamps to `usize::MAX` instead of overflowing
/// (the hint only gates pool dispatch — saturation errs toward
/// dispatching, never toward wrapping small).
pub(crate) fn chunk_flops(rows: usize, k: usize, n: usize) -> usize {
    2usize
        .saturating_mul(rows)
        .saturating_mul(k)
        .saturating_mul(n)
}

/// Blocked matrix multiplication of a `[m, k]` tensor by a `[k, n]` tensor.
///
/// Same contract as [`matmul`], computed via [`gemm_blocked`]: tiled over
/// the inner dimension for cache locality, with per-element accumulation in
/// ascending `k` order (bit-identical to [`dot`] of row and column).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-2-D operands and
/// [`TensorError::ShapeMismatch`] when the inner dimensions differ.
pub fn matmul_blocked(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: a.rank(),
        });
    }
    if b.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: b.rank(),
        });
    }
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().to_vec(),
            right: b.shape().to_vec(),
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    gemm_blocked(out.data_mut(), a.data(), b.data(), m, k, n, n);
    Ok(out)
}

/// [`matmul_blocked`] scheduled on an [`Executor`] (row-sharded via
/// [`gemm_blocked_on`]; bit-identical to the serial call).
///
/// # Errors
///
/// Same contract as [`matmul_blocked`].
pub fn matmul_blocked_on(exec: &Executor, a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: a.rank(),
        });
    }
    if b.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: b.rank(),
        });
    }
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().to_vec(),
            right: b.shape().to_vec(),
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    gemm_blocked_on(exec, out.data_mut(), a.data(), b.data(), m, k, n, n);
    Ok(out)
}

/// Transpose of a 2-D tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-2-D input.
pub fn transpose(t: &Tensor) -> Result<Tensor, TensorError> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: t.rank(),
        });
    }
    let (r, c) = (t.shape()[0], t.shape()[1]);
    let src = t.data();
    // Walk the output row-major: output row j is input column j.
    let mut out = Vec::with_capacity(src.len());
    for j in 0..c {
        out.extend((0..r).map(|i| src[i * c + j]));
    }
    Tensor::from_vec(out, &[c, r])
}

/// Numerically stable softmax over the last axis of a 2-D tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-2-D input.
pub fn softmax_rows(t: &Tensor) -> Result<Tensor, TensorError> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: t.rank(),
        });
    }
    let (rows, cols) = (t.shape()[0], t.shape()[1]);
    let mut out = t.clone();
    let data = out.data_mut();
    for r in 0..rows {
        let row = &mut data[r * cols..(r + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    Ok(out)
}

/// Rectified linear unit applied elementwise.
pub fn relu(t: &Tensor) -> Tensor {
    t.map(|x| x.max(0.0))
}

/// Derivative mask of ReLU: 1 where the pre-activation was positive.
pub fn relu_grad_mask(pre_activation: &Tensor) -> Tensor {
    pre_activation.map(|x| if x > 0.0 { 1.0 } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = Rng::new(4);
        let a = Tensor::randn(&[3, 3], &mut rng);
        let mut eye = Tensor::zeros(&[3, 3]);
        for i in 0..3 {
            eye.set(&[i, i], 1.0);
        }
        let prod = matmul(&a, &eye).unwrap();
        for (x, y) in prod.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matches!(
            matmul(&a, &b).unwrap_err(),
            TensorError::ShapeMismatch { .. }
        ));
        let v = Tensor::zeros(&[3]);
        assert!(matches!(
            matmul(&v, &b).unwrap_err(),
            TensorError::RankMismatch { .. }
        ));
    }

    #[test]
    fn matmul_blocked_matches_matmul() {
        let mut rng = Rng::new(17);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 4),
            (17, 130, 9),
            (64, 9, 20),
        ] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            let plain = matmul(&a, &b).unwrap();
            let blocked = matmul_blocked(&a, &b).unwrap();
            assert_eq!(blocked.shape(), plain.shape());
            for (x, y) in blocked.data().iter().zip(plain.data()) {
                assert!((x - y).abs() < 1e-4, "blocked {x} vs plain {y}");
            }
        }
    }

    #[test]
    fn gemm_blocked_is_bit_identical_to_dot() {
        // The engine's equivalence contract depends on gemm accumulating in
        // the same order as `dot`: identical bits, not merely close.
        let mut rng = Rng::new(18);
        let (m, k, n) = (7, 200, 13);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let bt = transpose(&b).unwrap();
        let mut out = vec![0.0; m * n];
        gemm_blocked(&mut out, a.data(), b.data(), m, k, n, n);
        for i in 0..m {
            for j in 0..n {
                let want = dot(
                    &a.data()[i * k..(i + 1) * k],
                    &bt.data()[j * k..(j + 1) * k],
                );
                assert!(
                    out[i * n + j].to_bits() == want.to_bits(),
                    "gemm[{i},{j}] = {} differs in bits from dot {}",
                    out[i * n + j],
                    want
                );
            }
        }
    }

    #[test]
    fn gemm_blocked_column_prefix_via_ldb() {
        // Multiplying against the first n columns of a wider matrix (the
        // signature-prefix case) must agree with a copied-out prefix.
        let mut rng = Rng::new(19);
        let (m, k, full, n) = (5, 9, 24, 10);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, full], &mut rng);
        let mut prefix = Tensor::zeros(&[k, n]);
        for p in 0..k {
            for j in 0..n {
                prefix.set(&[p, j], b.at(&[p, j]));
            }
        }
        let mut wide = vec![0.0; m * n];
        gemm_blocked(&mut wide, a.data(), b.data(), m, k, n, full);
        let narrow = matmul_blocked(&a, &prefix).unwrap();
        assert_eq!(wide.as_slice(), narrow.data());
    }

    #[test]
    fn gemm_blocked_on_is_bit_identical_for_any_worker_count() {
        let mut rng = Rng::new(21);
        let (m, k, n) = (23, 57, 19);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let mut serial = vec![0.0; m * n];
        gemm_blocked(&mut serial, a.data(), b.data(), m, k, n, n);
        for threads in [1, 2, 3, 8, 64] {
            let exec = Executor::threaded(threads);
            let mut sharded = vec![0.0; m * n];
            gemm_blocked_on(&exec, &mut sharded, a.data(), b.data(), m, k, n, n);
            for (i, (s, p)) in sharded.iter().zip(&serial).enumerate() {
                assert!(
                    s.to_bits() == p.to_bits(),
                    "{threads} threads: element {i} differs ({s} vs {p})"
                );
            }
        }
    }

    #[test]
    fn gemm_blocked_on_handles_degenerate_shapes() {
        // m=0 must be a no-op on every backend; empty chunk vectors and
        // zero-length slices must not panic the hint math.
        for exec in [Executor::serial(), Executor::threaded(4)] {
            let mut out: Vec<f32> = Vec::new();
            gemm_blocked_on(&exec, &mut out, &[], &[0.0; 15], 0, 3, 5, 5);
            assert!(out.is_empty());
            // k=0 and n=0 short-circuit to the serial kernel.
            let mut out = vec![1.0f32; 6];
            gemm_blocked_on(&exec, &mut out, &[], &[], 2, 0, 3, 3);
            assert_eq!(out, vec![1.0; 6]);
            let mut out: Vec<f32> = Vec::new();
            gemm_blocked_on(&exec, &mut out, &[0.0; 8], &[0.0; 12], 2, 4, 0, 3);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn short_tail_chunk_carries_its_own_hint() {
        // threads=2, m=3 → rows_per=2: chunks of 2 and 1 rows. With
        // k=64, n=80 the true work is 20480 + 10240 = 30720, under the
        // 32768 dispatch floor — the old uniform hint (2 × 20480 = 40960)
        // dispatched this region on the tail chunk's padding alone.
        let (m, k, n) = (3, 64, 80);
        let mut rng = Rng::new(23);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let mut serial = vec![0.0; m * n];
        gemm_blocked(&mut serial, a.data(), b.data(), m, k, n, n);
        let exec = Executor::threaded(2);
        let before = exec.pool_stats().unwrap();
        let mut sharded = vec![0.0; m * n];
        gemm_blocked_on(&exec, &mut sharded, a.data(), b.data(), m, k, n, n);
        let after = exec.pool_stats().unwrap();
        assert_eq!(
            after.regions_dispatched, before.regions_dispatched,
            "under-threshold region must not wake the pool"
        );
        assert_eq!(after.regions_inlined, before.regions_inlined + 1);
        for (s, p) in sharded.iter().zip(&serial) {
            assert_eq!(s.to_bits(), p.to_bits());
        }
        // One more row tips the true total (40960) over the floor.
        let (m2, k2, n2) = (4, 64, 80);
        let a = Tensor::randn(&[m2, k2], &mut rng);
        let b = Tensor::randn(&[k2, n2], &mut rng);
        let mut out = vec![0.0; m2 * n2];
        gemm_blocked_on(&exec, &mut out, a.data(), b.data(), m2, k2, n2, n2);
        assert_eq!(
            exec.pool_stats().unwrap().regions_dispatched,
            after.regions_dispatched + 1
        );
    }

    #[test]
    fn chunk_flops_saturates_instead_of_overflowing() {
        // Overflow-shaped dimensions: 2·rows·k·n far exceeds usize::MAX.
        // The hint must clamp (erring toward dispatch), not wrap.
        let huge = 1usize << 40;
        assert_eq!(chunk_flops(huge, huge, huge), usize::MAX);
        assert_eq!(chunk_flops(usize::MAX, 1, 1), usize::MAX);
        assert_eq!(chunk_flops(0, huge, huge), 0);
        assert_eq!(chunk_flops(3, 4, 5), 120);
    }

    #[test]
    fn matmul_blocked_on_matches_serial_including_prefix_case() {
        let mut rng = Rng::new(22);
        let exec = Executor::threaded(4);
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (5, 30, 7), (40, 9, 24)] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            let serial = matmul_blocked(&a, &b).unwrap();
            let sharded = matmul_blocked_on(&exec, &a, &b).unwrap();
            assert_eq!(serial, sharded);
        }
        // Error paths agree too.
        assert!(
            matmul_blocked_on(&exec, &Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2])).is_err()
        );
        assert!(matmul_blocked_on(&exec, &Tensor::zeros(&[3]), &Tensor::zeros(&[3, 2])).is_err());
    }

    #[test]
    #[should_panic(expected = "ldb")]
    fn gemm_blocked_rejects_narrow_ldb() {
        let mut out = vec![0.0; 4];
        gemm_blocked(&mut out, &[1.0, 2.0], &[1.0, 2.0], 2, 1, 2, 1);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::new(2);
        let t = Tensor::randn(&[4, 7], &mut rng);
        let tt = transpose(&transpose(&t).unwrap()).unwrap();
        assert_eq!(t, tt);
    }

    #[test]
    fn transpose_swaps_indices() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = transpose(&t).unwrap();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at(&[2, 0]), t.at(&[0, 2]));
        assert_eq!(tt.at(&[1, 1]), t.at(&[1, 1]));
        assert_eq!(tt.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = Rng::new(5);
        let t = Tensor::randn(&[3, 6], &mut rng);
        let s = softmax_rows(&t).unwrap();
        for r in 0..3 {
            let sum: f32 = (0..6).map(|c| s.at(&[r, c])).sum();
            assert!((sum - 1.0).abs() < 1e-5);
            for c in 0..6 {
                assert!(s.at(&[r, c]) > 0.0);
            }
        }
    }

    #[test]
    fn softmax_handles_large_values() {
        let t = Tensor::from_vec(vec![1000.0, 1000.0], &[1, 2]).unwrap();
        let s = softmax_rows(&t).unwrap();
        assert!((s.at(&[0, 0]) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn relu_and_mask_agree() {
        let t = Tensor::from_vec(vec![-2.0, 0.0, 3.0], &[3]).unwrap();
        assert_eq!(relu(&t).data(), &[0.0, 0.0, 3.0]);
        assert_eq!(relu_grad_mask(&t).data(), &[0.0, 0.0, 1.0]);
    }
}
