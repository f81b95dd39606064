//! Matrix and vector operations used throughout the workspace.

use crate::kernel::sign::{self, LANES};
use crate::scratch::ScratchF32;
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
/// Runs on the packed-panel row kernel
/// ([`dot_rows`](crate::kernel::sign::dot_rows)): `b` is packed once into
/// zero-padded panels, every row of `a` is dotted with all its columns,
/// and the padding lanes are dropped. Each output is one ascending chain
/// over `k` from `+0.0` with a separate multiply and add, and no term is
/// skipped — a zero in `a` against an infinite or NaN entry of `b` gives
/// NaN, as IEEE arithmetic does.
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
    let ld = n.div_ceil(LANES) * LANES;
    let mut panels = ScratchF32::take();
    sign::pack_panels(b.data(), k, n, n, &mut panels);
    let mut dots = ScratchF32::zeroed(m * ld);
    sign::dot_rows(a.data(), k, ld / LANES, &panels, &mut dots);
    let mut out = Tensor::zeros(&[m, n]);
    for (orow, drow) in out
        .data_mut()
        .chunks_exact_mut(n)
        .zip(dots.chunks_exact(ld))
    {
        orow.copy_from_slice(&drow[..n]);
    }
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
    fn matmul_equals_ascending_dots_at_every_panel_remainder() {
        // Widths that leave 1, 7, 0, 1 and 1 columns in the last 8-lane
        // block: the padding lanes must be dropped, never shifted into a
        // row. Each element is one ascending dot from +0.0.
        let mut rng = Rng::new(6);
        for n in [1usize, 7, 8, 9, 33] {
            let (m, k) = (3, 5);
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            let c = matmul(&a, &b).unwrap();
            for i in 0..m {
                for j in 0..n {
                    let mut want = 0.0f32;
                    for p in 0..k {
                        want += a.at(&[i, p]) * b.at(&[p, j]);
                    }
                    assert_eq!(c.at(&[i, j]).to_bits(), want.to_bits(), "n={n} [{i}, {j}]");
                }
            }
        }
    }

    #[test]
    fn matmul_propagates_zero_times_infinity() {
        // IEEE: 0·∞ is NaN. A zero-skipping product would drop the term
        // and answer 1 at [0, 0].
        let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::INFINITY, 1.0, 1.0, 1.0], &[2, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert!(c.at(&[0, 0]).is_nan());
        assert_eq!(c.at(&[0, 1]), 1.0);
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
