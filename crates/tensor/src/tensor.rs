use crate::rng::Rng;
use crate::TensorError;
use std::fmt;

/// An owned, dense, row-major `f32` tensor.
///
/// `Tensor` is deliberately simple: the MERCURY workloads need shape-safe
/// storage, convolution, and matrix multiplication — not autograd or views.
/// All shape-sensitive constructors validate their arguments and return
/// [`TensorError`] on misuse.
///
/// # Examples
///
/// ```
/// use mercury_tensor::Tensor;
///
/// # fn main() -> Result<(), mercury_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// assert_eq!(t.shape(), &[2, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor from a flat row-major buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` differs
    /// from the product of `shape`, and [`TensorError::ZeroDim`] if any
    /// dimension is zero.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        if shape.contains(&0) {
            return Err(TensorError::ZeroDim);
        }
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::ShapeDataMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor {
            data,
            shape: shape.to_vec(),
        })
    }

    /// Creates a zero-filled tensor.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero; shapes are construction-time
    /// constants in this workspace, so this is treated as a programming
    /// error rather than a recoverable one.
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(
            shape.iter().all(|&d| d > 0),
            "tensor dimensions must be positive, got {shape:?}"
        );
        Tensor {
            data: vec![0.0; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor filled with a constant.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let mut t = Tensor::zeros(shape);
        t.data.fill(value);
        t
    }

    /// Creates a tensor of standard-normal samples.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn randn(shape: &[usize], rng: &mut Rng) -> Self {
        let mut t = Tensor::zeros(shape);
        for v in &mut t.data {
            *v = rng.next_normal();
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (never true for valid tensors).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Converts a multidimensional index to a flat offset.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.shape.len(),
            "index rank {} does not match tensor rank {}",
            idx.len(),
            self.shape.len()
        );
        let mut off = 0;
        for (i, (&ix, &dim)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(
                ix < dim,
                "index {ix} out of bounds for dim {i} (size {dim})"
            );
            off = off * dim + ix;
        }
        off
    }

    /// Reads the element at a multidimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    /// Writes the element at a multidimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.offset(idx);
        self.data[off] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the element counts
    /// differ, and [`TensorError::ZeroDim`] for zero-sized dimensions.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor, TensorError> {
        Tensor::from_vec(self.data.clone(), shape)
    }

    /// Applies a function to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies a function to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise multiplication (Hadamard product).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, |a, b| a * b)
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip_with(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        Ok(Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        })
    }

    /// Multiplies every element by a scalar, producing a new tensor.
    pub fn scale(&self, factor: f32) -> Tensor {
        self.map(|x| x * factor)
    }

    /// Adds `factor * other` into `self` (AXPY), used by SGD updates.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, factor: f32, other: &Tensor) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += factor * b;
        }
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.len() as f32
    }

    /// Maximum element value.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element in the flat buffer.
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Squared L2 norm of the flattened tensor.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Euclidean distance between two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn distance(&self, other: &Tensor) -> Result<f32, TensorError> {
        Ok(self.sub(other)?.norm_sq().sqrt())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.len() <= 16 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(f, ", data=[{} elements])", self.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_shape() {
        let err = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[2, 2]).unwrap_err();
        assert_eq!(
            err,
            TensorError::ShapeDataMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn from_vec_rejects_zero_dim() {
        assert_eq!(
            Tensor::from_vec(vec![], &[0, 3]).unwrap_err(),
            TensorError::ZeroDim
        );
    }

    #[test]
    fn row_major_indexing() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]).unwrap();
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.at(&[0, 0, 3]), 3.0);
        assert_eq!(t.at(&[0, 1, 0]), 4.0);
        assert_eq!(t.at(&[1, 0, 0]), 12.0);
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_out_of_bounds_panics() {
        Tensor::zeros(&[2, 2]).at(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "index rank")]
    fn indexing_wrong_rank_panics() {
        Tensor::zeros(&[2, 2]).at(&[0]);
    }

    #[test]
    fn set_then_get_roundtrip() {
        let mut t = Tensor::zeros(&[3, 3]);
        t.set(&[1, 2], 7.5);
        assert_eq!(t.at(&[1, 2]), 7.5);
        assert_eq!(t.at(&[2, 1]), 0.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.reshape(&[4]).unwrap();
        assert_eq!(r.data(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(t.reshape(&[5]).is_err());
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[11.0, 22.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[9.0, 18.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[10.0, 40.0]);
        assert_eq!(a.scale(3.0).data(), &[3.0, 6.0]);
    }

    #[test]
    fn mismatched_shapes_error() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(matches!(
            a.add(&b).unwrap_err(),
            TensorError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let g = Tensor::from_vec(vec![2.0, 4.0], &[2]).unwrap();
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.data(), &[0.0, -1.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -3.0, 2.0, 4.0], &[4]).unwrap();
        assert_eq!(t.sum(), 4.0);
        assert_eq!(t.mean(), 1.0);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.argmax(), 3);
        assert_eq!(t.norm_sq(), 1.0 + 9.0 + 4.0 + 16.0);
    }

    #[test]
    fn distance_is_euclidean() {
        let a = Tensor::from_vec(vec![0.0, 0.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert!((a.distance(&b).unwrap() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = Rng::new(11);
        let mut r2 = Rng::new(11);
        let a = Tensor::randn(&[4, 4], &mut r1);
        let b = Tensor::randn(&[4, 4], &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn debug_output_is_never_empty() {
        let t = Tensor::zeros(&[100]);
        let dbg = format!("{t:?}");
        assert!(dbg.contains("shape=[100]"));
        assert!(dbg.contains("100 elements"));
    }

    #[test]
    fn map_applies_function() {
        let t = Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap();
        let relu = t.map(|x| x.max(0.0));
        assert_eq!(relu.data(), &[0.0, 2.0]);
    }
}
