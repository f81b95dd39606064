use crate::MAX_SIGNATURE_BITS;
use mercury_tensor::rng::Rng;

/// A random projection matrix stored as *random filters* (its columns), the
/// layout MERCURY uses to run signature generation on the PE array.
///
/// For input vectors of length `m` and signatures of `n` bits, the matrix is
/// `m×n` with entries from N(0, 1). Column `j` — `filter(j)` — is streamed
/// through the PE sets like a convolution filter; its dot product with an
/// input vector, sign-quantized, is bit `j` of that vector's signature
/// (paper §III-B1, Figure 7).
///
/// The matrix can be *extended*: MERCURY's adaptation grows signatures one
/// bit at a time, which appends one fresh random filter while keeping all
/// existing filters unchanged (so already-stored signature prefixes remain
/// comparable).
///
/// # Examples
///
/// ```
/// use mercury_rpq::ProjectionMatrix;
/// use mercury_tensor::rng::Rng;
///
/// let mut rng = Rng::new(3);
/// let mut proj = ProjectionMatrix::generate(9, 20, &mut rng);
/// assert_eq!(proj.num_filters(), 20);
/// proj.extend_filters(1, &mut rng);
/// assert_eq!(proj.num_filters(), 21);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionMatrix {
    /// Filters in row-major order: `filters[j * input_len .. (j+1) * input_len]`.
    filters: Vec<f32>,
    /// The same coefficients in `[input_len, num_filters]` row-major layout
    /// (filter index fastest), kept in sync with `filters` so batched
    /// signature generation can run one `[n, input_len] × [input_len, bits]`
    /// product without transposing per call.
    transposed: Vec<f32>,
    input_len: usize,
    num_filters: usize,
}

impl ProjectionMatrix {
    /// Generates a projection matrix for `input_len`-element vectors and
    /// `num_filters` signature bits.
    ///
    /// # Panics
    ///
    /// Panics if `input_len == 0` or `num_filters` is zero or exceeds
    /// [`MAX_SIGNATURE_BITS`].
    pub fn generate(input_len: usize, num_filters: usize, rng: &mut Rng) -> Self {
        assert!(input_len > 0, "input length must be positive");
        assert!(
            (1..=MAX_SIGNATURE_BITS).contains(&num_filters),
            "number of filters must be in 1..={MAX_SIGNATURE_BITS}"
        );
        let mut filters = vec![0.0; input_len * num_filters];
        for v in &mut filters {
            *v = rng.next_normal();
        }
        let mut proj = ProjectionMatrix {
            filters,
            transposed: Vec::new(),
            input_len,
            num_filters,
        };
        proj.rebuild_transposed();
        proj
    }

    fn rebuild_transposed(&mut self) {
        self.transposed.clear();
        self.transposed
            .resize(self.input_len * self.num_filters, 0.0);
        for j in 0..self.num_filters {
            for i in 0..self.input_len {
                self.transposed[i * self.num_filters + j] = self.filters[j * self.input_len + i];
            }
        }
    }

    /// Length of the input vectors this matrix projects.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Number of random filters (= signature bits produced).
    pub fn num_filters(&self) -> usize {
        self.num_filters
    }

    /// Borrows random filter `j` as a flat `input_len`-element slice.
    ///
    /// # Panics
    ///
    /// Panics if `j >= num_filters()`.
    pub fn filter(&self, j: usize) -> &[f32] {
        assert!(j < self.num_filters, "filter index {j} out of range");
        &self.filters[j * self.input_len..(j + 1) * self.input_len]
    }

    /// The whole matrix in `[input_len, num_filters]` row-major layout —
    /// element `[i, j]` is component `i` of filter `j`. This is the operand
    /// shape for batched signature generation: `patches [n, input_len] ×
    /// transposed [input_len, num_filters]` projects every patch against
    /// every filter in one matrix product.
    pub fn transposed(&self) -> &[f32] {
        &self.transposed
    }

    /// Appends `extra` fresh random filters, growing the signature length
    /// without disturbing existing filters.
    ///
    /// # Panics
    ///
    /// Panics if the total would exceed [`MAX_SIGNATURE_BITS`].
    pub fn extend_filters(&mut self, extra: usize, rng: &mut Rng) {
        assert!(
            self.num_filters + extra <= MAX_SIGNATURE_BITS,
            "cannot exceed {MAX_SIGNATURE_BITS} filters"
        );
        for _ in 0..extra * self.input_len {
            self.filters.push(rng.next_normal());
        }
        self.num_filters += extra;
        self.rebuild_transposed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_has_requested_shape() {
        let mut rng = Rng::new(1);
        let p = ProjectionMatrix::generate(9, 20, &mut rng);
        assert_eq!(p.input_len(), 9);
        assert_eq!(p.num_filters(), 20);
        assert_eq!(p.filter(0).len(), 9);
        assert_eq!(p.filter(19).len(), 9);
    }

    #[test]
    fn entries_look_standard_normal() {
        let mut rng = Rng::new(2);
        let p = ProjectionMatrix::generate(100, 100, &mut rng);
        let all: Vec<f32> = (0..100).flat_map(|j| p.filter(j).to_vec()).collect();
        let n = all.len() as f64;
        let mean = all.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var = all
            .iter()
            .map(|&x| (x as f64 - mean) * (x as f64 - mean))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn extend_preserves_existing_filters() {
        let mut rng = Rng::new(3);
        let mut p = ProjectionMatrix::generate(4, 8, &mut rng);
        let before: Vec<f32> = p.filter(3).to_vec();
        p.extend_filters(5, &mut rng);
        assert_eq!(p.num_filters(), 13);
        assert_eq!(p.filter(3), before.as_slice());
        assert_eq!(p.filter(12).len(), 4);
    }

    #[test]
    fn transposed_mirrors_filters() {
        let mut rng = Rng::new(13);
        let mut p = ProjectionMatrix::generate(5, 7, &mut rng);
        let check = |p: &ProjectionMatrix| {
            for j in 0..p.num_filters() {
                for i in 0..p.input_len() {
                    assert_eq!(p.transposed()[i * p.num_filters() + j], p.filter(j)[i]);
                }
            }
        };
        check(&p);
        p.extend_filters(3, &mut rng);
        assert_eq!(p.transposed().len(), 5 * 10);
        check(&p);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ProjectionMatrix::generate(6, 10, &mut Rng::new(7));
        let b = ProjectionMatrix::generate(6, 10, &mut Rng::new(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "filter index")]
    fn filter_out_of_range_panics() {
        let p = ProjectionMatrix::generate(3, 2, &mut Rng::new(0));
        p.filter(2);
    }

    #[test]
    #[should_panic(expected = "must be in 1..=")]
    fn too_many_filters_rejected() {
        ProjectionMatrix::generate(3, 129, &mut Rng::new(0));
    }
}
