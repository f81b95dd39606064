use crate::{Signature, MAX_SIGNATURE_BITS};
use mercury_tensor::kernel::sign::{self, LANES};
use mercury_tensor::rng::Rng;

/// A random projection matrix stored as *random filters* (its columns), the
/// layout MERCURY uses to run signature generation on the PE array.
///
/// For input vectors of length `m` and signatures of `n` bits, the matrix is
/// `m×n` with entries from N(0, 1). Column `j` is random filter `j`,
/// streamed through the PE sets like a convolution filter; its dot product
/// with an input vector, sign-quantized, is bit `j` of that vector's
/// signature (paper §III-B1, Figure 7).
///
/// The filters are held in one form only: the zero-padded, element-major
/// [`LANES`]-wide panels the packed-panel row kernel
/// ([`sign_rows`](mercury_tensor::kernel::sign::sign_rows)) reads, so
/// [`signatures`](Self::signatures) signs any batch with no repacking.
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
/// let sigs = proj.signatures(&[0.5; 18], &mut Vec::new());
/// assert_eq!(sigs.len(), 2);
/// assert_eq!(sigs[0], sigs[1]);
/// assert_eq!(sigs[0].len(), 21);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionMatrix {
    /// Component `i` of filter `j` at `panels[i·ld + j]`, with `ld` the
    /// filter count rounded up to whole [`LANES`] blocks and the padding
    /// lanes zero (the layout of
    /// [`pack_panels`](mercury_tensor::kernel::sign::pack_panels)).
    panels: Vec<f32>,
    input_len: usize,
    num_filters: usize,
}

impl ProjectionMatrix {
    /// Generates a projection matrix for `input_len`-element vectors and
    /// `num_filters` signature bits. Filters are drawn one at a time, each
    /// one's components in order.
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
        let mut proj = ProjectionMatrix {
            panels: Vec::new(),
            input_len,
            num_filters: 0,
        };
        proj.extend_filters(num_filters, rng);
        proj
    }

    /// Length of the input vectors this matrix projects.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Number of random filters (= signature bits produced).
    pub fn num_filters(&self) -> usize {
        self.num_filters
    }

    /// Appends `extra` fresh random filters, growing the signature length
    /// without disturbing existing filters. The panels widen by whole
    /// [`LANES`] blocks when the padding lanes run out.
    ///
    /// # Panics
    ///
    /// Panics if the total would exceed [`MAX_SIGNATURE_BITS`].
    pub fn extend_filters(&mut self, extra: usize, rng: &mut Rng) {
        assert!(
            self.num_filters + extra <= MAX_SIGNATURE_BITS,
            "cannot exceed {MAX_SIGNATURE_BITS} filters"
        );
        let (old, filters) = (self.num_filters, self.num_filters + extra);
        let (old_ld, ld) = (lanes_for(old), lanes_for(filters));
        if ld > old_ld {
            let mut wider = vec![0.0; self.input_len * ld];
            for i in 0..self.input_len {
                wider[i * ld..i * ld + old].copy_from_slice(&self.panels[i * old_ld..][..old]);
            }
            self.panels = wider;
        }
        for j in old..filters {
            for i in 0..self.input_len {
                self.panels[i * ld + j] = rng.next_normal();
            }
        }
        self.num_filters = filters;
    }

    /// The signature of every `input_len`-element row of `rows`, at the
    /// matrix's full length: bit `j` is `1` iff the row's dot product with
    /// filter `j` is strictly negative — the paper quantizes sign-bit-0
    /// (non-negative) to 0 and sign-bit-1 to 1.
    ///
    /// One pass of the packed-panel row kernel
    /// ([`sign_rows`](mercury_tensor::kernel::sign::sign_rows)) quantizes
    /// straight from its accumulators, each a sequential ascending dot of
    /// row and filter, so every bit equals the scalar
    /// [`dot`](mercury_tensor::ops::dot) of the two quantized the same way.
    /// `words` is scratch for the kernel's sign words (cleared here), so a
    /// caller signing many batches allocates only the returned vector.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the input length.
    pub fn signatures(&self, rows: &[f32], words: &mut Vec<u128>) -> Vec<Signature> {
        assert_eq!(
            rows.len() % self.input_len,
            0,
            "row matrix length {} is not a multiple of projection input length {}",
            rows.len(),
            self.input_len
        );
        words.clear();
        sign::sign_rows(rows, self.input_len, self.num_filters, &self.panels, words);
        words
            .iter()
            .map(|&word| Signature::from_bits(word, self.num_filters))
            .collect()
    }
}

/// Panel width for `filters` filters: whole [`LANES`] blocks.
fn lanes_for(filters: usize) -> usize {
    filters.div_ceil(LANES) * LANES
}

#[cfg(test)]
mod tests {
    use super::*;
    use mercury_tensor::ops::dot;

    fn setup(input_len: usize, bits: usize, seed: u64) -> ProjectionMatrix {
        ProjectionMatrix::generate(input_len, bits, &mut Rng::new(seed))
    }

    fn signature(proj: &ProjectionMatrix, v: &[f32]) -> Signature {
        let sigs = proj.signatures(v, &mut Vec::new());
        assert_eq!(sigs.len(), 1);
        sigs[0]
    }

    fn normals(n: usize, rng: &mut Rng) -> Vec<f32> {
        (0..n).map(|_| rng.next_normal()).collect()
    }

    /// Filter `j`'s components, read back out of the panels.
    fn filter(p: &ProjectionMatrix, j: usize) -> Vec<f32> {
        let ld = lanes_for(p.num_filters);
        (0..p.input_len).map(|i| p.panels[i * ld + j]).collect()
    }

    #[test]
    fn generate_has_requested_shape() {
        let mut rng = Rng::new(1);
        let p = ProjectionMatrix::generate(9, 20, &mut rng);
        assert_eq!(p.input_len(), 9);
        assert_eq!(p.num_filters(), 20);
        assert_eq!(p.panels.len(), 9 * 24);
    }

    #[test]
    fn entries_look_standard_normal() {
        let mut rng = Rng::new(2);
        let p = ProjectionMatrix::generate(100, 100, &mut rng);
        let all: Vec<f32> = (0..100).flat_map(|j| filter(&p, j)).collect();
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
        let before = filter(&p, 3);
        p.extend_filters(5, &mut rng);
        assert_eq!(p.num_filters(), 13);
        assert_eq!(filter(&p, 3), before);
        assert_eq!(filter(&p, 12).len(), 4);
    }

    #[test]
    fn extension_equals_generation_at_the_longer_length() {
        // Filters are drawn one at a time from the RNG stream, so growing
        // a matrix from `a` to `a + b` filters — across lane blocks or
        // inside one — gives the matrix drawn at `a + b` directly.
        for (m, a, b) in [(9, 20, 13), (9, 23, 1), (9, 24, 1), (4, 7, 1), (3, 1, 127)] {
            let mut rng = Rng::new(14);
            let mut grown = ProjectionMatrix::generate(m, a, &mut rng);
            grown.extend_filters(b, &mut rng);
            assert_eq!(grown, setup(m, a + b, 14), "m={m} a={a} b={b}");
        }
    }

    #[test]
    fn signatures_equal_per_filter_scalar_dots() {
        // Filter `j` is the `j`-th run of `m` normals of the generating
        // stream; each bit is the scalar dot with it, quantized by `< 0`.
        for (m, bits, n) in [(9, 20, 37), (9, 33, 5), (4, 128, 11), (25, 8, 9), (1, 1, 3)] {
            let proj = setup(m, bits, 15);
            let mut stream = Rng::new(15);
            let filters: Vec<Vec<f32>> = (0..bits).map(|_| normals(m, &mut stream)).collect();
            let rows = normals(n * m, &mut Rng::new(16));
            let sigs = proj.signatures(&rows, &mut Vec::new());
            assert_eq!(sigs.len(), n);
            for (row, sig) in rows.chunks_exact(m).zip(&sigs) {
                let mut want = Signature::empty();
                for f in &filters {
                    want.push_bit(dot(row, f) < 0.0);
                }
                assert_eq!(*sig, want, "m={m} bits={bits}");
            }
        }
    }

    #[test]
    fn identical_vectors_share_signature() {
        let proj = setup(9, 20, 1);
        let v = vec![0.3, -0.2, 1.5, 0.0, 0.7, -1.1, 0.4, 0.9, -0.6];
        assert_eq!(signature(&proj, &v), signature(&proj, &v));
    }

    #[test]
    fn near_vectors_usually_share_signature() {
        let proj = setup(10, 20, 2);
        let mut rng = Rng::new(99);
        let mut matches = 0;
        let trials = 100;
        for _ in 0..trials {
            let base = normals(10, &mut rng);
            let near: Vec<f32> = base.iter().map(|&x| x + 1e-5 * rng.next_normal()).collect();
            if signature(&proj, &base) == signature(&proj, &near) {
                matches += 1;
            }
        }
        assert!(matches >= 95, "only {matches}/{trials} near-pairs matched");
    }

    #[test]
    fn far_vectors_usually_differ() {
        let proj = setup(10, 24, 3);
        let mut rng = Rng::new(100);
        let mut collisions = 0;
        let trials = 200;
        for _ in 0..trials {
            let a = normals(10, &mut rng);
            let b = normals(10, &mut rng);
            if signature(&proj, &a) == signature(&proj, &b) {
                collisions += 1;
            }
        }
        assert!(
            collisions <= 2,
            "{collisions}/{trials} random pairs collided"
        );
    }

    #[test]
    fn negated_vector_flips_every_bit() {
        let proj = setup(8, 16, 4);
        // A vector with no zero projections flips all sign bits when negated.
        let v = vec![1.0, 2.0, -0.5, 0.25, -1.5, 3.0, 0.75, -2.0];
        let neg: Vec<f32> = v.iter().map(|&x| -x).collect();
        assert_eq!(signature(&proj, &v).hamming(&signature(&proj, &neg)), 16);
    }

    #[test]
    fn batch_matches_per_vector() {
        // A row's signature does not depend on the batch it is signed in.
        let proj = setup(4, 12, 6);
        let rows = [
            1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0, 0.5, 0.5, 0.5, 0.5,
        ];
        let batch = proj.signatures(&rows, &mut Vec::new());
        assert_eq!(batch.len(), 3);
        for (sig, row) in batch.iter().zip(rows.chunks_exact(4)) {
            assert_eq!(*sig, signature(&proj, row));
        }
    }

    #[test]
    fn longer_signatures_are_stricter() {
        // With more bits, fewer distinct vectors collide: collisions at n
        // bits are a superset of collisions at m > n bits.
        let proj = setup(10, 64, 7);
        let mut rng = Rng::new(8);
        for _ in 0..100 {
            let a = signature(&proj, &normals(10, &mut rng));
            let b = signature(&proj, &normals(10, &mut rng));
            if a == b {
                assert_eq!(
                    a.prefix(8),
                    b.prefix(8),
                    "prefix equality must be implied by full equality"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "is not a multiple of projection input length")]
    fn wrong_length_vector_panics() {
        setup(4, 8, 9).signatures(&[1.0, 2.0], &mut Vec::new());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ProjectionMatrix::generate(6, 10, &mut Rng::new(7));
        let b = ProjectionMatrix::generate(6, 10, &mut Rng::new(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "must be in 1..=")]
    fn too_many_filters_rejected() {
        ProjectionMatrix::generate(3, 129, &mut Rng::new(0));
    }
}
