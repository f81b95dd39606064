//! Similarity analysis utilities used by the experiment harness to
//! regenerate Figures 1, 3, and 15c of the paper.

use crate::bloom::BloomSignature;
use crate::{ProjectionMatrix, Signature};
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;

/// Number of distinct signatures in a batch — the "unique vectors found" of
/// Figure 3a and Figure 15c.
///
/// Open-addressed distinct counting keyed on the exact `(bits, len)`
/// pair: the engine tallies this for every channel of every pass, and at
/// a fixed 2n table the O(n) probe chains run well ahead of
/// sort-and-dedup on the all-distinct batches (random inputs) that are
/// its worst case. [`Signature::mix64`] supplies the slot index, so the
/// count is deterministic across platforms.
pub fn unique_signature_count(signatures: &[Signature]) -> usize {
    // `len == usize::MAX` marks an empty slot; real lengths are bounded
    // by `MAX_SIGNATURE_BITS`.
    const EMPTY: usize = usize::MAX;
    let cap = signatures
        .len()
        .saturating_mul(2)
        .next_power_of_two()
        .max(8);
    let mask = cap - 1;
    let mut slots: Vec<(u128, usize)> = vec![(0, EMPTY); cap];
    let mut unique = 0;
    for s in signatures {
        let key = (s.bits(), s.len());
        let mut i = s.mix64() as usize & mask;
        loop {
            let slot = &mut slots[i];
            if slot.1 == EMPTY {
                *slot = key;
                unique += 1;
                break;
            }
            if *slot == key {
                break;
            }
            i = (i + 1) & mask;
        }
    }
    unique
}

/// Fraction of vectors whose signature was already produced by an *earlier*
/// vector in the batch — exactly the vectors whose computations MERCURY can
/// reuse, and the quantity plotted per layer in Figure 1.
///
/// Returns 0 for an empty batch.
pub fn similarity_fraction(signatures: &[Signature]) -> f64 {
    if signatures.is_empty() {
        return 0.0;
    }
    let unique = unique_signature_count(signatures);
    (signatures.len() - unique) as f64 / signatures.len() as f64
}

/// Computes the per-batch similarity fraction of the rows of a patch
/// matrix under a fresh RPQ projection.
///
/// Convenience wrapper used by the Figure 1 experiment: one call per
/// (layer, channel).
///
/// # Panics
///
/// Panics if `patches` is not a 2-D tensor.
pub fn patch_similarity(patches: &Tensor, signature_bits: usize, rng: &mut Rng) -> f64 {
    assert_eq!(patches.rank(), 2, "patch matrix must be 2-D");
    let proj = ProjectionMatrix::generate(patches.shape()[1], signature_bits, rng);
    similarity_fraction(&proj.signatures(patches.data(), &mut Vec::new()))
}

/// Configuration of the unique-vector experiment behind Figure 3.
///
/// The paper generates `num_base` random vectors of dimension `dim`, then
/// `copies_per_base` ε-perturbed copies of each, and asks how many unique
/// vectors each detector reports. A perfect detector reports `num_base`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniqueVectorExperiment {
    /// Number of truly distinct base vectors (the paper uses 10).
    pub num_base: usize,
    /// Perturbed copies generated per base vector (the paper uses 10).
    pub copies_per_base: usize,
    /// Vector dimension (the paper uses 10).
    pub dim: usize,
    /// Magnitude of the uniform ε perturbation applied per element.
    pub epsilon: f32,
}

impl Default for UniqueVectorExperiment {
    fn default() -> Self {
        // The setup described in §II-A of the paper. ε is "insignificant"
        // relative to the N(0,1) base coordinates; 1e-3 keeps perturbed
        // copies within one RPQ hyperplane flip even at 64-bit signatures.
        UniqueVectorExperiment {
            num_base: 10,
            copies_per_base: 10,
            dim: 10,
            epsilon: 0.001,
        }
    }
}

impl UniqueVectorExperiment {
    /// Generates the vector population: each base vector followed by its
    /// perturbed copies.
    pub fn generate_population(&self, rng: &mut Rng) -> Vec<Vec<f32>> {
        let mut population = Vec::with_capacity(self.num_base * (1 + self.copies_per_base));
        for _ in 0..self.num_base {
            let base: Vec<f32> = (0..self.dim).map(|_| rng.next_normal()).collect();
            for _ in 0..self.copies_per_base {
                let copy: Vec<f32> = base
                    .iter()
                    .map(|&x| x + rng.next_range(-self.epsilon, self.epsilon))
                    .collect();
                population.push(copy);
            }
            population.push(base);
        }
        population
    }

    /// Counts unique vectors found by RPQ at the given signature length.
    pub fn unique_by_rpq(&self, signature_bits: usize, rng: &mut Rng) -> usize {
        let population = self.generate_population(rng);
        let proj = ProjectionMatrix::generate(self.dim, signature_bits, rng);
        unique_signature_count(&proj.signatures(&population.concat(), &mut Vec::new()))
    }

    /// Counts unique vectors found by a Bloom filter of the given size.
    pub fn unique_by_bloom(&self, signature_bits: usize, rng: &mut Rng) -> usize {
        let population = self.generate_population(rng);
        // Bin width of 8ε: perturbed copies almost always stay in-bin while
        // distinct standard-normal values usually do not.
        let bloom = BloomSignature::new(signature_bits, 2, self.epsilon * 8.0);
        let sigs: std::collections::HashSet<Vec<u64>> =
            population.iter().map(|v| bloom.signature(v)).collect();
        sigs.len()
    }
}

/// Groups vector indices by signature; index lists preserve insertion
/// order, with the first entry of each group being the "producer" whose
/// computation the rest reuse.
pub fn group_by_signature(signatures: &[Signature]) -> Vec<Vec<usize>> {
    let mut order: Vec<Signature> = Vec::new();
    let mut groups: std::collections::HashMap<Signature, Vec<usize>> =
        std::collections::HashMap::new();
    for (i, &sig) in signatures.iter().enumerate() {
        let entry = groups.entry(sig).or_insert_with(|| {
            order.push(sig);
            Vec::new()
        });
        entry.push(i);
    }
    order
        .into_iter()
        .map(|sig| groups.remove(&sig).unwrap())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigs(raw: &[(u128, usize)]) -> Vec<Signature> {
        raw.iter()
            .map(|&(b, l)| Signature::from_bits(b, l))
            .collect()
    }

    #[test]
    fn unique_count_basic() {
        let s = sigs(&[(1, 8), (2, 8), (1, 8), (3, 8), (2, 8)]);
        assert_eq!(unique_signature_count(&s), 3);
    }

    #[test]
    fn similarity_fraction_counts_reusable_vectors() {
        let s = sigs(&[(1, 8), (1, 8), (1, 8), (2, 8)]);
        // Two of four vectors repeat an earlier signature.
        assert!((similarity_fraction(&s) - 0.5).abs() < 1e-9);
        assert_eq!(similarity_fraction(&[]), 0.0);
    }

    #[test]
    fn all_unique_means_zero_similarity() {
        let s = sigs(&[(1, 8), (2, 8), (3, 8)]);
        assert_eq!(similarity_fraction(&s), 0.0);
    }

    #[test]
    fn group_by_signature_preserves_order() {
        let s = sigs(&[(5, 8), (7, 8), (5, 8), (9, 8), (7, 8)]);
        let groups = group_by_signature(&s);
        assert_eq!(groups, vec![vec![0, 2], vec![1, 4], vec![3]]);
    }

    #[test]
    fn experiment_population_size() {
        let exp = UniqueVectorExperiment::default();
        let pop = exp.generate_population(&mut Rng::new(1));
        assert_eq!(pop.len(), 10 * 11);
        assert!(pop.iter().all(|v| v.len() == 10));
    }

    #[test]
    fn rpq_converges_to_true_unique_count() {
        // At long signatures RPQ should find close to the 10 true uniques —
        // the headline behaviour of Figure 3a.
        let exp = UniqueVectorExperiment::default();
        let found = exp.unique_by_rpq(64, &mut Rng::new(42));
        assert!(
            (9..=13).contains(&found),
            "expected ~10 unique vectors, found {found}"
        );
    }

    #[test]
    fn rpq_undercounts_with_tiny_signatures() {
        // At 1-2 bits most distinct vectors alias — Figure 3a's left edge.
        let exp = UniqueVectorExperiment::default();
        let found = exp.unique_by_rpq(1, &mut Rng::new(42));
        assert!(
            found <= 3,
            "1-bit signature should alias heavily, found {found}"
        );
    }

    #[test]
    fn rpq_beats_bloom_at_long_signatures() {
        // Figure 3's conclusion: at longer signatures RPQ tracks the true
        // unique count better than the Bloom filter. Averaged over seeds to
        // avoid flakiness.
        let exp = UniqueVectorExperiment::default();
        let (mut rpq_err, mut bloom_err) = (0i64, 0i64);
        for seed in 0..10 {
            let r = exp.unique_by_rpq(64, &mut Rng::new(seed)) as i64;
            let b = exp.unique_by_bloom(64, &mut Rng::new(seed)) as i64;
            rpq_err += (r - 10).abs();
            bloom_err += (b - 10).abs();
        }
        assert!(
            rpq_err <= bloom_err,
            "RPQ error {rpq_err} should not exceed Bloom error {bloom_err}"
        );
    }

    #[test]
    fn patch_similarity_detects_duplicated_rows() {
        let mut rng = Rng::new(5);
        // Build a patch matrix where every row is identical.
        let row: Vec<f32> = (0..9).map(|i| i as f32 * 0.1).collect();
        let mut data = Vec::new();
        for _ in 0..8 {
            data.extend_from_slice(&row);
        }
        let patches = Tensor::from_vec(data, &[8, 9]).unwrap();
        let sim = patch_similarity(&patches, 20, &mut rng);
        assert!((sim - 7.0 / 8.0).abs() < 1e-9);
    }
}
