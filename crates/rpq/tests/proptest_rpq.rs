//! Property-based tests for RPQ invariants.

use mercury_rpq::analysis::{group_by_signature, similarity_fraction, unique_signature_count};
use mercury_rpq::{ProjectionMatrix, Signature};
use mercury_tensor::rng::Rng;
use proptest::prelude::*;

/// The signature of one vector: a one-row batch.
fn signature(proj: &ProjectionMatrix, v: &[f32]) -> Signature {
    proj.signatures(v, &mut Vec::new())[0]
}

proptest! {
    /// RPQ is a function: equal inputs always produce equal signatures.
    #[test]
    fn signature_is_deterministic(seed in 0u64..10_000, dim in 1usize..32) {
        let proj = ProjectionMatrix::generate(dim, 24, &mut Rng::new(seed));
        let mut rng = Rng::new(seed ^ 0xABCD);
        let v: Vec<f32> = (0..dim).map(|_| rng.next_normal()).collect();
        prop_assert_eq!(signature(&proj, &v), signature(&proj, &v));
    }

    /// Scaling a vector by a positive constant never changes its signature
    /// (sign quantization is scale-invariant).
    #[test]
    fn signature_is_positive_scale_invariant(
        seed in 0u64..10_000,
        scale in 1u32..1000
    ) {
        let proj = ProjectionMatrix::generate(8, 20, &mut Rng::new(seed));
        let mut rng = Rng::new(seed.wrapping_add(1));
        let v: Vec<f32> = (0..8).map(|_| rng.next_normal()).collect();
        let scaled: Vec<f32> = v.iter().map(|&x| x * scale as f32 / 10.0).collect();
        prop_assert_eq!(signature(&proj, &v), signature(&proj, &scaled));
    }

    /// Prefix signatures are consistent: the `k`-filter matrix drawn from
    /// the same stream signs `sig(v)[0..k]`.
    #[test]
    fn prefixes_are_consistent(seed in 0u64..10_000, k in 1usize..20) {
        let proj = ProjectionMatrix::generate(6, 20, &mut Rng::new(seed));
        let short = ProjectionMatrix::generate(6, k, &mut Rng::new(seed));
        let mut rng = Rng::new(seed.wrapping_add(7));
        let v: Vec<f32> = (0..6).map(|_| rng.next_normal()).collect();
        prop_assert_eq!(signature(&proj, &v).prefix(k), signature(&short, &v));
    }

    /// Growing the projection preserves the signature prefix: extending the
    /// matrix must not change the bits already assigned.
    #[test]
    fn extension_preserves_prefix(seed in 0u64..10_000, extra in 1usize..16) {
        let mut rng = Rng::new(seed);
        let mut proj = ProjectionMatrix::generate(5, 12, &mut rng);
        let mut vrng = Rng::new(seed ^ 55);
        let v: Vec<f32> = (0..5).map(|_| vrng.next_normal()).collect();
        let before = signature(&proj, &v);
        proj.extend_filters(extra, &mut rng);
        let after = signature(&proj, &v);
        prop_assert_eq!(after.prefix(12), before);
        prop_assert_eq!(after.len(), 12 + extra);
    }

    /// unique + reusable = total, always.
    #[test]
    fn similarity_identity(raw in proptest::collection::vec(0u128..8, 1..64)) {
        let sigs: Vec<Signature> =
            raw.iter().map(|&b| Signature::from_bits(b, 4)).collect();
        let unique = unique_signature_count(&sigs);
        let frac = similarity_fraction(&sigs);
        let reusable = (frac * sigs.len() as f64).round() as usize;
        prop_assert_eq!(unique + reusable, sigs.len());
    }

    /// Groups partition the index set.
    #[test]
    fn groups_partition_indices(raw in proptest::collection::vec(0u128..6, 1..48)) {
        let sigs: Vec<Signature> =
            raw.iter().map(|&b| Signature::from_bits(b, 4)).collect();
        let groups = group_by_signature(&sigs);
        let mut all: Vec<usize> = groups.concat();
        all.sort_unstable();
        prop_assert_eq!(all, (0..sigs.len()).collect::<Vec<_>>());
        // Within each group all signatures agree.
        for g in &groups {
            for &i in g {
                prop_assert_eq!(sigs[i], sigs[g[0]]);
            }
        }
    }

    /// Batched signature generation (one kernel pass over the patch
    /// matrix) gives every row the signature it gets on its own, for any
    /// patch matrix shape and signature length — a row's bits never depend
    /// on the rows signed beside it.
    #[test]
    fn batched_signatures_match_per_vector_path(
        seed in 0u64..10_000,
        n in 1usize..48,
        dim in 1usize..32,
        bits in 1usize..28
    ) {
        let proj = ProjectionMatrix::generate(dim, bits, &mut Rng::new(seed));
        let mut rng = Rng::new(seed ^ 0x5157);
        let patches = mercury_tensor::Tensor::randn(&[n, dim], &mut rng);
        let batched = proj.signatures(patches.data(), &mut Vec::new());
        prop_assert_eq!(batched.len(), n);
        for (sig, row) in batched.iter().zip(patches.data().chunks_exact(dim)) {
            prop_assert_eq!(*sig, signature(&proj, row));
        }
    }

    /// Hamming distance is a metric on equal-length signatures (symmetry +
    /// triangle inequality).
    #[test]
    fn hamming_is_a_metric(a in 0u128..1024, b in 0u128..1024, c in 0u128..1024) {
        let (sa, sb, sc) = (
            Signature::from_bits(a, 10),
            Signature::from_bits(b, 10),
            Signature::from_bits(c, 10),
        );
        prop_assert_eq!(sa.hamming(&sb), sb.hamming(&sa));
        prop_assert!(sa.hamming(&sc) <= sa.hamming(&sb) + sb.hamming(&sc));
        prop_assert_eq!(sa.hamming(&sa), 0);
    }
}
