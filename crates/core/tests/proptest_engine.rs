//! Property-based tests of the MERCURY engines' core guarantees, driven
//! through the unified [`ReuseEngine`] trait.

use mercury_core::{
    ConvEngine, ExecutorKind, FcEngine, LayerOp, MercuryConfig, ReuseEngine, SavedSignatures,
};
use mercury_mcache::MCacheConfig;
use mercury_rpq::analysis::unique_signature_count;
use mercury_tensor::conv::{conv2d_multi, extract_patches, ConvGeometry};
use mercury_tensor::rng::Rng;
use mercury_tensor::{ops, Tensor};
use proptest::prelude::*;

fn conv_engine(seed: u64) -> ConvEngine {
    ConvEngine::try_new(MercuryConfig::default(), seed).unwrap()
}

fn fc_engine(seed: u64) -> FcEngine {
    FcEngine::try_new(MercuryConfig::default(), seed).unwrap()
}

/// A batch and a persistent conv engine over `cache`, on the serial and
/// the two-thread executor.
fn reuse_engines(cache: MCacheConfig, seed: u64) -> Vec<ConvEngine> {
    let banks = if cache.sets % 8 == 0 { 8 } else { 1 };
    [ExecutorKind::Serial, ExecutorKind::Threaded { threads: 2 }]
        .into_iter()
        .flat_map(|kind| {
            let config = MercuryConfig::builder()
                .executor(kind)
                .cache(cache)
                .build()
                .unwrap();
            [
                ConvEngine::try_new(config, seed).unwrap(),
                ConvEngine::persistent(config, seed, banks).unwrap(),
            ]
        })
        .collect()
}

/// The reuse semantics computed from their definition (§III-C1): within
/// a channel, every vector takes the dot products of the first vector
/// with the same signature, read off the saved signatures, each computed
/// from 0.0 in ascending k. The channels then sum in channel order.
fn reuse_reference(input: &Tensor, kernels: &Tensor, pad: usize, sigs: &SavedSignatures) -> Tensor {
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (f, k) = (kernels.shape()[0], kernels.shape()[2]);
    let geom = ConvGeometry::new(h, w, k, k, 1, pad).unwrap();
    let (n, plen) = (geom.num_patches(), geom.patch_len());
    let mut out = vec![0.0f32; f * n];
    for (ch, sig) in sigs.per_channel.iter().enumerate() {
        let channel =
            Tensor::from_vec(input.data()[ch * h * w..(ch + 1) * h * w].to_vec(), &[h, w]);
        let patches = extract_patches(&channel.unwrap(), &geom).unwrap();
        for v in 0..n {
            let producer = sig.iter().position(|s| *s == sig[v]).unwrap();
            let patch = &patches.data()[producer * plen..(producer + 1) * plen];
            for fi in 0..f {
                let taps = &kernels.data()[(fi * c + ch) * plen..(fi * c + ch + 1) * plen];
                let mut acc = 0.0f32;
                for (&t, &x) in taps.iter().zip(patch) {
                    acc += t * x;
                }
                out[fi * n + v] += acc;
            }
        }
    }
    Tensor::from_vec(out, &[f, geom.out_h(), geom.out_w()]).unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On i.i.d. random inputs the engine output matches the exact
    /// convolution *whenever no signature hit occurred*; with hits (rare
    /// but legitimate — overlapping patches are correlated), the deviation
    /// stays bounded because reused producers are angularly close.
    #[test]
    fn random_inputs_match_exact_conv(
        seed in 0u64..500,
        c in 1usize..3,
        f in 1usize..5,
        size in 5usize..10,
    ) {
        let mut rng = Rng::new(seed);
        let input = Tensor::randn(&[c, size, size], &mut rng);
        let kernels = Tensor::randn(&[f, c, 3, 3], &mut rng);
        let mut engine = conv_engine(seed ^ 0x5555);
        let got = engine.forward(LayerOp::conv(&input, &kernels, 1, 1)).unwrap();
        let want = conv2d_multi(&input, &kernels, 1, 1).unwrap();
        if got.stats().hits == 0 {
            for (g, w) in got.output.data().iter().zip(want.data()) {
                prop_assert!((g - w).abs() < 1e-3, "got {g}, want {w}");
            }
        } else {
            let err = got.output.sub(&want).unwrap().norm_sq().sqrt()
                / want.norm_sq().sqrt().max(1e-6);
            prop_assert!(err < 0.5, "relative error {err} with {} hits", got.stats().hits);
        }
    }

    /// The outcome ledger always partitions the probes: hits + maus +
    /// mnus == channels × patches, and every reused dot product has a
    /// matching hit.
    #[test]
    fn stats_ledger_partitions_probes(
        seed in 0u64..500,
        c in 1usize..4,
        f in 1usize..6,
        size in 5usize..9,
    ) {
        let mut rng = Rng::new(seed);
        let input = Tensor::randn(&[c, size, size], &mut rng);
        let kernels = Tensor::randn(&[f, c, 3, 3], &mut rng);
        let mut engine = conv_engine(seed);
        let out = engine.forward(LayerOp::conv(&input, &kernels, 1, 0)).unwrap();
        let stats = out.stats();
        let patches = (size - 2) * (size - 2);
        prop_assert_eq!(stats.total_vectors(), (c * patches) as u64);
        prop_assert_eq!(
            stats.cycles.reused_dots,
            stats.hits * f as u64
        );
        prop_assert_eq!(
            stats.cycles.computed_dots,
            (stats.maus + stats.mnus) * f as u64
        );
    }

    /// Duplicating a channel's content produces identical per-channel
    /// outputs: reuse decisions are channel-local and deterministic.
    #[test]
    fn duplicate_channels_behave_identically(seed in 0u64..500, size in 5usize..9) {
        let mut rng = Rng::new(seed);
        let one = Tensor::randn(&[1, size, size], &mut rng);
        let mut two_data = one.data().to_vec();
        two_data.extend_from_slice(one.data());
        let two = Tensor::from_vec(two_data, &[2, size, size]).unwrap();
        // A kernel with identical taps for both channels.
        let k1 = Tensor::randn(&[1, 1, 3, 3], &mut rng);
        let mut k2_data = k1.data().to_vec();
        k2_data.extend_from_slice(k1.data());
        let k2 = Tensor::from_vec(k2_data, &[1, 2, 3, 3]).unwrap();

        let mut e1 = conv_engine(42);
        let mut e2 = conv_engine(42);
        let o1 = e1.forward(LayerOp::conv(&one, &k1, 1, 0)).unwrap();
        let o2 = e2.forward(LayerOp::conv(&two, &k2, 1, 0)).unwrap();
        // Channel accumulation: out2 == 2 × out1.
        for (a, b) in o1.output.data().iter().zip(o2.output.data()) {
            prop_assert!((2.0 * a - b).abs() < 1e-3);
        }
        prop_assert_eq!(o2.stats().total_vectors(), 2 * o1.stats().total_vectors());
    }

    /// Saved-signature reuse never changes outcomes when geometry matches:
    /// the reuse pattern is a pure function of the signatures.
    #[test]
    fn reloaded_signatures_reproduce_outcomes(seed in 0u64..500, size in 5usize..9) {
        let mut rng = Rng::new(seed);
        let input = Tensor::randn(&[1, size, size], &mut rng).scale(0.05);
        let kernels = Tensor::randn(&[3, 1, 3, 3], &mut rng);
        let mut engine = conv_engine(seed);
        let first = engine.forward(LayerOp::conv(&input, &kernels, 1, 0)).unwrap();
        let second = engine
            .forward_reusing(LayerOp::conv(&input, &kernels, 1, 0), &first.report.signatures)
            .unwrap();
        prop_assert_eq!(first.stats().hits, second.stats().hits);
        prop_assert_eq!(first.stats().maus, second.stats().maus);
        prop_assert_eq!(first.output, second.output);
    }

    /// The conv engines implement the reuse semantics exactly. On
    /// quantized inputs, where HITs are common, every run without MNUs
    /// equals the producer reference bit for bit, and every run's unique
    /// count equals the distinct signatures it saved. This holds for batch
    /// and persistent engines, serial and threaded, on a cold pass and on
    /// a second pass that meets every tag resident; a 1-set × 2-way cache
    /// forces MNUs. The filter counts reach every block layout of the
    /// packed-panel row kernel: one to three 8-lane blocks, the four-block
    /// groups with and without a tail, and more than 128 filters.
    #[test]
    fn conv_reuse_matches_the_producer_reference(
        seed in 0u64..500,
        c in 1usize..4,
        f in (0usize..12).prop_map(|i| [1, 2, 3, 4, 8, 9, 16, 17, 24, 25, 33, 130][i]),
        size in 4usize..9,
        pad in 0usize..2,
        levels in 1usize..4,
        tiny_cache in 0usize..2,
    ) {
        let mut rng = Rng::new(seed);
        let pixels = (0..c * size * size)
            .map(|_| rng.next_below(levels + 1) as f32 * 0.5)
            .collect();
        let input = Tensor::from_vec(pixels, &[c, size, size]).unwrap();
        let kernels = Tensor::randn(&[f, c, 3, 3], &mut rng);
        let cache = if tiny_cache == 1 {
            MCacheConfig::new(1, 2).unwrap()
        } else {
            MCacheConfig::paper_default()
        };
        for mut engine in reuse_engines(cache, seed) {
            for _pass in 0..2 {
                let out = engine.forward(LayerOp::conv(&input, &kernels, 1, pad)).unwrap();
                let sigs = out.report.signatures.as_conv().unwrap();
                let unique: usize = sigs.per_channel.iter().map(|s| unique_signature_count(s)).sum();
                prop_assert_eq!(out.stats().unique_vectors, unique as u64);
                if out.stats().mnus == 0 {
                    let want = reuse_reference(&input, &kernels, pad, sigs);
                    prop_assert_eq!(bits(&out.output), bits(&want));
                }
            }
        }
    }

    /// FC engine: duplicated minibatch rows always produce bit-identical
    /// output rows (whole-row forwarding).
    #[test]
    fn fc_duplicate_rows_forward_exactly(
        seed in 0u64..500,
        n in 2usize..8,
        l in 2usize..12,
        m in 1usize..8,
    ) {
        let mut rng = Rng::new(seed);
        let row = Tensor::randn(&[1, l], &mut rng);
        let mut data = Vec::new();
        for _ in 0..n {
            data.extend_from_slice(row.data());
        }
        let inputs = Tensor::from_vec(data, &[n, l]).unwrap();
        let weights = Tensor::randn(&[l, m], &mut rng);
        let mut engine = fc_engine(seed);
        let out = engine.forward(LayerOp::fc(&inputs, &weights)).unwrap();
        prop_assert_eq!(out.stats().hits as usize, n - 1);
        for i in 1..n {
            prop_assert_eq!(
                &out.output.data()[0..m],
                &out.output.data()[i * m..(i + 1) * m]
            );
        }
    }

    /// Bit-exact matmul agreement for FC on independent rows when no
    /// signature collision occurred (low-dimensional rows can collide
    /// under 20 random hyperplanes — legitimate RPQ behaviour). Both run
    /// the packed-panel row kernel; `m` up to 33 spans one to five panel
    /// blocks.
    #[test]
    fn fc_random_rows_match_matmul(
        seed in 0u64..500,
        n in 1usize..8,
        l in 8usize..16,
        m in 1usize..34,
    ) {
        let mut rng = Rng::new(seed);
        let inputs = Tensor::randn(&[n, l], &mut rng);
        let weights = Tensor::randn(&[l, m], &mut rng);
        let mut engine = fc_engine(seed ^ 1);
        let out = engine.forward(LayerOp::fc(&inputs, &weights)).unwrap();
        prop_assume!(out.stats().hits == 0);
        let want = ops::matmul(&inputs, &weights).unwrap();
        prop_assert_eq!(bits(&out.output), bits(&want));
    }

    /// Persistent engines must answer a repeated submit with exactly the
    /// first answer: every cross-call HIT copies the row its line stored,
    /// which is the row the first submit fanned out.
    #[test]
    fn persistent_fc_resubmits_stay_exact(
        seed in 0u64..300,
        n in 1usize..6,
        l in 8usize..14,
        m in 1usize..5,
        resubmits in 1usize..4,
    ) {
        let mut rng = Rng::new(seed);
        let inputs = Tensor::randn(&[n, l], &mut rng);
        let weights = Tensor::randn(&[l, m], &mut rng);
        let mut engine = FcEngine::persistent(MercuryConfig::default(), seed ^ 2, 8).unwrap();
        let first = engine.forward(LayerOp::fc(&inputs, &weights)).unwrap();
        for _ in 0..resubmits {
            let again = engine.forward(LayerOp::fc(&inputs, &weights)).unwrap();
            prop_assert_eq!(&again.output, &first.output);
            // All earlier tags are resident, so nothing inserts anew, and
            // all their rows are stored, so nothing recomputes.
            prop_assert_eq!(again.stats().maus, 0);
            prop_assert_eq!(again.stats().recomputed, 0);
        }
    }
}
