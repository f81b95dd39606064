//! Property-based pinning of the `MercurySession` streaming semantics:
//! the session's hit/miss outcomes across a multi-epoch stream are exactly
//! what manually driving a bank-split `MCache` with the same signature
//! stream produces.

use mercury_core::{MercuryConfig, MercurySession};
use mercury_mcache::{HitKind, MCache};
use mercury_rpq::ProjectionMatrix;
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;
use proptest::prelude::*;

/// Replays the session's documented determinism contract by hand: layer 0
/// of a session seeded `seed` draws its projections from `Rng::new(seed)`,
/// and an FC submit generates one signature per input row at the initial
/// signature length.
fn manual_signatures(seed: u64, rows: &Tensor, bits: usize) -> Vec<mercury_rpq::Signature> {
    let mut rng = Rng::new(seed);
    let proj = ProjectionMatrix::generate(rows.shape()[1], bits, &mut rng);
    proj.signatures(rows.data(), &mut Vec::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A session stream across N epochs produces the same per-submit
    /// hit/miss outcome counts as manually driving a bank-split `MCache`
    /// with the same signatures and clearing it at the same epoch boundaries.
    #[test]
    fn session_outcomes_match_manual_banked_driving(
        seed in 0u64..200,
        l in 6usize..12,
        epochs in 1usize..4,
        submits_per_epoch in 1usize..4,
        n in 1usize..6,
        duplicate_rows in 0usize..2,
    ) {
        let config = MercuryConfig::default();
        let mut session = MercurySession::new(config, seed).unwrap();
        let weights = Tensor::randn(&[l, 3], &mut Rng::new(seed ^ 0xABCD));
        let fc = session.register_fc(weights).unwrap();

        let mut manual = MCache::banked(config.cache, session.banks()).unwrap();

        let mut workload_rng = Rng::new(seed ^ 0x9999);
        for _ in 0..epochs {
            for _ in 0..submits_per_epoch {
                let inputs = if duplicate_rows == 1 {
                    // Repeat one row n times: maximal intra-submit reuse.
                    let row = Tensor::randn(&[1, l], &mut workload_rng);
                    let mut data = Vec::new();
                    for _ in 0..n {
                        data.extend_from_slice(row.data());
                    }
                    Tensor::from_vec(data, &[n, l]).unwrap()
                } else {
                    Tensor::randn(&[n, l], &mut workload_rng)
                };

                let sigs = manual_signatures(seed, &inputs, config.initial_signature_bits);
                let mut want = (0u64, 0u64, 0u64);
                for &sig in &sigs {
                    match manual.probe_insert(sig).kind {
                        HitKind::Hit => want.0 += 1,
                        HitKind::Mau => want.1 += 1,
                        HitKind::Mnu => want.2 += 1,
                    }
                }

                let fwd = session.submit(fc, &inputs).unwrap();
                let got = (fwd.stats().hits, fwd.stats().maus, fwd.stats().mnus);
                prop_assert_eq!(got, want, "outcome mix diverged from manual driving");
            }
            session.advance_epoch();
            manual.clear();
        }
    }
}
