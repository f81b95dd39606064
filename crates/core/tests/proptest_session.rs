//! Property-based pinning of the `MercurySession` streaming semantics:
//! the session's hit/miss outcomes across a multi-epoch stream are exactly
//! what manually driving a `BankedMCache` with the same signature stream
//! produces, and the epoch flash-clear machinery (an O(1) data-version
//! epoch bump — not a data wipe) never resurrects a
//! stale value.

use mercury_core::{MercuryConfig, MercurySession};
use mercury_mcache::banked::BankedMCache;
use mercury_mcache::{HitKind, MCacheConfig};
use mercury_rpq::{ProjectionMatrix, SignatureGenerator};
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
    let generator = SignatureGenerator::new(&proj);
    generator.signatures_for_patches_prefix(rows, bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A session stream across N epochs produces the same per-submit
    /// hit/miss outcome counts as manually driving a `BankedMCache` with
    /// the same signatures and clearing it at the same epoch boundaries.
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

        let banks = session.banks();
        let per_bank = MCacheConfig::new(config.cache.sets / banks, config.cache.ways, 1).unwrap();
        let mut manual = BankedMCache::new(banks, per_bank).unwrap();

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

    /// The data half of the epoch flash-clear is an O(1) epoch-counter
    /// bump, not a data wipe — so this pins that no value written in an
    /// earlier epoch can
    /// ever be read back after the boundary, no matter how the epochs
    /// interleave probes, writes, and clears.
    #[test]
    fn epoch_flash_clear_never_resurrects_values(
        seed in 0u64..500,
        epochs in 1usize..5,
        writes_per_epoch in 1usize..8,
        sig_pool in 1usize..6,
    ) {
        let per_bank = MCacheConfig::new(4, 2, 1).unwrap();
        let mut cache = BankedMCache::new(4, per_bank).unwrap();
        let mut rng = Rng::new(seed);
        let pool: Vec<mercury_rpq::Signature> = (0..sig_pool)
            .map(|_| mercury_rpq::Signature::from_bits(rng.next_u64() as u128, 20))
            .collect();

        for epoch in 0..epochs {
            for w in 0..writes_per_epoch {
                let sig = pool[rng.next_below(pool.len())];
                let out = cache.probe_insert(sig);
                if let Some(id) = out.entry {
                    // Before this epoch's write, the line must never expose
                    // a previous epoch's value (tagged by epoch number).
                    if let Some(v) = cache.read(id, 0) {
                        let (got_epoch, _) = decode(v);
                        prop_assert_eq!(
                            got_epoch, epoch as u32,
                            "stale value resurrected across an epoch clear"
                        );
                    }
                    cache.write(id, 0, encode(epoch as u32, w as u32)).unwrap();
                    prop_assert_eq!(cache.read(id, 0), Some(encode(epoch as u32, w as u32)));
                }
            }
            // Epoch boundary: flash clears (data version epochs bumped in
            // O(1), set occupancies reset in O(sets); no per-entry walk),
            // exactly what `MercurySession::advance_epoch`
            // drives per engine.
            cache.invalidate_all_data();
            cache.clear();
        }
    }
}

/// Packs `(epoch, serial)` into an exactly-representable f32 payload.
fn encode(epoch: u32, serial: u32) -> f32 {
    (epoch * 1024 + serial) as f32
}

fn decode(v: f32) -> (u32, u32) {
    let raw = v as u32;
    (raw / 1024, raw % 1024)
}
