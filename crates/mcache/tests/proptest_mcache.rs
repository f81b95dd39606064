//! Property-based tests for MCACHE invariants.

use mercury_mcache::{HitKind, MCache, MCacheConfig, MCacheStats};
use mercury_rpq::Signature;
use proptest::prelude::*;

fn sig(bits: u128) -> Signature {
    Signature::from_bits(bits, 20)
}

proptest! {
    /// Probing the same signature twice in a row never yields MAU twice:
    /// the second probe is a HIT (if inserted) or MNU (if its set is full).
    #[test]
    fn no_double_insert(
        bits in proptest::collection::vec(0u128..1000, 1..200),
        sets in 1usize..16,
        ways in 1usize..8
    ) {
        let mut cache = MCache::new(MCacheConfig::new(sets, ways).unwrap());
        for &b in &bits {
            let first = cache.probe_insert(sig(b));
            let second = cache.probe_insert(sig(b));
            match first.kind {
                HitKind::Hit | HitKind::Mau => {
                    prop_assert_eq!(second.kind, HitKind::Hit);
                    prop_assert_eq!(second.entry, first.entry);
                }
                HitKind::Mnu => prop_assert_eq!(second.kind, HitKind::Mnu),
            }
        }
    }

    /// Occupancy equals the number of MAU outcomes and never exceeds
    /// capacity.
    #[test]
    fn occupancy_equals_maus(
        bits in proptest::collection::vec(0u128..500, 1..300),
        sets in 1usize..8,
        ways in 1usize..8
    ) {
        let mut cache = MCache::new(MCacheConfig::new(sets, ways).unwrap());
        for &b in &bits {
            cache.probe_insert(sig(b));
        }
        let stats = cache.stats();
        prop_assert_eq!(cache.occupancy() as u64, stats.maus);
        prop_assert!(cache.occupancy() <= sets * ways);
        prop_assert_eq!(stats.probes(), bits.len() as u64);
    }

    /// A bank-split cache is `banks` one-bank caches of `sets/banks` sets
    /// each, every probe going to the one `(mix64 >> 48) % banks` names:
    /// every probe, before and after a clear, has the same kind and the
    /// same line (offset by the lines of the banks before it), and the
    /// counters and resident bytes are the caches' sums.
    #[test]
    fn bank_split_matches_per_bank_caches(
        bits in proptest::collection::vec(0u128..400, 1..300),
        bank_sets in 1usize..7,
        ways in 1usize..4
    ) {
        for banks in [1usize, 2, 3, 8] {
            let config = MCacheConfig::new(banks * bank_sets, ways).unwrap();
            let mut split = MCache::banked(config, banks).unwrap();
            let bank_config = MCacheConfig::new(bank_sets, ways).unwrap();
            let mut reference: Vec<MCache> = (0..banks).map(|_| MCache::new(bank_config)).collect();
            for _ in 0..2 {
                split.begin_insert_batch();
                reference.iter_mut().for_each(MCache::begin_insert_batch);
                for &b in &bits {
                    let s = sig(b);
                    let bank = ((s.mix64() >> 48) % banks as u64) as usize;
                    let (got, want) = (split.probe_insert(s), reference[bank].probe_insert(s));
                    prop_assert_eq!(got.kind, want.kind);
                    let offset = bank * bank_config.entries();
                    prop_assert_eq!(
                        got.entry.map(|id| id.line),
                        want.entry.map(|id| offset + id.line)
                    );
                }
                let summed = reference.iter().fold(MCacheStats::default(), |mut sum, c| {
                    let s = c.stats();
                    sum.hits += s.hits;
                    sum.maus += s.maus;
                    sum.mnus += s.mnus;
                    sum.insert_conflicts += s.insert_conflicts;
                    sum
                });
                prop_assert_eq!(split.stats(), summed);
                let bytes: usize = reference.iter().map(MCache::resident_bytes).sum();
                prop_assert_eq!(split.resident_bytes(), bytes);
                split.clear();
                reference.iter_mut().for_each(MCache::clear);
            }
        }
    }

    /// After clear() the cache behaves like new.
    #[test]
    fn clear_resets_to_fresh(bits in proptest::collection::vec(0u128..100, 1..60)) {
        let mut cache = MCache::new(MCacheConfig::new(8, 2).unwrap());
        for &b in &bits {
            cache.probe_insert(sig(b));
        }
        cache.clear();
        prop_assert_eq!(cache.occupancy(), 0);
        // First probe of any signature after clear is never a HIT.
        if let Some(&b) = bits.first() {
            let k = cache.probe_insert(sig(b)).kind;
            prop_assert_ne!(k, HitKind::Hit);
        }
    }
}
