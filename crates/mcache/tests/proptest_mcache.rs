//! Property-based tests for MCACHE invariants.

use mercury_mcache::{HitKind, MCache, MCacheConfig};
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
