//! Edge-case tests for MCACHE: empty-cache behaviour, full sets and full
//! banks under the no-replacement policy, and length-sensitive tags.

use mercury_mcache::{HitKind, MCache, MCacheConfig};
use mercury_rpq::Signature;

fn sig(bits: u128) -> Signature {
    Signature::from_bits(bits, 20)
}

#[test]
fn empty_cache_has_no_hits_and_clean_stats() {
    let mut cache = MCache::new(MCacheConfig::new(8, 4).unwrap());
    assert_eq!(cache.occupancy(), 0);
    assert_eq!(cache.lookup(sig(1)), None);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.maus, stats.mnus), (0, 0, 0));

    // The very first probe of an empty cache is always MAU: there is a
    // free way in every set.
    let first = cache.probe_insert(sig(1));
    assert_eq!(first.kind, HitKind::Mau);
    assert!(first.entry.is_some());
    assert_eq!(cache.occupancy(), 1);
}

#[test]
fn full_set_rejects_without_evicting_residents() {
    // One set, two ways: the third distinct signature cannot be inserted,
    // and — unlike an ordinary cache — it must NOT displace a resident.
    let mut cache = MCache::new(MCacheConfig::new(1, 2).unwrap());
    let a = cache.probe_insert(sig(10));
    let b = cache.probe_insert(sig(20));
    assert_eq!(a.kind, HitKind::Mau);
    assert_eq!(b.kind, HitKind::Mau);

    // Set is now full: new signatures are MNU forever (no replacement).
    for extra in 30..40u128 {
        assert_eq!(cache.probe_insert(sig(extra)).kind, HitKind::Mnu);
    }
    assert_eq!(cache.occupancy(), 2);

    // Residents survive the rejected inserts on their own lines.
    for (bits, first) in [(10, a), (20, b)] {
        let again = cache.probe_insert(sig(bits));
        assert_eq!((again.kind, again.entry), (HitKind::Hit, first.entry));
    }
}

#[test]
fn full_bank_rejects_while_other_banks_accept() {
    // Tiny banks: 1 set × 1 way each. Once a signature's home bank is
    // full, every further distinct signature routed to that bank is MNU,
    // while signatures homed in other banks still insert fine.
    let mut cache = MCache::banked(MCacheConfig::new(4, 1).unwrap(), 4).unwrap();

    // One one-way set per bank, so an entry's line is its bank.
    let first = cache.probe_insert(sig(0));
    assert_eq!(first.kind, HitKind::Mau);
    let home = first.entry.unwrap().line;

    // Find more signatures that land in the same bank and one that lands
    // elsewhere, by probing distinct raw patterns.
    let mut same_bank_mnu = 0;
    let mut other_bank_mau = 0;
    for raw in 1..64u128 {
        let out = cache.probe_insert(sig(raw));
        match out.kind {
            HitKind::Mnu => {
                same_bank_mnu += 1;
            }
            HitKind::Mau => {
                let bank = out.entry.unwrap().line;
                assert_ne!(bank, home, "home bank is full; MAU must be elsewhere");
                other_bank_mau += 1;
            }
            HitKind::Hit => panic!("distinct signatures must not hit"),
        }
    }
    assert!(
        same_bank_mnu > 0,
        "expected rejections in the full home bank"
    );
    assert!(other_bank_mau > 0, "expected inserts in other banks");
    // Capacity is 4 lines total (one per bank); occupancy cannot exceed it.
    assert!(cache.stats().maus <= 4);

    // The original resident still hits in its bank.
    assert_eq!(cache.probe_insert(sig(0)).kind, HitKind::Hit);
}

#[test]
fn same_bits_different_length_signatures_do_not_collide() {
    // A 20-bit signature and a 24-bit signature with identical raw bits
    // are different signatures (the adaptation loop grows lengths at run
    // time); the cache must not alias them.
    let mut cache = MCache::new(MCacheConfig::new(8, 4).unwrap());
    let short = Signature::from_bits(0xABC, 20);
    let long = Signature::from_bits(0xABC, 24);
    assert_eq!(cache.probe_insert(short).kind, HitKind::Mau);
    let second = cache.probe_insert(long);
    assert_ne!(
        second.kind,
        HitKind::Hit,
        "length must participate in tag identity"
    );
}
