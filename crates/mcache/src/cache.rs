use crate::{HitKind, McacheError};
use mercury_rpq::Signature;

/// Identifies one cache line: signatures resolve to an `EntryId` once, and
/// later accesses go through the id without re-comparing tags (paper §V:
/// "the entry id is saved along with the signature in the signature
/// table").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryId {
    /// Set index.
    pub set: usize,
    /// Way index within the set.
    pub way: usize,
}

/// Geometry of an [`MCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MCacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl MCacheConfig {
    /// Creates a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`McacheError::InvalidConfig`] if either parameter is zero.
    pub fn new(sets: usize, ways: usize) -> Result<Self, McacheError> {
        if sets == 0 || ways == 0 {
            return Err(McacheError::InvalidConfig(
                "sets and ways must be positive".to_string(),
            ));
        }
        Ok(MCacheConfig { sets, ways })
    }

    /// The paper's default configuration: 1024 entries, 16-way (64 sets).
    pub fn paper_default() -> Self {
        MCacheConfig { sets: 64, ways: 16 }
    }

    /// Total entries (`sets × ways`).
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }
}

/// Result of [`MCache::probe_insert`]: the access outcome plus the entry id
/// (present for HIT and MAU accesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// HIT / MAU / MNU classification.
    pub kind: HitKind,
    /// The line holding this signature (None for MNU).
    pub entry: Option<EntryId>,
}

/// Access counters, aggregated across the cache's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MCacheStats {
    /// Probes that found a valid matching tag.
    pub hits: u64,
    /// Probes that inserted a new tag (miss-and-update).
    pub maus: u64,
    /// Probes rejected because the set was full (miss-no-update).
    pub mnus: u64,
    /// Number of per-set insertion conflicts: inserts that found another
    /// insert already queued on the same set in the same batch window. The
    /// FPGA design serializes these through a per-set queue (paper §V).
    pub insert_conflicts: u64,
}

impl MCacheStats {
    /// Total probes.
    pub fn probes(&self) -> u64 {
        self.hits + self.maus + self.mnus
    }
}

/// The MERCURY memoization cache (see the [crate docs](crate) for the
/// design rationale).
///
/// This is the tag half of the hardware cache: it classifies every probe
/// and hands out the entry ids that group same-signature vectors. The
/// data half — the result rows — lives in
/// [`BankedMCache`](crate::banked::BankedMCache), the cache the reuse
/// engines hold. Storage is
/// structure-of-arrays — one flat buffer per field across all
/// `sets × ways` lines — so set scans touch contiguous memory.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct MCache {
    config: MCacheConfig,
    /// Tag bit patterns, `sets × ways`, row-major by set. Stored split
    /// from the lengths so a set scan streams packed 16-byte words; a tag
    /// matches when both its bits and its length equal the probe's.
    tag_bits: Vec<u128>,
    /// Tag signature lengths, same layout as `tag_bits`.
    tag_len: Vec<u8>,
    /// Number of occupied ways per set. Ways fill strictly in order (an
    /// insert always claims the lowest free way and nothing short of
    /// [`clear`](Self::clear) ever frees one), so the valid tags of a set
    /// are exactly the prefix `0..set_len[set]` — a set scan never needs
    /// per-way valid bits.
    set_len: Vec<u32>,
    stats: MCacheStats,
    /// Per-set count of inserts in the current batch window, for modelling
    /// the per-set insertion queue of the FPGA implementation.
    batch_inserts: Vec<u32>,
    /// Per-set resident-prefix filter: bit `p` is set iff some resident
    /// tag in the set has signature prefix `p` (6 bits of `mix64` disjoint
    /// from the set-index bits). A probe whose prefix bit is clear cannot
    /// match any resident tag, so the set scan — the dominant cost of a
    /// miss on a well-occupied set — is skipped entirely. Conservative by
    /// construction (bits are only ever set on insert, cleared on
    /// [`clear`](Self::clear)), so probe outcomes are unchanged.
    set_prefix: Vec<u64>,
}

/// Bytes of one resident tag: its bit pattern and its length.
const TAG_BYTES: usize = std::mem::size_of::<u128>() + std::mem::size_of::<u8>();

/// The resident-prefix filter bit for a signature: 6 bits of the mixed
/// hash, taken from above the set-index bits (sets are at most 2^32 in any
/// sane geometry; shipped ones use 6–8 bits) so the two stay decorrelated.
#[inline]
fn prefix_bit(h: u64) -> u64 {
    1u64 << ((h >> 32) & 63)
}

impl MCache {
    /// Creates an empty cache.
    pub fn new(config: MCacheConfig) -> Self {
        MCache {
            config,
            tag_bits: vec![0; config.entries()],
            tag_len: vec![0; config.entries()],
            set_len: vec![0; config.sets],
            stats: MCacheStats::default(),
            batch_inserts: vec![0; config.sets],
            set_prefix: vec![0; config.sets],
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> MCacheConfig {
        self.config
    }

    /// Lifetime access counters.
    pub fn stats(&self) -> MCacheStats {
        self.stats
    }

    fn set_of_hash(&self, h: u64) -> usize {
        let sets = self.config.sets as u64;
        // Same value either way; the mask avoids a hardware divide on the
        // power-of-two geometries every shipped configuration uses.
        if sets.is_power_of_two() {
            (h & (sets - 1)) as usize
        } else {
            (h % sets) as usize
        }
    }

    /// Scans the occupied prefix of a set for a tag match. The scan
    /// compares the packed bit patterns first and the lengths — which
    /// differ for equal bits essentially never — only on a bit match.
    fn scan_set(&self, set: usize, sig: Signature) -> Option<usize> {
        let base = set * self.config.ways;
        let len = self.set_len[set] as usize;
        let (bits, slen) = (sig.bits(), sig.len() as u8);
        (0..len).find(|&way| self.tag_bits[base + way] == bits && self.tag_len[base + way] == slen)
    }

    /// Looks a signature up without modifying the cache.
    pub fn lookup(&self, sig: Signature) -> Option<EntryId> {
        let h = sig.mix64();
        let set = self.set_of_hash(h);
        if self.set_prefix[set] & prefix_bit(h) == 0 {
            return None; // no resident tag shares the prefix
        }
        self.scan_set(set, sig).map(|way| EntryId { set, way })
    }

    /// Probes for a signature and inserts it on a miss if the set has a
    /// free way — the operation of Figure 9 in the paper.
    ///
    /// Returns HIT with the existing entry, MAU with the newly claimed
    /// entry, or MNU with no entry when the set is full (no replacement).
    ///
    /// The set is scanned once: a tag match anywhere in the set wins (HIT),
    /// otherwise the lowest free way is claimed (MAU), exactly as a
    /// lookup-then-insert pair would decide.
    pub fn probe_insert(&mut self, sig: Signature) -> AccessOutcome {
        self.probe_insert_hashed(sig, sig.mix64())
    }

    /// [`probe_insert`](Self::probe_insert) with the signature's `mix64`
    /// supplied by the caller, so routing layers that already hashed for
    /// bank selection don't pay the mix twice per probe.
    #[inline]
    pub(crate) fn probe_insert_hashed(&mut self, sig: Signature, h: u64) -> AccessOutcome {
        debug_assert_eq!(h, sig.mix64());
        let set = self.set_of_hash(h);
        let prefix = prefix_bit(h);
        // Resident-prefix early-out: scan only when some resident tag
        // shares the probe's prefix — the miss path (the session-mode hot
        // case: streams of fresh content against well-occupied sets) skips
        // the tag scan entirely.
        if self.set_prefix[set] & prefix != 0 {
            if let Some(way) = self.scan_set(set, sig) {
                self.stats.hits += 1;
                return AccessOutcome {
                    kind: HitKind::Hit,
                    entry: Some(EntryId { set, way }),
                };
            }
        }
        let len = self.set_len[set] as usize;
        if len < self.config.ways {
            let way = len;
            let line = set * self.config.ways + way;
            self.tag_bits[line] = sig.bits();
            self.tag_len[line] = sig.len() as u8;
            self.set_len[set] += 1;
            self.set_prefix[set] |= prefix;
            self.stats.maus += 1;
            if self.batch_inserts[set] > 0 {
                self.stats.insert_conflicts += 1;
            }
            self.batch_inserts[set] += 1;
            return AccessOutcome {
                kind: HitKind::Mau,
                entry: Some(EntryId { set, way }),
            };
        }
        self.stats.mnus += 1;
        AccessOutcome {
            kind: HitKind::Mnu,
            entry: None,
        }
    }

    /// Marks the start of a new insertion batch window (one signature
    /// generation round); per-set conflict counting restarts.
    pub fn begin_insert_batch(&mut self) {
        self.batch_inserts.fill(0);
    }

    /// Clears every tag — a channel boundary, after which signatures are
    /// recalculated from scratch.
    pub fn clear(&mut self) {
        self.set_len.fill(0);
        self.set_prefix.fill(0);
        self.batch_inserts.fill(0);
    }

    /// Number of lines currently holding a valid tag.
    pub fn occupancy(&self) -> usize {
        self.set_len.iter().map(|&l| l as usize).sum()
    }

    /// Bytes the resident tags pin: the packed tag (bits + length) of
    /// every occupied line. Occupancy-sensitive by design —
    /// [`clear`](Self::clear) (the flash-clear an eviction performs) drops
    /// the figure to zero even though the backing buffers stay allocated,
    /// because this is the *logical* working set a serving tier's memory
    /// budget meters, not the allocator's view.
    pub fn resident_bytes(&self) -> usize {
        self.occupancy() * TAG_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(bits: u128) -> Signature {
        Signature::from_bits(bits, 20)
    }

    fn small_cache(sets: usize, ways: usize) -> MCache {
        MCache::new(MCacheConfig::new(sets, ways).unwrap())
    }

    #[test]
    fn config_validation() {
        assert!(MCacheConfig::new(0, 16).is_err());
        assert!(MCacheConfig::new(64, 0).is_err());
        let c = MCacheConfig::paper_default();
        assert_eq!(c.entries(), 1024);
    }

    #[test]
    fn first_probe_is_mau_second_is_hit() {
        let mut cache = small_cache(8, 2);
        let s = sig(0xAB);
        let a = cache.probe_insert(s);
        assert_eq!(a.kind, HitKind::Mau);
        assert!(a.entry.is_some());
        let b = cache.probe_insert(s);
        assert_eq!(b.kind, HitKind::Hit);
        assert_eq!(b.entry, a.entry);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().maus, 1);
    }

    #[test]
    fn full_set_yields_mnu() {
        // 1 set, 2 ways: the third distinct signature cannot be inserted.
        let mut cache = small_cache(1, 2);
        assert_eq!(cache.probe_insert(sig(1)).kind, HitKind::Mau);
        assert_eq!(cache.probe_insert(sig(2)).kind, HitKind::Mau);
        let out = cache.probe_insert(sig(3));
        assert_eq!(out.kind, HitKind::Mnu);
        assert_eq!(out.entry, None);
        // But the resident signatures still hit.
        assert_eq!(cache.probe_insert(sig(1)).kind, HitKind::Hit);
        assert_eq!(cache.stats().mnus, 1);
    }

    #[test]
    fn no_replacement_policy() {
        let mut cache = small_cache(1, 1);
        let a = cache.probe_insert(sig(1)).entry.unwrap();
        // sig(2) cannot evict sig(1).
        assert_eq!(cache.probe_insert(sig(2)).kind, HitKind::Mnu);
        assert_eq!(cache.lookup(sig(1)), Some(a));
    }

    #[test]
    fn clear_wipes_tags() {
        let mut cache = small_cache(4, 2);
        cache.probe_insert(sig(9));
        assert_eq!(cache.occupancy(), 1);
        cache.clear();
        assert_eq!(cache.occupancy(), 0);
        assert_eq!(cache.probe_insert(sig(9)).kind, HitKind::Mau);
    }

    #[test]
    fn insert_conflicts_counted_per_batch() {
        // Signatures mapping to the same set inserted in one batch window
        // conflict; a new window resets the count.
        let mut cache = small_cache(1, 8); // single set: every insert collides
        cache.begin_insert_batch();
        cache.probe_insert(sig(1));
        cache.probe_insert(sig(2));
        cache.probe_insert(sig(3));
        assert_eq!(cache.stats().insert_conflicts, 2);
        cache.begin_insert_batch();
        cache.probe_insert(sig(4));
        assert_eq!(cache.stats().insert_conflicts, 2);
    }

    #[test]
    fn different_length_signatures_do_not_hit() {
        let mut cache = small_cache(16, 4);
        let short = Signature::from_bits(0b1010, 20);
        let long = Signature::from_bits(0b1010, 21);
        cache.probe_insert(short);
        // Same bit content, longer signature: must not be a hit.
        assert_ne!(cache.probe_insert(long).kind, HitKind::Hit);
    }

    #[test]
    fn prefix_filter_never_changes_outcomes() {
        // The resident-prefix early-out is an optimization only: outcomes
        // must equal a reference cache driven through the same stream with
        // scans always performed. The reference here is behavioural — every
        // resident signature must still hit, every repeat of a rejected
        // signature must still MNU, across clears.
        let mut cache = small_cache(4, 3);
        let mut resident = Vec::new();
        for round in 0..3 {
            for i in 0..64u128 {
                let s = sig(i * 7 + round);
                match cache.probe_insert(s).kind {
                    HitKind::Mau => resident.push(s),
                    HitKind::Hit => assert!(resident.contains(&s)),
                    HitKind::Mnu => assert!(!resident.contains(&s)),
                }
            }
            // Everything resident hits on re-probe (no false negatives).
            for &s in &resident {
                assert_eq!(cache.probe_insert(s).kind, HitKind::Hit);
                assert!(cache.lookup(s).is_some());
            }
            cache.clear();
            resident.clear();
            // After clear, the filter resets: old signatures re-insert.
            assert_eq!(cache.probe_insert(sig(1)).kind, HitKind::Mau);
            cache.clear();
        }
    }

    #[test]
    fn resident_bytes_track_occupancy_and_flash_clear() {
        let mut cache = small_cache(4, 2);
        assert_eq!(cache.resident_bytes(), 0);
        cache.probe_insert(sig(1));
        cache.probe_insert(sig(2));
        let per_line = 16 + 1; // u128 tag bits + u8 length
        assert_eq!(cache.resident_bytes(), cache.occupancy() * per_line);
        assert!(cache.resident_bytes() > 0);
        cache.clear();
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn occupancy_saturates_at_capacity() {
        let mut cache = small_cache(2, 2);
        for i in 0..100 {
            cache.probe_insert(sig(i));
        }
        assert!(cache.occupancy() <= 4);
        let s = cache.stats();
        assert_eq!(s.probes(), 100);
        assert_eq!(s.maus as usize, cache.occupancy());
    }
}
