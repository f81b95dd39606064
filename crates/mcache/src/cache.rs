use crate::{HitKind, McacheError};
use mercury_rpq::Signature;

/// Identifies one cache line by its index, `set × ways + way`: signatures
/// resolve to an `EntryId` once, and later accesses go through the id
/// without re-comparing tags (paper §V: "the entry id is saved along with
/// the signature in the signature table"). Per-line arrays index by it
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryId {
    /// The line index, `set × ways + way`.
    pub line: usize,
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
/// design rationale): signature tags beside the result rows they index.
///
/// The tag half classifies every probe and hands out the line ids that
/// group same-signature vectors. Its storage is structure-of-arrays — one
/// flat buffer per field across all `sets × ways` lines — so set scans
/// touch contiguous memory. The data half holds the result row a line's
/// producer computed ([`store_row`](Self::store_row)), so a HIT in a later
/// pass can read it back (§III-B3): one slab of exactly the rows stored
/// since the last [`clear`](Self::clear) or [`drop_rows`](Self::drop_rows).
///
/// [`new`](Self::new) builds the FPGA design, one bank of sets;
/// [`banked`](Self::banked) splits the sets across signature-homed banks,
/// the ASIC option of §V. The crate docs and `banked` have examples.
#[derive(Debug, Clone)]
pub struct MCache {
    config: MCacheConfig,
    /// Number of banks the sets split into.
    banks: usize,
    /// Sets per bank: the stride of a bank's sets in the set index.
    bank_sets: usize,
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
    /// The data half: the rows stored with their lines.
    rows: RowSlab,
}

/// A stored result row, as [`MCache::stored_row`] finds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredRow {
    /// The row's slot in the slab (see [`MCache::slab`]).
    pub slot: u32,
    /// The owner the row was stored for: the caller's key for the scope a
    /// row may serve (a conv engine stores one row per channel).
    pub owner: u32,
}

/// The data half of an [`MCache`]: one `width`-float row per slot,
/// appended as lines store them. A drop empties the slab and keeps its
/// capacity, so the memory it holds tracks the rows of one epoch.
#[derive(Debug, Clone, Default)]
struct RowSlab {
    /// Per line, the slot of its row, sized to the line count on the first
    /// store. A slot belongs to the line only while `line[slot]` names the
    /// line back: a drop leaves these entries stale, and the back-check
    /// turns them away.
    slot_of: Vec<u32>,
    /// Per slot, the line that stored it.
    line: Vec<u32>,
    /// Per slot, the owner that stored it.
    owner: Vec<u32>,
    /// The rows, `width` values per slot.
    data: Vec<f32>,
    /// The row length, set by the first store into an empty slab.
    width: usize,
}

/// Bytes of one resident tag: its bit pattern and its length.
const TAG_BYTES: usize = std::mem::size_of::<u128>() + std::mem::size_of::<u8>();

/// Bytes one stored row pins besides its values: its line and owner words.
const ROW_HEADER_BYTES: usize = 2 * std::mem::size_of::<u32>();

/// The resident-prefix filter bit for a signature: 6 bits of the mixed
/// hash, taken from above the set-index bits (sets are at most 2^32 in any
/// sane geometry; shipped ones use 6–8 bits) and below the bank bits, so
/// the three stay decorrelated.
#[inline]
fn prefix_bit(h: u64) -> u64 {
    1u64 << ((h >> 32) & 63)
}

/// `x mod n`. Same value either way; the mask avoids a hardware divide on
/// the power-of-two geometries every shipped configuration uses.
#[inline]
fn reduce(x: u64, n: usize) -> usize {
    let n = n as u64;
    if n.is_power_of_two() {
        (x & (n - 1)) as usize
    } else {
        (x % n) as usize
    }
}

impl MCache {
    /// Creates an empty one-bank cache: the FPGA design.
    pub fn new(config: MCacheConfig) -> Self {
        Self::banked(config, 1).expect("one bank divides every set count")
    }

    /// Creates an empty cache whose sets split evenly across `banks`
    /// signature-homed banks (§V). A signature's bank is `(mix64 >> 48) mod
    /// banks` and its set inside the bank `mix64 mod (sets / banks)`, so
    /// high and low hash bits make the two choices independently. Inserts
    /// to different banks never conflict; the price is aliasing, as a
    /// signature can only live in its home bank. One bank is
    /// [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// Returns [`McacheError::InvalidConfig`] for zero banks or a bank
    /// count that does not divide the sets.
    ///
    /// # Examples
    ///
    /// ```
    /// use mercury_mcache::{HitKind, MCache, MCacheConfig};
    /// use mercury_rpq::Signature;
    ///
    /// let config = MCacheConfig::paper_default(); // 64 sets × 16 ways
    /// let mut cache = MCache::banked(config, 4).unwrap();
    /// let sig = Signature::from_bits(0x3F, 20);
    /// let first = cache.probe_insert(sig);
    /// assert_eq!(first.kind, HitKind::Mau);
    /// let again = cache.probe_insert(sig);
    /// assert_eq!((again.kind, again.entry), (HitKind::Hit, first.entry));
    /// assert!(MCache::banked(config, 3).is_err(), "3 banks do not divide 64 sets");
    /// ```
    pub fn banked(config: MCacheConfig, banks: usize) -> Result<Self, McacheError> {
        if banks == 0 || config.sets % banks != 0 {
            return Err(McacheError::InvalidConfig(format!(
                "{banks} banks do not divide {} sets",
                config.sets
            )));
        }
        Ok(MCache {
            config,
            banks,
            bank_sets: config.sets / banks,
            tag_bits: vec![0; config.entries()],
            tag_len: vec![0; config.entries()],
            set_len: vec![0; config.sets],
            stats: MCacheStats::default(),
            batch_inserts: vec![0; config.sets],
            set_prefix: vec![0; config.sets],
            rows: RowSlab::default(),
        })
    }

    /// The cache's configuration.
    pub fn config(&self) -> MCacheConfig {
        self.config
    }

    /// Lifetime access counters.
    pub fn stats(&self) -> MCacheStats {
        self.stats
    }

    /// The set a signature's `mix64` hash routes to: set
    /// `bank · sets/banks + local` (see [`banked`](Self::banked)).
    #[inline]
    fn set_of_hash(&self, h: u64) -> usize {
        reduce(h >> 48, self.banks) * self.bank_sets + reduce(h, self.bank_sets)
    }

    /// Scans the occupied prefix of a set for a tag match and returns its
    /// line. The scan compares the packed bit patterns first and the
    /// lengths — which differ for equal bits essentially never — only on a
    /// bit match.
    fn scan_set(&self, set: usize, sig: Signature) -> Option<EntryId> {
        let base = set * self.config.ways;
        let len = self.set_len[set] as usize;
        let (bits, slen) = (sig.bits(), sig.len() as u8);
        (base..base + len)
            .find(|&line| self.tag_bits[line] == bits && self.tag_len[line] == slen)
            .map(|line| EntryId { line })
    }

    /// Looks a signature up without modifying the cache.
    pub fn lookup(&self, sig: Signature) -> Option<EntryId> {
        let h = sig.mix64();
        let set = self.set_of_hash(h);
        if self.set_prefix[set] & prefix_bit(h) == 0 {
            return None; // no resident tag shares the prefix
        }
        self.scan_set(set, sig)
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
    #[inline]
    pub fn probe_insert(&mut self, sig: Signature) -> AccessOutcome {
        // One mix per probe: the same hash routes the set and feeds the
        // prefix filter.
        let h = sig.mix64();
        let set = self.set_of_hash(h);
        let prefix = prefix_bit(h);
        // Resident-prefix early-out: scan only when some resident tag
        // shares the probe's prefix — the miss path (the session-mode hot
        // case: streams of fresh content against well-occupied sets) skips
        // the tag scan entirely.
        if self.set_prefix[set] & prefix != 0 {
            if let Some(id) = self.scan_set(set, sig) {
                self.stats.hits += 1;
                return AccessOutcome {
                    kind: HitKind::Hit,
                    entry: Some(id),
                };
            }
        }
        let len = self.set_len[set] as usize;
        if len < self.config.ways {
            let line = set * self.config.ways + len;
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
                entry: Some(EntryId { line }),
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

    /// Clears every tag and drops every stored row — a channel or epoch
    /// boundary, after which signatures are recalculated from scratch.
    pub fn clear(&mut self) {
        self.set_len.fill(0);
        self.set_prefix.fill(0);
        self.batch_inserts.fill(0);
        self.drop_rows();
    }

    /// Number of lines currently holding a valid tag.
    pub fn occupancy(&self) -> usize {
        self.set_len.iter().map(|&l| l as usize).sum()
    }

    /// The row stored with line `id` since the rows were last dropped, if
    /// any. A line holds at most one row.
    pub fn stored_row(&self, id: EntryId) -> Option<StoredRow> {
        let rows = &self.rows;
        let slot = *rows.slot_of.get(id.line)?;
        (rows.line.get(slot as usize) == Some(&(id.line as u32))).then(|| StoredRow {
            slot,
            owner: rows.owner[slot as usize],
        })
    }

    /// Stores `row` with line `id` for `owner`, replacing nothing: the line
    /// must hold no row. The first row after a drop sets the row length
    /// every later row must match.
    ///
    /// # Panics
    ///
    /// If the line already holds a row, or `row` has another length than
    /// the rows already stored.
    pub fn store_row(&mut self, id: EntryId, owner: u32, row: &[f32]) {
        assert!(
            self.stored_row(id).is_none(),
            "line {id:?} already holds a row"
        );
        let entries = self.config.entries();
        let rows = &mut self.rows;
        if rows.line.is_empty() {
            rows.width = row.len();
        }
        assert_eq!(row.len(), rows.width, "stored rows share one length");
        if rows.slot_of.len() < entries {
            rows.slot_of.resize(entries, u32::MAX);
        }
        rows.slot_of[id.line] = rows.line.len() as u32;
        rows.line.push(id.line as u32);
        rows.owner.push(owner);
        rows.data.extend_from_slice(row);
    }

    /// Every stored row, `width` values per slot in slot order (see
    /// [`StoredRow::slot`]); `width` is the length the stored rows share.
    pub fn slab(&self) -> &[f32] {
        &self.rows.data
    }

    /// Drops every stored row and keeps the tags: until a line stores a
    /// row again, a HIT on it finds none. The slab keeps its capacity.
    pub fn drop_rows(&mut self) {
        let rows = &mut self.rows;
        rows.line.clear();
        rows.owner.clear();
        rows.data.clear();
    }

    /// Bytes of cache state resident: the packed tag (bits + length) of
    /// every occupied line, plus each stored row's values and its line and
    /// owner words — the logical working set a serving tier's memory
    /// budget meters, not the allocator's view. [`clear`](Self::clear)
    /// (the flash-clear an eviction performs) drops the figure to zero
    /// even though the backing buffers stay allocated.
    pub fn resident_bytes(&self) -> usize {
        let rows = &self.rows;
        self.occupancy() * TAG_BYTES
            + rows.line.len() * ROW_HEADER_BYTES
            + std::mem::size_of_val(rows.data.as_slice())
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

    /// A cache of `banks` banks of 4 sets × 2 ways each.
    fn banked(banks: usize) -> MCache {
        MCache::banked(MCacheConfig::new(4 * banks, 2).unwrap(), banks).unwrap()
    }

    #[test]
    fn bank_split_rejects_zero_and_uneven_counts() {
        let config = MCacheConfig::new(8, 2).unwrap();
        for banks in [0, 3, 16] {
            assert!(MCache::banked(config, banks).is_err(), "{banks} banks");
        }
        for banks in [1, 2, 4, 8] {
            assert!(MCache::banked(config, banks).is_ok(), "{banks} banks");
        }
    }

    #[test]
    fn signatures_spread_across_banks() {
        // 8 banks of 4 sets × 64 ways: a bank spans 4 · 64 lines.
        let mut c = MCache::banked(MCacheConfig::new(32, 64).unwrap(), 8).unwrap();
        let banks_used: std::collections::HashSet<usize> = (0..200)
            .map(|i| c.probe_insert(sig(i)).entry.unwrap().line / (4 * 64))
            .collect();
        assert!(
            banks_used.len() >= 6,
            "only {} banks used",
            banks_used.len()
        );
    }

    #[test]
    fn banked_conflicts_fewer_than_monolithic() {
        // The motivating property: spreading inserts over banks reduces
        // same-window insertion conflicts versus one monolithic cache with
        // the same total capacity.
        let mut banked = MCache::banked(MCacheConfig::new(8, 16).unwrap(), 8).unwrap();
        let mut mono = MCache::new(MCacheConfig::new(1, 128).unwrap());
        banked.begin_insert_batch();
        mono.begin_insert_batch();
        for i in 0..64 {
            banked.probe_insert(sig(i));
            mono.probe_insert(sig(i));
        }
        assert!(banked.stats().insert_conflicts < mono.stats().insert_conflicts);
    }

    #[test]
    fn stored_rows_follow_their_lines_and_are_metered() {
        let mut c = banked(4);
        let a = c.probe_insert(sig(1)).entry.unwrap();
        let b = c.probe_insert(sig(2)).entry.unwrap();
        assert_eq!(c.stored_row(a), None, "an inserted tag holds no row yet");
        c.store_row(a, 7, &[1.0, 2.0]);
        c.store_row(b, 3, &[3.0, 4.0]);
        let row = c.stored_row(a).unwrap();
        assert_eq!(row.owner, 7);
        assert_eq!(&c.slab()[row.slot as usize * 2..][..2], [1.0, 2.0]);
        assert_eq!(c.stored_row(b).unwrap().owner, 3);
        let tags = c.stats().maus as usize * (16 + 1);
        assert_eq!(c.resident_bytes(), tags + 2 * (2 * 4 + 2 * 4));

        // Dropping the rows keeps the tags; a stale slot never comes back,
        // even once another line has stored into it.
        c.drop_rows();
        assert_eq!(c.resident_bytes(), tags);
        assert_eq!(c.probe_insert(sig(1)).kind, HitKind::Hit);
        c.store_row(b, 3, &[5.0, 6.0]);
        assert_eq!(c.stored_row(a), None);
        assert_eq!(c.slab(), [5.0, 6.0]);

        c.clear();
        assert_eq!((c.slab().len(), c.resident_bytes()), (0, 0));
        assert_eq!(c.stored_row(b), None);
    }

    #[test]
    #[should_panic(expected = "already holds a row")]
    fn a_line_stores_one_row() {
        let mut c = banked(1);
        let id = c.probe_insert(sig(1)).entry.unwrap();
        c.store_row(id, 0, &[1.0]);
        c.store_row(id, 0, &[2.0]);
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
