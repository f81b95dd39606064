//! Banked MCACHE — the cache every reuse engine holds. The paper restarts
//! one MCACHE per channel on the FPGA (§III-B3) and sketches a banked
//! cache for an ASIC (§V: "for an ASIC accelerator, similar techniques
//! such as banked cache, multi-signature cache line, and PE set wise
//! smaller cache can be used"); a one-bank [`BankedMCache`] is the FPGA
//! design.
//!
//! A [`BankedMCache`] splits the entry budget across `B` independent banks
//! selected by signature bits. Each bank serializes its own insertions, so
//! inserts to different banks never conflict — trading some aliasing (a
//! signature can only live in its home bank) for insertion parallelism.
//! Callers address lines through flat [`EntryId`]s: bank `b`, set `s`
//! is flat set `b * sets_per_bank + s`, so per-entry scratch arrays never
//! need to know the bank count.
//!
//! A [`BankedMCache`] also holds the data half of its lines: the result
//! row a line's producer computed, stored with the line so a HIT in a
//! later pass can read it back (§III-B3). The caller's plan stores them
//! after its probes, in one slab that holds exactly the rows stored since
//! the last [`clear`](BankedMCache::clear) or
//! [`drop_rows`](BankedMCache::drop_rows).
//!
//! The `ablation_banked_cache` bench does not drive this type: it splits
//! a stream round-robin by PE set across private [`MCache`] banks and
//! measures the hit rate lost to those private slices against the
//! insertion conflicts they save. Signature-homed banks lose no reuse
//! that way — a repeated signature always probes the same bank.

use crate::{AccessOutcome, EntryId, MCache, MCacheConfig, MCacheStats, McacheError};
use mercury_rpq::Signature;

/// A bank-partitioned MCACHE addressed through flat entry ids.
///
/// # Examples
///
/// ```
/// use mercury_mcache::banked::BankedMCache;
/// use mercury_mcache::{HitKind, MCacheConfig};
/// use mercury_rpq::Signature;
///
/// # fn main() -> Result<(), mercury_mcache::McacheError> {
/// let mut cache = BankedMCache::new(4, MCacheConfig::new(16, 16)?)?;
/// let sig = Signature::from_bits(0x3F, 20);
/// let first = cache.probe_insert(sig);
/// assert_eq!(first.kind, HitKind::Mau);
/// let id = first.entry.unwrap();
/// assert!(id.set < 4 * 16, "flat sets span every bank");
/// let again = cache.probe_insert(sig);
/// assert_eq!(again.kind, HitKind::Hit);
/// assert_eq!(again.entry, Some(id), "a signature keeps its line");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BankedMCache {
    banks: Vec<MCache>,
    /// Sets per bank: the stride of the flat set index.
    sets_per_bank: usize,
    /// The data half: the rows stored with their lines.
    rows: RowSlab,
}

/// A stored result row, as [`BankedMCache::stored_row`] finds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredRow {
    /// The row's slot in the slab (see [`BankedMCache::slab`]).
    pub slot: u32,
    /// The owner the row was stored for: the caller's key for the scope a
    /// row may serve (a conv engine stores one row per channel).
    pub owner: u32,
}

/// The data half of a [`BankedMCache`]: one `width`-float row per slot,
/// appended as lines store them. A drop empties the slab and keeps its
/// capacity, so the memory it holds tracks the rows of one epoch.
#[derive(Debug, Clone, Default)]
struct RowSlab {
    /// Per flat line, the slot of its row, sized to the line count on the
    /// first store. A slot belongs to the line only while `line[slot]`
    /// names the line back: a drop leaves these entries stale, and the
    /// back-check turns them away.
    slot_of: Vec<u32>,
    /// Per slot, the flat line that stored it.
    line: Vec<u32>,
    /// Per slot, the owner that stored it.
    owner: Vec<u32>,
    /// The rows, `width` values per slot.
    data: Vec<f32>,
    /// The row length, set by the first store into an empty slab.
    width: usize,
}

/// Bytes one stored row pins besides its values: its line and owner words.
const ROW_HEADER_BYTES: usize = 2 * std::mem::size_of::<u32>();

impl BankedMCache {
    /// Creates `num_banks` banks, each with the given per-bank config.
    ///
    /// # Errors
    ///
    /// Returns [`McacheError::InvalidConfig`] if `num_banks` is zero.
    pub fn new(num_banks: usize, per_bank: MCacheConfig) -> Result<Self, McacheError> {
        if num_banks == 0 {
            return Err(McacheError::InvalidConfig(
                "need at least one bank".to_string(),
            ));
        }
        Ok(BankedMCache {
            banks: (0..num_banks).map(|_| MCache::new(per_bank)).collect(),
            sets_per_bank: per_bank.sets,
            rows: RowSlab::default(),
        })
    }

    /// The per-bank geometry (all banks share one configuration).
    pub fn bank_config(&self) -> MCacheConfig {
        self.banks[0].config()
    }

    /// Total entries across banks.
    pub fn entries(&self) -> usize {
        self.banks.iter().map(|b| b.config().entries()).sum()
    }

    /// The home bank of a signature's `mix64` hash. High bits pick the
    /// bank; low bits pick the set inside the bank, keeping the two
    /// choices decorrelated.
    #[inline]
    fn bank_of_hash(&self, h: u64) -> usize {
        let banks = self.banks.len() as u64;
        // Same value either way; the mask avoids a hardware divide on the
        // power-of-two bank counts the engines use.
        if banks.is_power_of_two() {
            ((h >> 48) & (banks - 1)) as usize
        } else {
            ((h >> 48) % banks) as usize
        }
    }

    /// Probes a signature in its home bank, inserting it on a miss when the
    /// set has a free way (see [`MCache::probe_insert`]). The entry comes
    /// back as a flat id.
    #[inline]
    pub fn probe_insert(&mut self, sig: Signature) -> AccessOutcome {
        // One mix per probe: the same hash routes the bank and probes the
        // set inside it.
        let h = sig.mix64();
        let bank = self.bank_of_hash(h);
        let out = self.banks[bank].probe_insert_hashed(sig, h);
        AccessOutcome {
            kind: out.kind,
            entry: out.entry.map(|id| EntryId {
                set: bank * self.sets_per_bank + id.set,
                way: id.way,
            }),
        }
    }

    /// Clears every bank and drops every stored row (channel or epoch
    /// boundary).
    pub fn clear(&mut self) {
        for bank in &mut self.banks {
            bank.clear();
        }
        self.drop_rows();
    }

    /// Starts a new insertion batch window in every bank.
    pub fn begin_insert_batch(&mut self) {
        for bank in &mut self.banks {
            bank.begin_insert_batch();
        }
    }

    /// The flat line index of an entry: `set × ways + way`.
    fn line(&self, id: EntryId) -> usize {
        id.set * self.bank_config().ways + id.way
    }

    /// The row stored with line `id` since the rows were last dropped, if
    /// any. A line holds at most one row.
    pub fn stored_row(&self, id: EntryId) -> Option<StoredRow> {
        let rows = &self.rows;
        let line = self.line(id);
        let slot = *rows.slot_of.get(line)?;
        (rows.line.get(slot as usize) == Some(&(line as u32))).then(|| StoredRow {
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
        let line = self.line(id);
        let entries = self.entries();
        let rows = &mut self.rows;
        if rows.line.is_empty() {
            rows.width = row.len();
        }
        assert_eq!(row.len(), rows.width, "stored rows share one length");
        if rows.slot_of.len() < entries {
            rows.slot_of.resize(entries, u32::MAX);
        }
        rows.slot_of[line] = rows.line.len() as u32;
        rows.line.push(line as u32);
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

    /// Bytes of cache state resident across every bank: the tags (see
    /// [`MCache::resident_bytes`]) plus each stored row's values and its
    /// line and owner words — the working set a serving tier's memory
    /// budget meters. [`clear`](Self::clear) drops it to zero.
    pub fn resident_bytes(&self) -> usize {
        let tags: usize = self.banks.iter().map(MCache::resident_bytes).sum();
        let rows = &self.rows;
        tags + rows.line.len() * ROW_HEADER_BYTES + std::mem::size_of_val(rows.data.as_slice())
    }

    /// Sums statistics over all banks.
    pub fn stats(&self) -> MCacheStats {
        let mut total = MCacheStats::default();
        for bank in &self.banks {
            let s = bank.stats();
            total.hits += s.hits;
            total.maus += s.maus;
            total.mnus += s.mnus;
            total.insert_conflicts += s.insert_conflicts;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HitKind;

    fn sig(b: u128) -> Signature {
        Signature::from_bits(b, 20)
    }

    fn cache(banks: usize) -> BankedMCache {
        BankedMCache::new(banks, MCacheConfig::new(4, 2).unwrap()).unwrap()
    }

    /// The bank a probe outcome landed in (4 sets per bank in [`cache`]).
    fn bank_of(out: AccessOutcome) -> usize {
        out.entry.expect("probe resolved to a line").set / 4
    }

    #[test]
    fn probe_hit_roundtrip() {
        let mut c = cache(4);
        let first = c.probe_insert(sig(0x123));
        assert_eq!(first.kind, HitKind::Mau);
        let id = first.entry.unwrap();
        let second = c.probe_insert(sig(0x123));
        assert_eq!(second.kind, HitKind::Hit);
        assert_eq!(second.entry, Some(id));
    }

    #[test]
    fn signatures_spread_across_banks() {
        let mut c = BankedMCache::new(8, MCacheConfig::new(4, 64).unwrap()).unwrap();
        let mut banks_used = std::collections::HashSet::new();
        for i in 0..200 {
            banks_used.insert(bank_of(c.probe_insert(sig(i))));
        }
        assert!(
            banks_used.len() >= 6,
            "only {} banks used",
            banks_used.len()
        );
    }

    #[test]
    fn same_signature_same_bank() {
        let mut c = cache(8);
        let a = bank_of(c.probe_insert(sig(77)));
        let b = bank_of(c.probe_insert(sig(77)));
        assert_eq!(a, b);
    }

    #[test]
    fn zero_banks_rejected() {
        assert!(BankedMCache::new(0, MCacheConfig::new(4, 2).unwrap()).is_err());
    }

    #[test]
    fn stats_aggregate_over_banks() {
        let mut c = cache(4);
        for i in 0..50 {
            c.probe_insert(sig(i));
        }
        let s = c.stats();
        assert_eq!(s.probes(), 50);
        assert!(s.maus <= 4 * 8); // bounded by total capacity
    }

    #[test]
    fn clear_and_invalidate() {
        let mut c = cache(2);
        c.probe_insert(sig(5));
        assert_eq!(c.probe_insert(sig(5)).kind, HitKind::Hit);
        c.clear();
        assert_eq!(c.probe_insert(sig(5)).kind, HitKind::Mau);
    }

    #[test]
    fn resident_bytes_sum_banks_and_drop_on_clear() {
        let mut c = cache(4);
        assert_eq!(c.resident_bytes(), 0);
        for i in 0..20 {
            c.probe_insert(sig(i));
        }
        let per_line = 16 + 1; // u128 tag bits + u8 length
        assert_eq!(
            c.resident_bytes(),
            c.stats().maus as usize * per_line,
            "every MAU pins exactly one line"
        );
        c.clear();
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn stored_rows_follow_their_lines_and_are_metered() {
        let mut c = cache(4);
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
        let mut c = cache(1);
        let id = c.probe_insert(sig(1)).entry.unwrap();
        c.store_row(id, 0, &[1.0]);
        c.store_row(id, 0, &[2.0]);
    }

    #[test]
    fn one_bank_matches_the_monolithic_cache() {
        // The FPGA design is a one-bank cache: every outcome, flat id and
        // counter equals a plain `MCache` of the same geometry.
        let cfg = MCacheConfig::new(4, 2).unwrap();
        let mut banked = BankedMCache::new(1, cfg).unwrap();
        let mut mono = MCache::new(cfg);
        banked.begin_insert_batch();
        mono.begin_insert_batch();
        for i in 0..64 {
            let (b, m) = (
                banked.probe_insert(sig(i % 23)),
                mono.probe_insert(sig(i % 23)),
            );
            assert_eq!(b, m);
        }
        assert_eq!(banked.stats(), mono.stats());
        assert_eq!(banked.resident_bytes(), mono.resident_bytes());
    }

    #[test]
    fn banked_conflicts_fewer_than_monolithic() {
        // The motivating property: spreading inserts over banks reduces
        // same-window insertion conflicts versus one monolithic cache with
        // the same total capacity.
        let mut banked = BankedMCache::new(8, MCacheConfig::new(1, 16).unwrap()).unwrap();
        let mut mono = MCache::new(MCacheConfig::new(1, 128).unwrap());
        banked.begin_insert_batch();
        mono.begin_insert_batch();
        for i in 0..64 {
            banked.probe_insert(sig(i));
            mono.probe_insert(sig(i));
        }
        assert!(banked.stats().insert_conflicts < mono.stats().insert_conflicts);
    }
}
