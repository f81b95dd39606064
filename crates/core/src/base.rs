//! Shared engine plumbing: the state every reuse engine carries (config,
//! cache, RNG, projection matrices, signature length, detection flag), its
//! one constructor, and the one reuse pass every engine runs.
//!
//! Every engine holds one [`BankedMCache`]. A batch engine holds a
//! one-bank cache, restarts it per reuse scope and leaves it empty when a
//! forward ends — the FPGA MCACHE of §III-B3. A persistent engine, the kind
//! [`MercurySession`](crate::MercurySession) streams through, splits the
//! cache across banks (§V) and keeps it across scopes until an epoch
//! boundary evicts it. Both run the same hot path; only the bank count and
//! the clear-per-scope flag differ. Conv (per channel), FC and attention
//! (per call) all decide reuse in [`ReusePlan::pass`]: probe, plan,
//! compute rows on the packed-panel row kernel, fan out producer rows.

use crate::config::ConfigError;
use crate::stats::LayerStats;
use crate::MercuryConfig;
#[cfg(feature = "fault-inject")]
use mercury_faults::{FaultAction, FaultSite};
use mercury_mcache::banked::BankedMCache;
use mercury_mcache::{AccessOutcome, EntryId, HitKind, MCacheConfig, OutcomeMix};
use mercury_rpq::analysis::unique_signature_count;
use mercury_rpq::{ProjectionMatrix, Signature};
use mercury_tensor::kernel::sign::{self, LANES};
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;
use std::collections::HashMap;

/// Expands to the six [`ReuseEngine`](crate::ReuseEngine) lifecycle
/// methods, delegating to the engine's `base: EngineBase` field. Every
/// engine family uses this inside its trait impl so the lifecycle
/// behaviour (including the grow-time persistent-cache flush) can never
/// diverge between families; only `forward`/`forward_reusing` are written
/// per engine.
macro_rules! reuse_engine_lifecycle {
    () => {
        fn signature_bits(&self) -> usize {
            self.base.signature_bits
        }

        fn grow_signature(&mut self) -> usize {
            self.base.grow_signature()
        }

        fn set_detection(&mut self, enabled: bool) {
            self.base.detection_enabled = enabled;
        }

        fn detection_enabled(&self) -> bool {
            self.base.detection_enabled
        }

        fn end_epoch(&mut self) {
            self.base.end_epoch();
        }

        fn cache_bytes(&self) -> usize {
            self.base.cache.resident_bytes()
        }
    };
}
pub(crate) use reuse_engine_lifecycle;

/// The dispatch work hint for one dense product of `rows` vectors of
/// length `len` against `cols` outputs: `2 · rows · len · cols` scalar
/// FLOPs, with saturating multiplies — hint arithmetic on overflow-shaped
/// layer dimensions must clamp to `usize::MAX` (erring toward dispatch),
/// never wrap into a small number or panic under `overflow-checks`.
pub(crate) fn dense_work(rows: usize, len: usize, cols: usize) -> usize {
    2usize
        .saturating_mul(rows)
        .saturating_mul(len)
        .saturating_mul(cols)
}

/// The dispatch work hint for one conv channel under the reuse engine:
/// the dense `[patches_n, plen] × [plen, f]` product plus one cache probe per
/// patch, where `probe_work_units` is the executor's per-probe cost
/// ([`DispatchTuning::probe_work_units`]). Saturating throughout, like
/// [`dense_work`].
///
/// [`DispatchTuning::probe_work_units`]: mercury_tensor::tune::DispatchTuning::probe_work_units
pub(crate) fn conv_channel_work(
    f: usize,
    plen: usize,
    patches_n: usize,
    probe_work_units: usize,
) -> usize {
    dense_work(f, plen, patches_n).saturating_add(probe_work_units.saturating_mul(patches_n))
}

/// Probes a signature stream against an engine cache in stream order,
/// writing one outcome per signature into `out` (cleared first). With the
/// `fault-inject` feature, the `BankProbe` fault events are drawn first
/// (see `bank_probe_faults`).
fn probe_batch(cache: &mut BankedMCache, sigs: &[Signature], out: &mut Vec<AccessOutcome>) {
    #[cfg(feature = "fault-inject")]
    let faulted = bank_probe_faults(sigs);
    #[cfg(feature = "fault-inject")]
    let sigs: &[Signature] = faulted.as_deref().unwrap_or(sigs);
    out.clear();
    out.extend(sigs.iter().map(|&sig| cache.probe_insert(sig)));
}

/// Draws one [`BankProbe`] fault event per signature, in stream order
/// before the first probe, so which probe faults is independent of the
/// executor and the bank layout.
/// `Panic` fires immediately; `CorruptTag` flips the faulted signature's
/// low tag bit (modelling a corrupted tag store — the probe itself stays
/// well-formed but matches the wrong line); `NanPayload` has no meaning
/// at the probe level and is ignored. Returns the possibly-corrupted
/// copy of the stream, or `None` when no harness is open (the common
/// case — one relaxed atomic load).
///
/// [`BankProbe`]: mercury_faults::FaultSite::BankProbe
#[cfg(feature = "fault-inject")]
fn bank_probe_faults(sigs: &[Signature]) -> Option<Vec<Signature>> {
    if !mercury_faults::active() {
        return None;
    }
    let mut copy = sigs.to_vec();
    for sig in &mut copy {
        match mercury_faults::poll(FaultSite::BankProbe) {
            Some(FaultAction::Panic) => mercury_faults::injected_panic(FaultSite::BankProbe),
            Some(FaultAction::CorruptTag) => {
                *sig = Signature::from_bits(sig.bits() ^ 1, sig.len());
            }
            Some(FaultAction::NanPayload) | None => {}
        }
    }
    Some(copy)
}

/// Marks a cache entry with no producer in the current pass.
const NO_ROW: u32 = u32::MAX;

/// Marks a source that is a row stored in the cache: the low bits are its
/// slab slot ([`StoredRow::slot`](mercury_mcache::banked::StoredRow::slot)).
const STORED: u32 = 1 << 31;

/// The reuse plan of one probe stream: which vectors compute, and whose
/// result every vector takes (§III-C1). The conv, FC and attention engines
/// all run it through [`pass`](Self::pass).
///
/// A MAU or MNU vector computes. A HIT takes the result of the vector that
/// computed for its cache entry earlier in the pass. A HIT on a tag that
/// persisted from an earlier pass has no such producer: it takes the row
/// its line stored, when the pass keeps rows and the row's owner is the
/// pass's. Otherwise it is recomputed: it computes, the cycle model
/// charges it as an MAU, and the rest of the pass takes its result.
#[derive(Debug, Default)]
pub(crate) struct ReusePlan {
    /// `source[v]`: the compute row whose result vector `v` takes, as an
    /// index into [`compute`](Self::compute), or [`STORED`] with the slab
    /// slot of a stored row.
    source: Vec<u32>,
    /// The vectors that compute, in stream order.
    compute: Vec<usize>,
    /// The raw probe outcomes, one per vector.
    outcomes: Vec<AccessOutcome>,
    /// The signatures of the MNU vectors.
    mnu_sigs: Vec<Signature>,
    /// Per flat cache entry, this pass's source for its HITs: the compute
    /// row of its producer or its stored row ([`NO_ROW`] for none). A pass
    /// resets only the entries it touched, so a short stream never pays
    /// for a fill of the whole cache.
    entry_row: Vec<u32>,
    /// The flat entries whose stored row this pass served.
    served: Vec<usize>,
    /// The compute rows to store after the product, with their lines.
    stores: Vec<(u32, EntryId)>,
}

/// The dense product of one reuse pass: every `len`-element row of
/// `vectors` dotted with the `width` columns packed in `panels` (see
/// [`pack_panels`](sign::pack_panels)). The compute rows are copied into
/// `rows` and their dots land in `dots`, caller-owned buffers reused
/// across calls. Every vector's `width` results then land in its row of
/// `dest`: stored, or with `accumulate` added (conv's per-channel
/// accumulation).
pub(crate) struct Product<'a> {
    pub vectors: &'a [f32],
    pub len: usize,
    pub width: usize,
    pub panels: &'a [f32],
    pub rows: &'a mut Vec<f32>,
    pub dots: &'a mut Vec<f32>,
    pub dest: &'a mut [f32],
    pub accumulate: bool,
}

/// What one reuse pass reports.
pub(crate) struct PassOut {
    /// The outcome counts the cycle model is charged with: the probe
    /// outcomes, except that a recomputed HIT computed as an MAU.
    pub charged: OutcomeMix,
    /// The raw probe outcomes, the recomputed HITs and the
    /// distinct-signature count. A signature owns at most one cache entry
    /// and an MNU signature is never resident, so the distinct signatures
    /// are the entries the pass computed for or served from, plus the
    /// distinct MNU signatures.
    pub counts: LayerStats,
    /// The insertion conflicts the probes met.
    pub conflicts: u64,
}

impl ReusePlan {
    /// The one reuse pass: opens the reuse scope (`clear` restarts a batch
    /// engine's cache; every scope starts a fresh insertion-conflict
    /// window), probes `sigs` against `cache` through [`probe_batch`] and
    /// plans the pass in one walk over the outcomes, then computes and
    /// fans out `product` ([`compute`](Self::compute)).
    ///
    /// With `owner`, the pass keeps rows in the cache's data half: a HIT
    /// with no producer this pass takes its line's stored row when `owner`
    /// stored it, and a vector that computes for a line holding no row
    /// stores its row for `owner` (a persistent engine's layer, or its
    /// conv channel). Without, nothing is read or stored.
    pub fn pass(
        &mut self,
        cache: &mut BankedMCache,
        clear: bool,
        sigs: &[Signature],
        mut product: Product<'_>,
        owner: Option<u32>,
    ) -> PassOut {
        if clear {
            cache.clear();
        }
        cache.begin_insert_batch();
        let conflicts_before = cache.stats().insert_conflicts;
        probe_batch(cache, sigs, &mut self.outcomes);
        let conflicts = cache.stats().insert_conflicts - conflicts_before;

        let ways = cache.bank_config().ways;
        if self.entry_row.len() < cache.entries() {
            self.entry_row.resize(cache.entries(), NO_ROW);
        }
        self.source.clear();
        self.compute.clear();
        self.mnu_sigs.clear();
        self.served.clear();
        self.stores.clear();
        let mut recomputed = 0;
        for (v, outcome) in self.outcomes.iter().enumerate() {
            let row = self.compute.len() as u32;
            let source = match outcome.entry {
                // An MNU names no line: the vector computes for itself.
                None => {
                    self.mnu_sigs.push(sigs[v]);
                    self.compute.push(v);
                    row
                }
                Some(id) => {
                    let hit = outcome.kind == HitKind::Hit;
                    let entry = id.set * ways + id.way;
                    let producer = &mut self.entry_row[entry];
                    if hit && *producer != NO_ROW {
                        *producer
                    } else {
                        // The line's first vector this pass.
                        let stored = owner.and_then(|_| cache.stored_row(id));
                        match stored {
                            Some(kept) if hit && Some(kept.owner) == owner => {
                                *producer = STORED | kept.slot;
                                self.served.push(entry);
                            }
                            _ => {
                                recomputed += usize::from(hit);
                                if owner.is_some() && stored.is_none() {
                                    self.stores.push((row, id));
                                }
                                *producer = row;
                                self.compute.push(v);
                            }
                        }
                        *producer
                    }
                }
            };
            self.source.push(source);
        }
        for &v in &self.compute {
            if let Some(id) = self.outcomes[v].entry {
                self.entry_row[id.set * ways + id.way] = NO_ROW;
            }
        }
        for &entry in &self.served {
            self.entry_row[entry] = NO_ROW;
        }

        let ld = self.compute(&mut product, cache.slab());
        if let Some(owner) = owner {
            for &(r, id) in &self.stores {
                let row = &product.dots[r as usize * ld..][..product.width];
                cache.store_row(id, owner, row);
            }
        }

        let (vectors, computed) = (self.source.len(), self.compute.len());
        let mnus = self.mnu_sigs.len();
        let maus = computed - mnus - recomputed;
        let distinct_mnus = if mnus > 0 {
            unique_signature_count(&self.mnu_sigs)
        } else {
            0
        };
        PassOut {
            charged: OutcomeMix {
                hits: vectors - computed,
                maus: computed - mnus,
                mnus,
            },
            counts: LayerStats {
                hits: (vectors - maus - mnus) as u64,
                maus: maus as u64,
                mnus: mnus as u64,
                recomputed: recomputed as u64,
                unique_vectors: (computed - mnus + self.served.len() + distinct_mnus) as u64,
                ..LayerStats::default()
            },
            conflicts,
        }
    }

    /// Computes and fans out `product` under this plan on the calling
    /// thread: copies the compute rows contiguously, dots them with every
    /// packed column in one [`dot_rows`](sign::dot_rows) call into
    /// `ld`-strided rows of `product.dots`, then writes every vector's
    /// source row — a compute row, or a `width`-float row of the cache's
    /// `slab` — into its row of the destination. Each destination element
    /// sees one store or add per pass, whatever the plan. Returns `ld`,
    /// `width` rounded up to whole lanes. Attention runs it a second time,
    /// with the plan of its first product and no slab.
    ///
    /// With `fault-inject`, a product with compute rows draws one
    /// [`GemmChunk`] event: `Panic` fires before the dots and `NanPayload`
    /// plants a NaN in compute row 0, column 0.
    ///
    /// [`GemmChunk`]: mercury_faults::FaultSite::GemmChunk
    pub fn compute(&self, p: &mut Product<'_>, slab: &[f32]) -> usize {
        let (len, width) = (p.len, p.width);
        p.rows.clear();
        for &v in &self.compute {
            p.rows.extend_from_slice(&p.vectors[v * len..(v + 1) * len]);
        }
        let ld = width.div_ceil(LANES) * LANES;
        // `dot_rows` overwrites every value: only a grown tail needs a fill.
        p.dots.resize(self.compute.len() * ld, 0.0);
        if !self.compute.is_empty() && width > 0 {
            #[cfg(feature = "fault-inject")]
            let faults = draw_faults(FaultSite::GemmChunk, 1);
            #[cfg(feature = "fault-inject")]
            fault_pre(FaultSite::GemmChunk, &faults, 0);
            sign::dot_rows(p.rows, len, ld / LANES, p.panels, p.dots);
            #[cfg(feature = "fault-inject")]
            fault_post(&faults, 0, p.dots);
        }
        for (drow, &s) in p.dest.chunks_exact_mut(width).zip(&self.source) {
            let crow = if s & STORED == 0 {
                &p.dots[s as usize * ld..][..width]
            } else {
                &slab[(s & !STORED) as usize * width..][..width]
            };
            if p.accumulate {
                for (d, &x) in drow.iter_mut().zip(crow) {
                    *d += x;
                }
            } else {
                drow.copy_from_slice(crow);
            }
        }
        ld
    }
}

/// Draws one `site` fault event per item, in item order before any item
/// runs — the conv channels' on the dispatching thread before they fan
/// out — so which item faults never depends on pool scheduling (an empty
/// vec when no harness is open, so the hot path pays one relaxed atomic
/// load).
#[cfg(feature = "fault-inject")]
pub(crate) fn draw_faults(site: FaultSite, items: usize) -> Vec<Option<FaultAction>> {
    if !mercury_faults::active() {
        return Vec::new();
    }
    (0..items).map(|_| mercury_faults::poll(site)).collect()
}

/// Fires item `i`'s drawn `Panic` on the thread that owns the item — the
/// dispatching thread inline, a pool worker on a fan-out (the pool
/// re-raises it after the region drains either way).
#[cfg(feature = "fault-inject")]
pub(crate) fn fault_pre(site: FaultSite, faults: &[Option<FaultAction>], i: usize) {
    if faults.get(i) == Some(&Some(FaultAction::Panic)) {
        mercury_faults::injected_panic(site);
    }
}

/// Applies item `i`'s drawn `NanPayload`: plants a NaN in the first slot
/// of `out` after real data was written (a corrupted-result fault rather
/// than a crash). `CorruptTag` has no meaning here and is ignored.
#[cfg(feature = "fault-inject")]
pub(crate) fn fault_post(faults: &[Option<FaultAction>], i: usize, out: &mut [f32]) {
    if faults.get(i) == Some(&Some(FaultAction::NanPayload)) {
        if let Some(slot) = out.first_mut() {
            *slot = f32::NAN;
        }
    }
}

/// State shared by every engine family — the fields the old `ConvEngine` /
/// `FcEngine` pair used to copy-paste. It holds no executor: every reuse
/// pass runs on the thread that calls it, and the one fan-out an engine
/// owns, a batch conv forward's channels, is the [`ConvEngine`]'s.
///
/// [`ConvEngine`]: crate::ConvEngine
#[derive(Debug)]
pub(crate) struct EngineBase {
    pub config: MercuryConfig,
    pub cache: BankedMCache,
    /// Persistent engines keep MCACHE state across reuse scopes and evict
    /// only at epoch boundaries; batch engines restart per scope.
    pub persistent: bool,
    /// The random projections signatures are drawn against.
    pub projections: Projections,
    pub signature_bits: usize,
    pub detection_enabled: bool,
    /// The FC and attention engines' reuse plan, kept across calls so its
    /// per-entry index is filled once. Conv channels plan in their
    /// workers' scratch instead.
    pub plan: ReusePlan,
    /// The FC and attention engines' compute rows (see [`Product`]):
    /// plain vectors kept across calls, so an engine that never runs a
    /// row pass — every conv engine — holds no buffer.
    pub rows: Vec<f32>,
    /// The dots of [`rows`](Self::rows), kept the same way.
    pub dots: Vec<f32>,
    /// The FC and attention engines' signature words, kept the same way.
    pub words: Vec<u128>,
}

impl EngineBase {
    /// Builds an engine's state: `config.cache` split across `banks`
    /// signature-homed banks, with projections drawn
    /// from `Rng::new(seed)`. A `persistent` engine keeps its cache across
    /// reuse scopes; otherwise each scope restarts it.
    ///
    /// # Errors
    ///
    /// The [`ConfigError`] `config` violates, [`ConfigError::ZeroBanks`]
    /// for zero banks, and [`ConfigError::BankSplit`] when `banks` does
    /// not divide the set count.
    pub fn new(
        config: MercuryConfig,
        seed: u64,
        banks: usize,
        persistent: bool,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        if banks == 0 {
            return Err(ConfigError::ZeroBanks);
        }
        // `validate` rejects zero sets, so a remainder also catches
        // `banks > sets`.
        let sets = config.cache.sets;
        if sets % banks != 0 {
            return Err(ConfigError::BankSplit { sets, banks });
        }
        let per_bank = MCacheConfig {
            sets: sets / banks,
            ..config.cache
        };
        Ok(EngineBase {
            config,
            cache: BankedMCache::new(banks, per_bank).expect("bank count checked positive above"),
            persistent,
            projections: Projections {
                rng: Rng::new(seed),
                by_len: HashMap::new(),
            },
            signature_bits: config.initial_signature_bits,
            detection_enabled: true,
            plan: ReusePlan::default(),
            rows: Vec::new(),
            dots: Vec::new(),
            words: Vec::new(),
        })
    }

    /// The FC and attention engines' reuse pass: one scope per call over
    /// the engine's own cache, plan and buffers (see [`ReusePlan::pass`]),
    /// storing every vector's `width` results of `[n, len]` `vectors`
    /// against `panels` in its row of `dest`, and keeping rows for `owner`
    /// when given. A batch engine's scope ends with the call, so its cache
    /// is left empty.
    #[allow(clippy::too_many_arguments)]
    pub fn rows_pass(
        &mut self,
        sigs: &[Signature],
        vectors: &[f32],
        len: usize,
        width: usize,
        panels: &[f32],
        dest: &mut [f32],
        owner: Option<u32>,
    ) -> PassOut {
        let product = Product {
            vectors,
            len,
            width,
            panels,
            rows: &mut self.rows,
            dots: &mut self.dots,
            dest,
            accumulate: false,
        };
        let clear = !self.persistent;
        let pass = self.plan.pass(&mut self.cache, clear, sigs, product, owner);
        if clear {
            self.cache.clear();
        }
        pass
    }

    /// Evicts all MCACHE state (tags and stored rows) — the epoch
    /// boundary.
    pub fn end_epoch(&mut self) {
        self.cache.clear();
    }

    /// Grows the signature by one bit, up to the configured maximum.
    ///
    /// A persistent cache is flushed, stored rows and all, when the length
    /// actually changes: tags at the old length can never match again
    /// (signatures compare length-sensitively) but would keep occupying
    /// ways under the no-replacement policy, silently turning every later
    /// probe into an MNU — "MCACHE is flushed whenever the signature length
    /// grows", as the hardware does. Batch engines restart per reuse scope
    /// anyway.
    pub fn grow_signature(&mut self) -> usize {
        if self.signature_bits < self.config.max_signature_bits {
            self.signature_bits += 1;
            if self.persistent {
                self.cache.clear();
            }
        }
        self.signature_bits
    }
}

/// The weights a conv or FC engine's reuse passes compute under, packed
/// once into the row kernel's panels: every row a persistent cache stores
/// was computed from these panels. A session binds a layer's weights at
/// registration and at `update_weights`; a direct caller's engine binds the
/// weights of its first reuse call, and binds again — dropping any stored
/// rows — when a call passes other weights.
#[derive(Debug)]
pub(crate) struct Bound {
    pub weights: Tensor,
    pub panels: Vec<f32>,
}

impl Bound {
    /// Whether these are `weights`, bit for bit: the same shape and the
    /// same bits in every value (so `-0.0` differs from `0.0`, and a NaN
    /// equals itself).
    pub fn holds(&self, weights: &Tensor) -> bool {
        self.weights.shape() == weights.shape()
            && self
                .weights
                .data()
                .iter()
                .zip(weights.data())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// An engine's random projections: one matrix per vector length, all drawn
/// from one RNG in the order the lengths are first signed.
#[derive(Debug)]
pub(crate) struct Projections {
    rng: Rng,
    by_len: HashMap<usize, ProjectionMatrix>,
}

impl Projections {
    /// The matrix for `len`-element vectors at `bits` filters: generated on
    /// first use, extended when the signature has grown since. Signature
    /// length only grows, so the matrix holds exactly `bits` filters and
    /// [`signatures`](ProjectionMatrix::signatures) signs at that length.
    pub fn get(&mut self, len: usize, bits: usize) -> &ProjectionMatrix {
        let rng = &mut self.rng;
        let proj = self
            .by_len
            .entry(len)
            .or_insert_with(|| ProjectionMatrix::generate(len, bits, rng));
        if proj.num_filters() < bits {
            proj.extend_filters(bits - proj.num_filters(), rng);
        }
        debug_assert_eq!(proj.num_filters(), bits, "signature length shrank");
        proj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mercury_tensor::exec::ExecutorKind;

    fn sig(bits: u128) -> Signature {
        Signature::from_bits(bits, 20)
    }

    /// An 8-set, 2-way configuration small enough to fill.
    fn small_config() -> MercuryConfig {
        MercuryConfig {
            cache: MCacheConfig::new(8, 2).unwrap(),
            ..MercuryConfig::default()
        }
    }

    #[test]
    fn banked_flat_ids_round_trip() {
        let mut cache = EngineBase::new(small_config(), 1, 4, true).unwrap().cache;
        assert_eq!(cache.entries(), 16);
        assert_eq!(cache.bank_config().ways, 2);
        for i in 0..40u128 {
            let out = cache.probe_insert(sig(i));
            if let Some(entry) = out.entry {
                assert!(entry.set < 8, "flat set {} out of range", entry.set);
                assert!(entry.way < 2, "way {} out of range", entry.way);
            }
        }
        // Same signature must flatten to the same entry again.
        let a = cache.probe_insert(sig(1));
        let b = cache.probe_insert(sig(1));
        assert_eq!(a.entry, b.entry);
        assert_eq!(b.kind, HitKind::Hit);
    }

    #[test]
    fn banked_rejects_bad_splits() {
        let new = |banks| EngineBase::new(small_config(), 1, banks, true);
        assert_eq!(new(0).unwrap_err(), ConfigError::ZeroBanks);
        assert_eq!(
            new(3).unwrap_err(),
            ConfigError::BankSplit { sets: 8, banks: 3 }
        );
        assert_eq!(
            new(16).unwrap_err(),
            ConfigError::BankSplit { sets: 8, banks: 16 }
        );
    }

    #[test]
    fn work_hints_saturate_on_overflow_shaped_layers() {
        // Hint arithmetic must clamp, not wrap or panic, when layer
        // dimensions multiply past usize::MAX (overflow checks stay on
        // in the release profile, which CI's `cargo test --release -q`
        // step runs these under).
        let huge = 1usize << 40;
        assert_eq!(dense_work(huge, huge, huge), usize::MAX);
        assert_eq!(dense_work(1, usize::MAX, 2), usize::MAX);
        assert_eq!(dense_work(1, 3, 4), 24);
        assert_eq!(conv_channel_work(huge, huge, huge, 64), usize::MAX);
        // The probe-stream term saturates on its own too, for any
        // per-probe cost.
        assert_eq!(conv_channel_work(0, 0, usize::MAX, 64), usize::MAX);
        assert_eq!(conv_channel_work(0, 0, 2, usize::MAX), usize::MAX);
        assert_eq!(
            conv_channel_work(2, 3, 5, 64),
            60 + 64 * 5,
            "small shapes keep the exact FLOP count"
        );
    }

    #[test]
    fn growing_signature_flushes_persistent_tags() {
        let config = MercuryConfig::default();
        let mut p = EngineBase::new(config, 1, 8, true).unwrap();
        p.cache.probe_insert(sig(5));
        p.grow_signature();
        // The old-length tag was evicted, so the entry is re-insertable
        // rather than left as unmatchable dead weight in the set.
        assert_eq!(p.cache.probe_insert(sig(5)).kind, HitKind::Mau);

        // Saturated growth changes nothing and must not flush.
        let saturated = MercuryConfig {
            initial_signature_bits: 64,
            ..config
        };
        let mut s = EngineBase::new(saturated, 1, 8, true).unwrap();
        s.cache.probe_insert(Signature::from_bits(6, 64));
        s.grow_signature();
        assert_eq!(
            s.cache.probe_insert(Signature::from_bits(6, 64)).kind,
            HitKind::Hit
        );
    }

    #[test]
    fn persistent_scope_keeps_tags_batch_scope_drops_them() {
        // One one-element vector per pass against the single column `2`:
        // the scope decides whether the resident tag makes it a HIT, and
        // either way the vector takes its own product.
        let mut panels = Vec::new();
        sign::pack_panels(&[2.0], 1, 1, 1, &mut panels);
        let pass = |base: &mut EngineBase| {
            let mut out = [0.0f32];
            let counts = base
                .rows_pass(&[sig(9)], &[1.5], 1, 1, &panels, &mut out, None)
                .counts;
            assert_eq!(out, [3.0]);
            (counts.hits, counts.maus)
        };
        let config = MercuryConfig::default();
        let mut batch = EngineBase::new(config, 1, 1, false).unwrap();
        batch.cache.probe_insert(sig(9));
        assert_eq!(pass(&mut batch), (0, 1));

        let mut persistent = EngineBase::new(config, 1, 8, true).unwrap();
        persistent.cache.probe_insert(sig(9));
        assert_eq!(pass(&mut persistent), (1, 0));
        persistent.end_epoch();
        assert_eq!(pass(&mut persistent), (0, 1));
    }

    /// The forwards of `passes` calls to a batch engine of each family —
    /// conv, FC, attention — built from `config`, and each engine's cache
    /// bytes afterwards. With `grow` the signature grows by one bit after
    /// every call. Half of every operand repeats, so each pass both
    /// computes and HITs: an `[8, 16, 16]` conv input whose channels' top
    /// halves are constant, through `[8, 8, 3, 3]` kernels with pad 1, and
    /// 24 rows of 16 (rows 12–23 repeat rows 0–11) through `[16, 12]` FC
    /// weights and self-attention.
    fn drive_batch_engines(
        config: MercuryConfig,
        passes: usize,
        grow: bool,
    ) -> Vec<(Vec<crate::LayerForward>, usize)> {
        use crate::{AttentionEngine, ConvEngine, FcEngine, LayerOp, ReuseEngine};
        use mercury_tensor::Tensor;
        let mut rng = Rng::new(40);
        let mut image = Tensor::randn(&[8, 16, 16], &mut rng);
        for plane in image.data_mut().chunks_exact_mut(256) {
            plane[..128].fill(0.5);
        }
        let kernels = Tensor::randn(&[8, 8, 3, 3], &mut rng);
        let half = Tensor::randn(&[12, 16], &mut rng);
        let rows = Tensor::from_vec(half.data().repeat(2), &[24, 16]).unwrap();
        let weights = Tensor::randn(&[16, 12], &mut rng);
        let engines: [(Box<dyn ReuseEngine>, LayerOp<'_>); 3] = [
            (
                Box::new(ConvEngine::try_new(config, 41).unwrap()),
                LayerOp::conv(&image, &kernels, 1, 1),
            ),
            (
                Box::new(FcEngine::try_new(config, 42).unwrap()),
                LayerOp::fc(&rows, &weights),
            ),
            (
                Box::new(AttentionEngine::try_new(config, 43).unwrap()),
                LayerOp::attention(&rows),
            ),
        ];
        engines
            .into_iter()
            .map(|(mut engine, op)| {
                let forwards = (0..passes)
                    .map(|_| {
                        let forward = engine.forward(op).unwrap();
                        if grow {
                            engine.grow_signature();
                        }
                        forward
                    })
                    .collect();
                (forwards, engine.cache_bytes())
            })
            .collect()
    }

    fn on(kind: ExecutorKind) -> MercuryConfig {
        MercuryConfig::builder().executor(kind).build().unwrap()
    }

    const EXECUTORS: [ExecutorKind; 2] =
        [ExecutorKind::Serial, ExecutorKind::Threaded { threads: 2 }];

    #[test]
    fn batch_engines_report_the_same_cache_bytes_on_every_executor() {
        // A batch forward's last reuse scope ends with it, so no executor
        // leaves tags behind: the serial conv loop probes the engine's own
        // cache, the sharded one per-worker caches.
        for kind in EXECUTORS {
            for (family, (forwards, bytes)) in drive_batch_engines(on(kind), 1, false)
                .into_iter()
                .enumerate()
            {
                assert!(forwards[0].stats().hits > 0, "family {family} reuses");
                assert_eq!(bytes, 0, "family {family} on {kind:?}");
            }
        }
    }

    #[test]
    fn growing_across_lane_blocks_matches_engines_built_at_the_grown_length() {
        // 20 → 33 bits one bit per forward crosses the 24- and 32-lane
        // panel edges; the grown projection is the one drawn at 33 bits.
        for kind in EXECUTORS {
            let grown = drive_batch_engines(on(kind), 14, true);
            let config = MercuryConfig {
                initial_signature_bits: 33,
                ..on(kind)
            };
            let built = drive_batch_engines(config, 1, false);
            for (family, ((grown, _), (built, _))) in grown.iter().zip(&built).enumerate() {
                assert_eq!(grown[13], built[0], "family {family} on {kind:?}");
                assert!(built[0].stats().hits > 0, "family {family} reuses");
                let bits = match &built[0].report.signatures {
                    crate::ReuseSignatures::Conv(s) => s.bits,
                    crate::ReuseSignatures::Rows(s) => s[0].len(),
                };
                assert_eq!(bits, 33, "family {family}");
            }
        }
    }
}
