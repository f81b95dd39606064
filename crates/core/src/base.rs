//! Shared engine plumbing: the state every reuse engine carries (config,
//! cache, RNG, projection matrices, signature length, detection flag) and
//! the [`EngineCache`] abstraction that lets one hot path run against
//! either the monolithic per-scope MCACHE of §III-B3 or the banked,
//! epoch-evicted MCACHE of §V that [`MercurySession`](crate::MercurySession)
//! streams through.

use crate::config::ConfigError;
use crate::MercuryConfig;
use mercury_mcache::banked::{BankedEntryId, BankedMCache};
use mercury_mcache::{AccessOutcome, EntryId, MCache, MCacheConfig, MCacheStats, McacheError};
use mercury_rpq::{ProjectionMatrix, Signature, SignatureGenerator};
use mercury_tensor::exec::Executor;
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;
use std::collections::HashMap;

/// An engine's MCACHE, monolithic or banked, addressed through flattened
/// [`EntryId`]s.
///
/// Banked entries are flattened by stacking the banks' set ranges:
/// bank `b`, set `s` becomes flat set `b * sets_per_bank + s`. The flat id
/// space keeps the engines' per-entry scratch arrays (`entry_row`,
/// `entry_group`, producer maps) oblivious to banking.
#[derive(Debug)]
pub(crate) enum EngineCache {
    /// One monolithic cache, restarted per reuse scope (§III-B3). Boxed
    /// so the enum stays small next to the `Banked` variant.
    Mono(Box<MCache>),
    /// Bank-partitioned cache (§V), persisted across scopes and evicted by
    /// epoch.
    Banked {
        /// The banks.
        banks: BankedMCache,
        /// Sets per bank, for flattening entry ids.
        sets_per_bank: usize,
    },
}

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

        fn config(&self) -> &crate::MercuryConfig {
            &self.base.config
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
/// the `[f, plen] × [plen, patches_n]` GEMM plus one cache probe per
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

/// The single owner of the bank-split constraint: `banks` must be
/// positive and divide `sets` with at least one set per bank. Returns the
/// resulting sets-per-bank. Both [`EngineCache::banked`] and
/// `MercurySession` construction validate through here so the two can
/// never drift.
pub(crate) fn validate_bank_split(sets: usize, banks: usize) -> Result<usize, ConfigError> {
    if banks == 0 {
        return Err(ConfigError::ZeroBanks);
    }
    if sets % banks != 0 || sets / banks == 0 {
        return Err(ConfigError::BankSplit { sets, banks });
    }
    Ok(sets / banks)
}

impl EngineCache {
    /// A monolithic cache with the configured geometry.
    pub fn mono(config: MCacheConfig) -> Self {
        EngineCache::Mono(Box::new(MCache::new(config)))
    }

    /// Splits the configured geometry across `num_banks` banks.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroBanks`] for zero banks and
    /// [`ConfigError::BankSplit`] when the set count does not divide
    /// evenly (each bank must keep at least one set).
    pub fn banked(config: MCacheConfig, num_banks: usize) -> Result<Self, ConfigError> {
        let sets_per_bank = validate_bank_split(config.sets, num_banks)?;
        let per_bank = MCacheConfig::new(sets_per_bank, config.ways, config.versions)
            .expect("per-bank geometry is positive by construction");
        let banks =
            BankedMCache::new(num_banks, per_bank).expect("bank count checked positive above");
        Ok(EngineCache::Banked {
            banks,
            sets_per_bank,
        })
    }

    fn unflatten(sets_per_bank: usize, id: EntryId) -> BankedEntryId {
        BankedEntryId {
            bank: id.set / sets_per_bank,
            entry: EntryId {
                set: id.set % sets_per_bank,
                way: id.way,
            },
        }
    }

    /// Probes for a signature, inserting on a miss; banked entries come
    /// back with flattened set indices.
    pub fn probe_insert(&mut self, sig: Signature) -> AccessOutcome {
        match self {
            EngineCache::Mono(cache) => cache.probe_insert(sig),
            EngineCache::Banked {
                banks,
                sets_per_bank,
            } => {
                let out = banks.probe_insert(sig);
                AccessOutcome {
                    kind: out.kind(),
                    entry: out.entry().map(|id| EntryId {
                        set: id.bank * *sets_per_bank + id.entry.set,
                        way: id.entry.way,
                    }),
                }
            }
        }
    }

    /// Probes a whole signature stream, returning one outcome per
    /// signature in stream order. On a banked cache with a parallel
    /// executor, the stream is partitioned by home bank and the banks'
    /// disjoint shards probe concurrently without locks; within each bank
    /// the stream order is preserved, and since a signature's bank, set,
    /// and conflict window all live in exactly one shard, the outcomes
    /// (and every per-bank counter) are **identical** to probing the
    /// stream serially — only the wall-clock changes.
    ///
    /// Parallelism only pays when each bank gets a meaningful run of
    /// probes; below the executor's `parallel_probe_min`
    /// signatures the serial loop wins and is used regardless of the
    /// backend.
    pub fn probe_insert_batch(
        &mut self,
        sigs: &[Signature],
        exec: &Executor,
    ) -> Vec<AccessOutcome> {
        let mut out = Vec::new();
        self.probe_insert_batch_into(sigs, exec, &mut out);
        out
    }

    /// [`probe_insert_batch`](Self::probe_insert_batch) into a reusable
    /// buffer (cleared first), so hot paths pay no per-batch allocation.
    pub fn probe_insert_batch_into(
        &mut self,
        sigs: &[Signature],
        exec: &Executor,
        out: &mut Vec<AccessOutcome>,
    ) {
        out.clear();
        #[cfg(feature = "fault-inject")]
        let faulted = bank_probe_faults(sigs);
        #[cfg(feature = "fault-inject")]
        let sigs: &[Signature] = faulted.as_deref().unwrap_or(sigs);
        if let EngineCache::Banked {
            banks,
            sets_per_bank,
        } = self
        {
            let num_banks = banks.num_banks();
            let tuning = exec.tuning();
            if exec.is_parallel() && num_banks > 1 && sigs.len() >= tuning.parallel_probe_min {
                let sets_per_bank = *sets_per_bank;
                let mut per_bank: Vec<Vec<(u32, Signature)>> = vec![Vec::new(); num_banks];
                for (i, &sig) in sigs.iter().enumerate() {
                    per_bank[banks.bank_of_sig(sig)].push((i as u32, sig));
                }
                out.resize(
                    sigs.len(),
                    AccessOutcome {
                        kind: mercury_mcache::HitKind::Mnu,
                        entry: None,
                    },
                );
                let jobs = banks.shards().into_iter().zip(per_bank);
                // Work-size hints: each bank job carries its *actual*
                // probe count × the executor's per-probe cost (the same
                // units its dispatch gate compares against). A batch
                // average would mis-size every job on skewed batches
                // (similar inputs hash to few banks): the hot bank
                // understated, workers woken for near-empty ones. With
                // per-item hints, a batch whose probes all land in one
                // bank runs inline — a second thread could not share
                // that bank's shard.
                let results = exec.map(
                    jobs,
                    |(_, probes)| probes.len().saturating_mul(tuning.probe_work_units),
                    || (),
                    |(mut shard, probes), ()| {
                        probes
                            .into_iter()
                            .map(|(i, sig)| {
                                let o = shard.probe_insert(sig);
                                let flat = AccessOutcome {
                                    kind: o.kind(),
                                    entry: o.entry().map(|id| EntryId {
                                        set: id.bank * sets_per_bank + id.entry.set,
                                        way: id.entry.way,
                                    }),
                                };
                                (i, flat)
                            })
                            .collect::<Vec<_>>()
                    },
                );
                for bank_results in results {
                    for (i, o) in bank_results {
                        out[i as usize] = o;
                    }
                }
                return;
            }
        }
        out.extend(sigs.iter().map(|&sig| self.probe_insert(sig)));
    }

    /// Writes a data version through a flattened entry id.
    pub fn write(&mut self, id: EntryId, version: usize, value: f32) -> Result<(), McacheError> {
        match self {
            EngineCache::Mono(cache) => cache.write(id, version, value),
            EngineCache::Banked {
                banks,
                sets_per_bank,
            } => banks.write(Self::unflatten(*sets_per_bank, id), version, value),
        }
    }

    /// Counted read through a flattened entry id.
    pub fn read_counted(&mut self, id: EntryId, version: usize) -> Option<f32> {
        match self {
            EngineCache::Mono(cache) => cache.read_counted(id, version),
            EngineCache::Banked {
                banks,
                sets_per_bank,
            } => banks.read_counted(Self::unflatten(*sets_per_bank, id), version),
        }
    }

    /// Flash-clears every VD bit (filter advance, §III-C1).
    pub fn invalidate_all_data(&mut self) {
        match self {
            EngineCache::Mono(cache) => cache.invalidate_all_data(),
            EngineCache::Banked { banks, .. } => banks.invalidate_all_data(),
        }
    }

    /// Evicts everything: tags and data.
    pub fn clear(&mut self) {
        match self {
            EngineCache::Mono(cache) => cache.clear(),
            EngineCache::Banked { banks, .. } => banks.clear(),
        }
    }

    /// Starts a new insertion batch window (per-set conflict counting).
    pub fn begin_insert_batch(&mut self) {
        match self {
            EngineCache::Mono(cache) => cache.begin_insert_batch(),
            EngineCache::Banked { banks, .. } => banks.begin_insert_batch(),
        }
    }

    /// Lifetime counters (summed over banks).
    pub fn stats(&self) -> MCacheStats {
        match self {
            EngineCache::Mono(cache) => cache.stats(),
            EngineCache::Banked { banks, .. } => banks.stats(),
        }
    }

    /// Ways per set (uniform across banks).
    pub fn ways(&self) -> usize {
        match self {
            EngineCache::Mono(cache) => cache.config().ways,
            EngineCache::Banked { banks, .. } => banks.bank_config().ways,
        }
    }

    /// Total entries across the whole cache.
    pub fn total_entries(&self) -> usize {
        match self {
            EngineCache::Mono(cache) => cache.config().entries(),
            EngineCache::Banked { banks, .. } => banks.entries(),
        }
    }

    /// Bytes of resident cache state (tags + data versions of occupied
    /// lines); drops to zero on [`clear`](Self::clear). The serving
    /// tier's memory budget meters sessions through this figure.
    pub fn resident_bytes(&self) -> usize {
        match self {
            EngineCache::Mono(cache) => cache.resident_bytes(),
            EngineCache::Banked { banks, .. } => banks.resident_bytes(),
        }
    }
}

/// Draws one [`BankProbe`] fault event per signature, in stream order on
/// the dispatching thread **before** any bank partitioning or fan-out, so
/// which probe faults is independent of the executor and the bank layout.
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
    use mercury_faults::{FaultAction, FaultSite};
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

/// State shared by every engine family — the fields the old `ConvEngine` /
/// `FcEngine` pair used to copy-paste.
#[derive(Debug)]
pub(crate) struct EngineBase {
    pub config: MercuryConfig,
    pub cache: EngineCache,
    /// Persistent engines keep MCACHE state across reuse scopes and evict
    /// only at epoch boundaries; batch engines restart per scope.
    pub persistent: bool,
    /// The execution backend every parallel path of this engine schedules
    /// through, resolved once from `config.executor`.
    pub exec: Executor,
    rng: Rng,
    /// One projection matrix per vector length, grown lazily.
    projections: HashMap<usize, ProjectionMatrix>,
    pub signature_bits: usize,
    pub detection_enabled: bool,
}

impl EngineBase {
    /// Batch-mode base: monolithic cache, cleared per reuse scope.
    /// Resolves a private executor from `config.executor`; owners that
    /// drive several engines share one pool via [`new_on`](Self::new_on).
    pub fn new(config: MercuryConfig, seed: u64) -> Result<Self, ConfigError> {
        Self::new_on(config, seed, Executor::from_kind(config.executor))
    }

    /// [`new`](Self::new) scheduling on a caller-provided executor —
    /// cloned `Executor`s share one worker pool, so a long-lived owner
    /// resolves `config.executor` once and hands the same pool to every
    /// engine it creates.
    pub fn new_on(config: MercuryConfig, seed: u64, exec: Executor) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(EngineBase {
            config,
            cache: EngineCache::mono(config.cache),
            persistent: false,
            exec,
            rng: Rng::new(seed),
            projections: HashMap::new(),
            signature_bits: config.initial_signature_bits,
            detection_enabled: true,
        })
    }

    /// Persistent base: banked cache, evicted only by
    /// [`end_epoch`](Self::end_epoch). See [`new`](Self::new) for the
    /// executor-resolution note.
    pub fn persistent(config: MercuryConfig, seed: u64, banks: usize) -> Result<Self, ConfigError> {
        Self::persistent_on(config, seed, banks, Executor::from_kind(config.executor))
    }

    /// [`persistent`](Self::persistent) scheduling on a caller-provided
    /// executor (see [`new_on`](Self::new_on)).
    pub fn persistent_on(
        config: MercuryConfig,
        seed: u64,
        banks: usize,
        exec: Executor,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(EngineBase {
            config,
            cache: EngineCache::banked(config.cache, banks)?,
            persistent: true,
            exec,
            rng: Rng::new(seed),
            projections: HashMap::new(),
            signature_bits: config.initial_signature_bits,
            detection_enabled: true,
        })
    }

    /// Opens a reuse scope (a channel for conv, a call for FC/attention):
    /// batch engines restart the cache, persistent engines keep it; both
    /// start a fresh insertion-conflict window.
    pub fn begin_reuse_scope(&mut self) {
        if !self.persistent {
            self.cache.clear();
        }
        self.cache.begin_insert_batch();
    }

    /// Evicts all MCACHE state (tags and data) — the epoch boundary.
    pub fn end_epoch(&mut self) {
        self.cache.clear();
    }

    /// Grows the signature by one bit, up to the configured maximum.
    ///
    /// A persistent cache is flushed when the length actually changes:
    /// tags at the old length can never match again (signatures compare
    /// length-sensitively) but would keep occupying ways under the
    /// no-replacement policy, silently turning every later probe into an
    /// MNU — "MCACHE is flushed whenever the signature length grows", as
    /// the hardware does. Batch engines restart per reuse scope anyway.
    pub fn grow_signature(&mut self) -> usize {
        if self.signature_bits < self.config.max_signature_bits {
            self.signature_bits += 1;
            if self.persistent {
                self.cache.clear();
            }
        }
        self.signature_bits
    }

    /// The projection matrix for vectors of `len` elements, generated (or
    /// extended to the current signature length) on demand.
    pub fn projection_for(&mut self, len: usize) -> &ProjectionMatrix {
        let bits = self.signature_bits;
        let rng = &mut self.rng;
        let proj = self
            .projections
            .entry(len)
            .or_insert_with(|| ProjectionMatrix::generate(len, bits, rng));
        if proj.num_filters() < bits {
            proj.extend_filters(bits - proj.num_filters(), rng);
        }
        proj
    }

    /// Immutable view of an already-materialized projection matrix. Call
    /// [`projection_for`](Self::projection_for) first to generate/extend
    /// it; this split lets the parallel conv path hold `&self` borrows
    /// (projection + executor) while channel workers run.
    pub fn projection(&self, len: usize) -> Option<&ProjectionMatrix> {
        self.projections.get(&len)
    }

    /// Signatures for the rows of a `[n, len]` tensor at the current
    /// signature length.
    pub fn signatures_for_rows(&mut self, rows: &Tensor) -> Vec<Signature> {
        let len = rows.shape()[1];
        let bits = self.signature_bits;
        let proj = self.projection_for(len);
        let generator = SignatureGenerator::new(proj);
        generator.signatures_for_patches_prefix(rows, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mercury_mcache::HitKind;

    fn sig(bits: u128) -> Signature {
        Signature::from_bits(bits, 20)
    }

    #[test]
    fn banked_flat_ids_round_trip() {
        let mut cache = EngineCache::banked(MCacheConfig::new(8, 2, 1).unwrap(), 4).unwrap();
        assert_eq!(cache.total_entries(), 16);
        assert_eq!(cache.ways(), 2);
        for i in 0..40u128 {
            let out = cache.probe_insert(sig(i));
            if let Some(entry) = out.entry {
                assert!(entry.set < 8, "flat set {} out of range", entry.set);
                if out.kind == HitKind::Mau {
                    cache.write(entry, 0, i as f32).unwrap();
                    assert_eq!(cache.read_counted(entry, 0), Some(i as f32));
                }
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
        let cfg = MCacheConfig::new(8, 2, 1).unwrap();
        assert_eq!(
            EngineCache::banked(cfg, 0).unwrap_err(),
            ConfigError::ZeroBanks
        );
        assert_eq!(
            EngineCache::banked(cfg, 3).unwrap_err(),
            ConfigError::BankSplit { sets: 8, banks: 3 }
        );
        assert_eq!(
            EngineCache::banked(cfg, 16).unwrap_err(),
            ConfigError::BankSplit { sets: 8, banks: 16 }
        );
    }

    #[test]
    fn batched_probes_match_serial_probes_on_every_backend() {
        // The concurrent banked probe path must be indistinguishable from
        // the serial loop: same outcomes in stream order, same aggregate
        // stats. The stream is long enough to cross any committed
        // parallel-probe cutoff and repeats signatures so all three
        // outcome kinds occur.
        let cfg = MCacheConfig::new(8, 2, 1).unwrap();
        let sigs: Vec<Signature> = (0..200u128).map(|i| sig(i % 61)).collect();

        let mut serial = EngineCache::banked(cfg, 4).unwrap();
        let serial_out = serial.probe_insert_batch(&sigs, &Executor::serial());

        for threads in [2, 8] {
            let mut parallel = EngineCache::banked(cfg, 4).unwrap();
            let parallel_out = parallel.probe_insert_batch(&sigs, &Executor::threaded(threads));
            assert_eq!(serial_out, parallel_out, "{threads} threads diverged");
            assert_eq!(serial.stats(), parallel.stats());
        }

        // Mono caches take the serial loop on any backend.
        let mut mono_a = EngineCache::mono(cfg);
        let mut mono_b = EngineCache::mono(cfg);
        assert_eq!(
            mono_a.probe_insert_batch(&sigs, &Executor::serial()),
            mono_b.probe_insert_batch(&sigs, &Executor::threaded(8)),
        );
    }

    #[test]
    fn skewed_bank_batches_inline_spread_batches_dispatch() {
        // A batch whose probes all home to one bank has one busy shard —
        // a second thread could not share it, so the pool must not wake.
        // The old batch-average hint sized all four jobs alike and
        // dispatched exactly this shape.
        let cfg = MCacheConfig::new(8, 2, 1).unwrap();
        let oracle = EngineCache::banked(cfg, 4).unwrap();
        let EngineCache::Banked { banks, .. } = &oracle else {
            unreachable!("banked constructor yields the banked variant")
        };
        // 600 probes × PROBE_WORK_UNITS lands well over the dispatch
        // floor, so only the busy-bank gate keeps this inline.
        let mut skewed = Vec::new();
        let mut i = 0u128;
        while skewed.len() < 600 {
            let s = sig(i);
            if banks.bank_of_sig(s) == 0 {
                skewed.push(s);
            }
            i += 1;
        }
        let spread: Vec<Signature> = (0..600u128).map(sig).collect();
        assert!(
            (0..4).all(|b| spread.iter().any(|&s| banks.bank_of_sig(s) == b)),
            "spread stream must touch every bank"
        );

        let exec = Executor::threaded(4);
        let before = exec.pool_stats().unwrap();
        let mut serial_cache = EngineCache::banked(cfg, 4).unwrap();
        let want = serial_cache.probe_insert_batch(&skewed, &Executor::serial());
        let mut cache = EngineCache::banked(cfg, 4).unwrap();
        let got = cache.probe_insert_batch(&skewed, &exec);
        assert_eq!(got, want, "skewed outcomes must match serial");
        assert_eq!(serial_cache.stats(), cache.stats());
        let after = exec.pool_stats().unwrap();
        assert_eq!(
            after.regions_dispatched, before.regions_dispatched,
            "single-bank batch must run inline"
        );
        assert_eq!(after.regions_inlined, before.regions_inlined + 1);

        let mut serial_cache = EngineCache::banked(cfg, 4).unwrap();
        let want = serial_cache.probe_insert_batch(&spread, &Executor::serial());
        let mut cache = EngineCache::banked(cfg, 4).unwrap();
        let got = cache.probe_insert_batch(&spread, &exec);
        assert_eq!(got, want, "spread outcomes must match serial");
        assert_eq!(
            exec.pool_stats().unwrap().regions_dispatched,
            after.regions_dispatched + 1,
            "multi-bank batch over the work floor must dispatch"
        );
    }

    #[test]
    fn work_hints_saturate_on_overflow_shaped_layers() {
        // Hint arithmetic must clamp, not wrap or panic, when layer
        // dimensions multiply past usize::MAX (these run under
        // overflow-checks in the release test profile).
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
    fn tuned_probe_knobs_move_the_inline_dispatch_decision() {
        // The probe fan-out gate and the per-bank work hints must follow
        // the executor's tuning, not hard-coded constants.
        use mercury_tensor::tune::DispatchTuning;
        let cfg = MCacheConfig::new(8, 2, 1).unwrap();
        let spread: Vec<Signature> = (0..100u128).map(sig).collect();
        let mut reference = EngineCache::banked(cfg, 4).unwrap();
        let want = reference.probe_insert_batch(&spread, &Executor::serial());

        // Probe-heavy tuning: each probe costs a huge number of work
        // units, so even this short stream clears the dispatch floor.
        let probe_heavy = DispatchTuning {
            probe_work_units: 1 << 20,
            parallel_probe_min: 2,
            ..DispatchTuning::default()
        };
        let exec = Executor::threaded_tuned(4, probe_heavy);
        let mut cache = EngineCache::banked(cfg, 4).unwrap();
        assert_eq!(cache.probe_insert_batch(&spread, &exec), want);
        assert_eq!(
            exec.pool_stats().unwrap().regions_dispatched,
            1,
            "probe-heavy tuning dispatches the 100-probe stream"
        );

        // Probe-cheap tuning: probes are nearly free, so the identical
        // stream stays under the floor and runs inline.
        let probe_cheap = DispatchTuning {
            probe_work_units: 1,
            parallel_probe_min: 2,
            ..DispatchTuning::default()
        };
        let exec = Executor::threaded_tuned(4, probe_cheap);
        let mut cache = EngineCache::banked(cfg, 4).unwrap();
        assert_eq!(cache.probe_insert_batch(&spread, &exec), want);
        let stats = exec.pool_stats().unwrap();
        assert_eq!(stats.regions_dispatched, 0, "cheap probes stay inline");
        assert_eq!(stats.regions_inlined, 1);

        // A raised cutoff keeps the stream off the fan-out path entirely
        // (serial loop, no per-bank partitioning) whatever the hints say.
        let high_cutoff = DispatchTuning {
            probe_work_units: 1 << 20,
            parallel_probe_min: 101,
            ..DispatchTuning::default()
        };
        let exec = Executor::threaded_tuned(4, high_cutoff);
        let mut cache = EngineCache::banked(cfg, 4).unwrap();
        assert_eq!(cache.probe_insert_batch(&spread, &exec), want);
        assert_eq!(
            exec.pool_stats().unwrap().regions_dispatched,
            0,
            "under the cutoff the serial loop runs — no region at all"
        );
    }

    #[test]
    fn growing_signature_flushes_persistent_tags() {
        let config = MercuryConfig::default();
        let mut p = EngineBase::persistent(config, 1, 8).unwrap();
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
        let mut s = EngineBase::persistent(saturated, 1, 8).unwrap();
        s.cache.probe_insert(Signature::from_bits(6, 64));
        s.grow_signature();
        assert_eq!(
            s.cache.probe_insert(Signature::from_bits(6, 64)).kind,
            HitKind::Hit
        );
    }

    #[test]
    fn persistent_scope_keeps_tags_batch_scope_drops_them() {
        let config = MercuryConfig::default();
        let mut batch = EngineBase::new(config, 1).unwrap();
        batch.cache.probe_insert(sig(9));
        batch.begin_reuse_scope();
        assert_eq!(batch.cache.probe_insert(sig(9)).kind, HitKind::Mau);

        let mut persistent = EngineBase::persistent(config, 1, 8).unwrap();
        persistent.cache.probe_insert(sig(9));
        persistent.begin_reuse_scope();
        assert_eq!(persistent.cache.probe_insert(sig(9)).kind, HitKind::Hit);
        persistent.end_epoch();
        persistent.begin_reuse_scope();
        assert_eq!(persistent.cache.probe_insert(sig(9)).kind, HitKind::Mau);
    }
}
