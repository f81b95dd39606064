//! Deterministic fault injection for the MERCURY workspace.
//!
//! A long-lived reuse service has to keep its *persistent* MCACHE state
//! trustworthy across failures, and the only way to test that is to make
//! failures happen on demand, at an exact point in the request stream,
//! reproducibly. This crate is that switchboard: a process-global
//! registry of armed [`FaultSpec`]s that the hot paths consult through
//! [`poll`] at named injection points ([`FaultSite`]).
//!
//! The registry is linked into `mercury-core` only behind its
//! default-off `fault-inject` cargo feature; a default build contains
//! **no injection points at all** — not even a branch.
//!
//! # Determinism contract
//!
//! Every event counts a unit of work, never a runner: one `BankProbe`
//! per probed signature, one `GemmChunk` per reuse-pass product and one
//! `ChannelShard` per conv channel, each drawn in stream order before its
//! unit runs. Which probe, product or channel faults is therefore decided
//! by a deterministic event count, not by pool scheduling, and repeated
//! runs of the same request stream fault at the same event on any
//! executor.
//!
//! Where the events are drawn: `ChannelShard` on the thread that
//! dispatches a conv forward, before its channels fan out. `BankProbe`
//! and `GemmChunk` in the reuse pass, on the thread that runs it: the
//! caller's for a lone submit or forward, but a pool worker's inside a
//! `submit_batch` fan-out and inside a batch conv engine's channel
//! fan-out (`conv_channel` → `ReusePlan::pass`). So "before any fan-out"
//! holds for every site only on the serial executor and for
//! `ChannelShard` everywhere.
//!
//! One caveat follows: the event counters are global per site, so when
//! *several concurrent streams* emit the same site (two conv layers
//! fanned out by `submit_batch`, or the channels of one batch conv
//! forward on a pool), their counts interleave nondeterministically.
//! Every engine family emits `BankProbe` and `GemmChunk` — conv, FC and
//! attention all run the same reuse pass — while only conv emits
//! `ChannelShard`. Chaos tests that need an exact target under
//! concurrency should arm a site only one of the streams emits (e.g.
//! `ChannelShard` with a single conv layer in the batch), or arm
//! `GemmChunk` on a session whose only layers are conv layers.
//!
//! The counters are also process-wide: while a harness is open, every
//! engine in the process counts, including engines of concurrent tests
//! that hold none. Scoping them to engines built while a harness is open
//! would not do as it stands: both fault tests of
//! `tests/serve_streaming.rs` register their tenants — and so build
//! their engines — before they open [`harness`].
//!
//! # Usage
//!
//! ```
//! use mercury_faults::{harness, FaultAction, FaultSite, FaultSpec};
//!
//! let h = harness(); // serializes chaos tests, resets the registry
//! h.arm(FaultSpec {
//!     site: FaultSite::BankProbe,
//!     nth: 3,
//!     action: FaultAction::CorruptTag,
//! });
//! // ... drive the system under test; the 3rd bank probe sees a
//! // corrupted tag ...
//! assert_eq!(mercury_faults::poll(FaultSite::BankProbe), None);
//! assert_eq!(mercury_faults::poll(FaultSite::BankProbe), None);
//! assert_eq!(
//!     mercury_faults::poll(FaultSite::BankProbe),
//!     Some(FaultAction::CorruptTag)
//! );
//! assert_eq!(h.fired().len(), 1);
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// A named injection point in the MERCURY hot paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// One MCACHE probe, counted in stream order before the reuse pass
    /// probes its signatures one by one, on the thread that runs the
    /// pass. Supports [`FaultAction::Panic`] and
    /// [`FaultAction::CorruptTag`].
    BankProbe,
    /// One reuse-pass product over its compute rows — a conv channel's,
    /// an FC call's, or either of an attention call's two products —
    /// which runs as one kernel call on the pass's thread, so every
    /// executor counts one event per product (none for a product with no
    /// compute rows). Supports [`FaultAction::Panic`] and
    /// [`FaultAction::NanPayload`].
    GemmChunk,
    /// One conv-channel shard, counted in channel order before the
    /// channels fan out. Supports [`FaultAction::Panic`].
    ChannelShard,
}

impl FaultSite {
    /// Every site, in counter-index order.
    pub const ALL: [FaultSite; 3] = [
        FaultSite::BankProbe,
        FaultSite::GemmChunk,
        FaultSite::ChannelShard,
    ];

    fn index(self) -> usize {
        match self {
            FaultSite::BankProbe => 0,
            FaultSite::GemmChunk => 1,
            FaultSite::ChannelShard => 2,
        }
    }

    /// Human-readable site name (used in injected panic payloads).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::BankProbe => "bank probe",
            FaultSite::GemmChunk => "gemm chunk",
            FaultSite::ChannelShard => "channel shard",
        }
    }
}

/// What happens when an armed spec fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic at the injection point (a crashed worker / PE group).
    Panic,
    /// Overwrite one computed value with `NaN` (a corrupted payload).
    /// Only meaningful at sites that produce values; others ignore it.
    NanPayload,
    /// Flip the low tag bit of the probed signature (a tag-store upset).
    /// Only meaningful at [`FaultSite::BankProbe`]; others ignore it.
    CorruptTag,
}

/// One armed fault: fire `action` at the `nth` event (1-based, counted
/// cumulatively per site since the harness was opened). Specs are
/// one-shot — firing removes them from the armed list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Where to fire.
    pub site: FaultSite,
    /// The 1-based site event ordinal at which to fire.
    pub nth: u64,
    /// What to do when firing.
    pub action: FaultAction,
}

impl FaultSpec {
    /// A panic at the `nth` event of `site`.
    pub fn panic_at(site: FaultSite, nth: u64) -> Self {
        FaultSpec {
            site,
            nth,
            action: FaultAction::Panic,
        }
    }

    /// A seeded spec: derives a pseudo-random event ordinal in
    /// `1..=horizon` from `seed` (splitmix64), with a panic action. The
    /// same seed always yields the same spec, so a seeded chaos run is
    /// reproducible from its seed alone.
    pub fn seeded(seed: u64, site: FaultSite, horizon: u64) -> Self {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        FaultSpec {
            site,
            nth: 1 + z % horizon.max(1),
            action: FaultAction::Panic,
        }
    }
}

#[derive(Debug, Default)]
struct Registry {
    armed: Vec<FaultSpec>,
    counts: [u64; FaultSite::ALL.len()],
    fired: Vec<FaultSpec>,
}

/// Fast-path gate: `true` only while a [`FaultHarness`] is open, so a
/// `fault-inject` build with no active harness pays one relaxed atomic
/// load per injection point and never touches the registry mutex.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn harness_lock() -> &'static Mutex<()> {
    static HARNESS: OnceLock<Mutex<()>> = OnceLock::new();
    HARNESS.get_or_init(|| Mutex::new(()))
}

fn lock_registry() -> MutexGuard<'static, Registry> {
    // A panicking chaos test must not poison every later test: the
    // registry's invariants are trivial (plain data), so recover the
    // guard instead of propagating poison.
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// Exclusive handle to the fault registry. Holding it serializes chaos
/// tests within the process; dropping it disarms everything and resets
/// every counter.
#[derive(Debug)]
pub struct FaultHarness {
    _guard: MutexGuard<'static, ()>,
}

/// Opens the fault harness: waits for any other holder, resets the
/// registry (counters, armed specs, fired log), and enables the
/// injection points until the returned handle drops.
pub fn harness() -> FaultHarness {
    let guard = harness_lock().lock().unwrap_or_else(|e| e.into_inner());
    *lock_registry() = Registry::default();
    ACTIVE.store(true, Ordering::SeqCst);
    FaultHarness { _guard: guard }
}

impl FaultHarness {
    /// Arms one fault. Several specs may be armed at once (including at
    /// the same site with different ordinals).
    pub fn arm(&self, spec: FaultSpec) {
        lock_registry().armed.push(spec);
    }

    /// The specs that have fired so far, in firing order.
    pub fn fired(&self) -> Vec<FaultSpec> {
        lock_registry().fired.clone()
    }

    /// The number of armed specs that have not fired yet.
    pub fn pending(&self) -> usize {
        lock_registry().armed.len()
    }

    /// Events counted at `site` since the harness was opened or last
    /// [`reset`](Self::reset).
    pub fn count(&self, site: FaultSite) -> u64 {
        lock_registry().counts[site.index()]
    }

    /// Clears the counters, armed specs and fired log, as opening the
    /// harness does, without releasing it. The injection points count
    /// every event while any harness is open, from any thread, so a test
    /// that drives several request streams holds one harness throughout
    /// and resets it before each stream: then no engine call of another
    /// test can run, let alone advance or fire this test's specs.
    pub fn reset(&self) {
        *lock_registry() = Registry::default();
    }
}

impl Drop for FaultHarness {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
        *lock_registry() = Registry::default();
    }
}

/// Whether a harness is currently open. Hot paths may use this to skip
/// preparatory work (e.g. copying a signature stream) when no fault can
/// possibly fire.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Counts one event at `site` and returns the armed action if this event
/// is one an armed spec names. Fired specs are removed (one-shot) and
/// logged for [`FaultHarness::fired`]. Without an open harness this is a
/// single relaxed atomic load.
pub fn poll(site: FaultSite) -> Option<FaultAction> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    let mut reg = lock_registry();
    reg.counts[site.index()] += 1;
    let n = reg.counts[site.index()];
    if let Some(i) = reg.armed.iter().position(|s| s.site == site && s.nth == n) {
        let spec = reg.armed.remove(i);
        reg.fired.push(spec);
        return Some(spec.action);
    }
    None
}

/// Panics with the canonical injected-fault payload for `site`. Call
/// sites use this for [`FaultAction::Panic`] so containment tests can
/// recognize injected panics by message.
pub fn injected_panic(site: FaultSite) -> ! {
    panic!("mercury-faults: injected panic at {}", site.name())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_at_the_armed_ordinal_and_only_once() {
        let h = harness();
        h.arm(FaultSpec {
            site: FaultSite::GemmChunk,
            nth: 2,
            action: FaultAction::NanPayload,
        });
        assert_eq!(poll(FaultSite::GemmChunk), None);
        // A different site's events never advance this site's counter.
        assert_eq!(poll(FaultSite::BankProbe), None);
        assert_eq!(poll(FaultSite::GemmChunk), Some(FaultAction::NanPayload));
        assert_eq!(poll(FaultSite::GemmChunk), None, "one-shot");
        assert_eq!(
            h.fired(),
            vec![FaultSpec {
                site: FaultSite::GemmChunk,
                nth: 2,
                action: FaultAction::NanPayload,
            }]
        );
        assert_eq!(h.pending(), 0);
        assert_eq!(h.count(FaultSite::GemmChunk), 3);
        assert_eq!(h.count(FaultSite::BankProbe), 1);
    }

    #[test]
    fn multiple_specs_fire_independently() {
        let h = harness();
        h.arm(FaultSpec::panic_at(FaultSite::ChannelShard, 1));
        h.arm(FaultSpec {
            site: FaultSite::ChannelShard,
            nth: 3,
            action: FaultAction::NanPayload,
        });
        assert_eq!(poll(FaultSite::ChannelShard), Some(FaultAction::Panic));
        assert_eq!(poll(FaultSite::ChannelShard), None);
        assert_eq!(poll(FaultSite::ChannelShard), Some(FaultAction::NanPayload));
        assert_eq!(h.fired().len(), 2);
    }

    #[test]
    fn dropping_the_harness_disarms_and_resets() {
        {
            let h = harness();
            h.arm(FaultSpec::panic_at(FaultSite::BankProbe, 1));
            assert!(active());
        }
        assert!(!active());
        // No harness: polls are inert and count nothing.
        assert_eq!(poll(FaultSite::BankProbe), None);
        let h = harness();
        assert_eq!(h.count(FaultSite::BankProbe), 0, "fresh counters");
        assert_eq!(h.pending(), 0, "stale specs were disarmed");
    }

    #[test]
    fn reset_clears_the_registry_and_keeps_the_harness() {
        let h = harness();
        h.arm(FaultSpec::panic_at(FaultSite::GemmChunk, 1));
        h.arm(FaultSpec::panic_at(FaultSite::BankProbe, 5));
        assert_eq!(poll(FaultSite::GemmChunk), Some(FaultAction::Panic));
        assert_eq!(poll(FaultSite::BankProbe), None);
        h.reset();
        assert!(active(), "the harness stays open");
        assert_eq!(h.count(FaultSite::BankProbe), 0);
        assert_eq!(h.pending(), 0);
        assert!(h.fired().is_empty());
        // Counting restarts at 1 for the next stream.
        h.arm(FaultSpec::panic_at(FaultSite::BankProbe, 1));
        assert_eq!(poll(FaultSite::BankProbe), Some(FaultAction::Panic));
    }

    #[test]
    fn seeded_specs_are_reproducible_and_in_range() {
        let a = FaultSpec::seeded(42, FaultSite::BankProbe, 100);
        let b = FaultSpec::seeded(42, FaultSite::BankProbe, 100);
        assert_eq!(a, b);
        assert!((1..=100).contains(&a.nth));
        let c = FaultSpec::seeded(43, FaultSite::BankProbe, 100);
        assert!(
            a.nth != c.nth || a == c,
            "different seeds may collide but usually differ"
        );
        // Degenerate horizon still yields a valid ordinal.
        assert_eq!(FaultSpec::seeded(7, FaultSite::GemmChunk, 0).nth, 1);
    }

    #[test]
    fn injected_panic_payload_is_recognizable() {
        let err = std::panic::catch_unwind(|| injected_panic(FaultSite::GemmChunk)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected panic at gemm chunk"), "{msg}");
    }
}
