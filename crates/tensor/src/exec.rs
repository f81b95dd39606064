//! Pluggable execution backends for the workspace's parallel paths.
//!
//! Every parallel path in the MERCURY reproduction — a batch conv
//! engine's channels and a session's `submit_batch` layers in
//! `mercury-core`, and the per-layer model simulator in `mercury-bench` —
//! schedules its independent work items through one [`Executor`]. A reuse
//! pass (probes, product, fan-out of producer rows) always runs whole on
//! the thread that calls it. Two backends exist:
//!
//! * [`ExecutorKind::Serial`] — every item runs on the calling thread in
//!   index order. This is the *reference semantics*: all documented
//!   behaviour and all determinism suites are defined against it.
//! * [`ExecutorKind::Threaded`] — items are distributed over a
//!   **persistent worker pool**: the worker threads are created once
//!   (lazily, at the first dispatched region) and parked on a condvar
//!   between parallel regions, so a region dispatch costs a wakeup
//!   (~µs), not a `thread::spawn` (~tens of µs). Callers only hand the
//!   executor work whose results are reduced in a deterministic order,
//!   so the threaded backend is **bit-identical** to serial for every
//!   engine, session, and simulator path (pinned by
//!   `tests/parallel_determinism.rs`).
//!
//! The backend is chosen per [`MercuryConfig`] via
//! `MercuryConfig::builder().executor(..)`; the `MERCURY_EXECUTOR`
//! environment variable (`serial`, `threaded`, `threaded:<n>`, or a bare
//! thread count) overrides the default so whole test suites can be
//! re-run on either backend without source changes. An *invalid*
//! `MERCURY_EXECUTOR` value fails loudly (listing the accepted forms)
//! instead of silently falling back to the default.
//!
//! # Pool lifecycle
//!
//! A worker pool is a **per-thread resource**. [`Executor::threaded_tuned`]
//! (and so [`Executor::threaded`] and [`Executor::from_kind`]) returns a
//! handle to the live pool of that width the calling thread already
//! built, and builds one only when none is alive. The thread finds it
//! through a list of `Weak` references, so the list never keeps a pool
//! alive. Every network, engine, session and simulator built on one
//! thread therefore schedules onto one set of parked workers per width,
//! however many times it resolves an executor; cloning a handle shares
//! its pool too. A pool spawns its workers at its first dispatched region
//! and joins them when its last handle drops, so a later handle builds a
//! fresh one.
//!
//! Handles built on different threads get different pools, so concurrent
//! owners (parallel test threads, client threads) never contend. A handle
//! moved to another thread keeps its pool, which later same-width handles
//! built on its original thread still share: the two threads' regions
//! then take turns, one region in flight per pool. That stays
//! deadlock-free under one rule, which nothing in the workspace breaks:
//! **a region item must not block on work that another handle
//! dispatches.**
//!
//! Two things stay per handle: the [`DispatchTuning`] fixed at
//! construction, and the dispatch counters of [`Executor::pool_stats`],
//! which count the regions of one handle and its clones only.
//!
//! # Dispatch
//!
//! Every region goes through one primitive, [`Executor::map`]: owned
//! items, one work hint per item, lazily built per-runner scratch, and
//! results in item order ([`Executor::map_indexed`] is its only
//! convenience). One gate decides where a region runs. It goes to the
//! pool only when **all** of these hold:
//!
//! * the backend is a pool;
//! * at least two items carry nonzero work (so there are at least two
//!   items) — one hot item among empty ones runs inline, however large,
//!   because a second thread could not share its work;
//! * the saturating sum of the hints reaches
//!   [`DispatchTuning::dispatch_min_work`], so tiny regions never pay a
//!   worker wakeup;
//! * the calling thread is not already executing items of an outer
//!   region. Nested regions run inline, so a region item that opens a
//!   region of its own can never deadlock on its pool, and never
//!   oversubscribes the machine.
//!
//! A dispatched region recruits at most one worker fewer than it has busy
//! items (the caller is always the extra runner).
//!
//! [`MercuryConfig`]: https://docs.rs/mercury-core
//!
//! # Examples
//!
//! ```
//! use mercury_tensor::exec::{Executor, ExecutorKind};
//!
//! let serial = Executor::from_kind(ExecutorKind::Serial);
//! let pool = Executor::from_kind(ExecutorKind::Threaded { threads: 4 });
//! let a = serial.map_indexed(8, |i| i * i);
//! let b = pool.map_indexed(8, |i| i * i);
//! assert_eq!(a, b); // scheduling never changes results
//!
//! // Hints summing below the dispatch floor keep a region inline.
//! let squares = pool.map(vec![1u64, 2, 3], |_| 1, || (), |x, ()| x * x);
//! assert_eq!(squares, vec![1, 4, 9]);
//! assert_eq!(pool.pool_stats().unwrap().regions_inlined, 1);
//! ```

use std::error::Error;
use std::fmt;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::tune::DispatchTuning;

/// Which execution backend to build — the [`Copy`] configuration-level
/// selector stored in `MercuryConfig` (and `ModelSimConfig`); resolve it
/// into a runnable [`Executor`] with [`Executor::from_kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutorKind {
    /// Run every work item on the calling thread, in index order (the
    /// reference semantics).
    Serial,
    /// Distribute work items over a persistent pool of `threads` workers.
    /// `threads: 0` means "size to the machine" (the available
    /// parallelism) — on a single-core host that collapses to serial
    /// scheduling, so the auto-sized kind never pays thread overhead a
    /// machine cannot recoup. Pin an explicit width to force a pool
    /// (determinism suites do, to exercise oversubscription).
    Threaded {
        /// Worker count; `0` = auto-size (see above).
        threads: usize,
    },
}

/// An executor spec that matches none of the accepted forms — the typed
/// rejection [`ExecutorKind::parse`] returns, whose `Display` lists every
/// accepted spelling so a typo'd `MERCURY_EXECUTOR` tells the operator
/// exactly what would have worked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseExecutorError {
    spec: String,
}

impl fmt::Display for ParseExecutorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid executor spec {:?}; accepted forms: `serial`, `threaded`, `auto`, \
             `threaded:<n>`, or a bare thread count (`0` auto-sizes, `1` is serial)",
            self.spec
        )
    }
}

impl Error for ParseExecutorError {}

impl ExecutorKind {
    /// An auto-sized threaded backend.
    pub fn threaded_auto() -> Self {
        ExecutorKind::Threaded { threads: 0 }
    }

    /// Parses a backend spec: `serial`, `threaded` / `auto` (auto-sized),
    /// `threaded:<n>`, or a bare thread count (`1` parses as
    /// [`Serial`](Self::Serial)).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseExecutorError`] — whose message lists the accepted
    /// forms — for anything else.
    pub fn parse(spec: &str) -> Result<Self, ParseExecutorError> {
        let trimmed = spec.trim().to_ascii_lowercase();
        match trimmed.as_str() {
            "serial" => Ok(ExecutorKind::Serial),
            "threaded" | "auto" => Ok(ExecutorKind::threaded_auto()),
            other => {
                let n: usize = other
                    .strip_prefix("threaded:")
                    .unwrap_or(other)
                    .parse()
                    .map_err(|_| ParseExecutorError {
                        spec: spec.trim().to_string(),
                    })?;
                if n == 1 {
                    Ok(ExecutorKind::Serial)
                } else {
                    Ok(ExecutorKind::Threaded { threads: n })
                }
            }
        }
    }

    /// The backend selected by the `MERCURY_EXECUTOR` environment
    /// variable, or `None` when unset.
    ///
    /// # Panics
    ///
    /// Panics — listing the accepted forms — when the variable is set to
    /// an invalid spec. A typo'd `MERCURY_EXECUTOR=thredded` must abort
    /// the run, not silently fall back to the default backend and taint
    /// whatever comparison the caller was running.
    pub fn from_env() -> Option<Self> {
        Some(Self::from_env_value(
            &std::env::var("MERCURY_EXECUTOR").ok()?,
        ))
    }

    /// Resolves one `MERCURY_EXECUTOR` value, panicking on invalid specs
    /// (see [`from_env`](Self::from_env)). Split out so the failure mode
    /// is testable without mutating the process environment.
    fn from_env_value(value: &str) -> Self {
        match Self::parse(value) {
            Ok(kind) => kind,
            Err(e) => panic!("MERCURY_EXECUTOR: {e}"),
        }
    }

    /// [`from_env`](Self::from_env) with a fallback for *unset* — the
    /// idiom config defaults use. An invalid value still fails loudly;
    /// only absence selects the fallback.
    pub fn from_env_or(fallback: Self) -> Self {
        Self::from_env().unwrap_or(fallback)
    }
}

/// Snapshot of one executor handle's dispatch counters (see
/// [`Executor::pool_stats`]) — the observability hook the
/// assertion-backed CI smoke test uses to prove the threaded test leg
/// really exercises the pool rather than the inline short-circuit.
///
/// The counters are **per handle**: a handle and its clones share them,
/// while another handle on the same pool (see
/// [Pool lifecycle](self#pool-lifecycle)) counts its own regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured pool width (caller + parked workers).
    pub threads: usize,
    /// Regions actually handed to the worker pool.
    pub regions_dispatched: u64,
    /// Regions that short-circuited to inline execution (too little
    /// work, fewer than two items, or dispatched from inside another
    /// region).
    pub regions_inlined: u64,
    /// Dispatched regions that ended in a panic (on the caller or a
    /// recruited worker). The panic is re-raised on the dispatching
    /// thread after the region drains; the pool itself survives — its
    /// workers park and serve the next region — so this counter rising
    /// while `threads` stays constant is the expected fault signature,
    /// and a shrinking pool would show up as dispatch counters stalling.
    pub regions_panicked: u64,
}

/// A runnable execution backend: serial, or a handle to a persistent
/// worker pool of a fixed width. Same-width handles built on one thread
/// share that thread's pool, and **cloning shares the pool** and the
/// handle's dispatch counters — the clone schedules onto the same parked
/// workers. The workers are joined when the pool's last handle drops
/// (see [Pool lifecycle](self#pool-lifecycle)).
///
/// Both scheduling methods, [`map`](Self::map) and
/// [`map_indexed`](Self::map_indexed), return results in **item order**,
/// regardless of which worker ran which item; callers get determinism for
/// free as long as the items themselves are independent.
#[derive(Debug, Clone, Default)]
pub struct Executor {
    backend: Backend,
    /// The dispatch knob set this executor gates regions with, fixed at
    /// construction. Clones carry the same values, so every owner of a
    /// clone sizes its work hints in the same units the dispatch gate
    /// compares against.
    tuning: DispatchTuning,
}

#[derive(Debug, Clone, Default)]
enum Backend {
    #[default]
    Serial,
    /// The pool of this width that the building thread shares, and this
    /// handle's counters (shared by its clones only).
    Pool(Arc<pool::WorkerPool>, Arc<Counters>),
}

/// One handle's dispatch counters, read out as [`PoolStats`].
#[derive(Debug, Default)]
struct Counters {
    dispatched: AtomicU64,
    inlined: AtomicU64,
    panicked: AtomicU64,
}

impl Executor {
    /// The serial backend, with the default [`DispatchTuning`].
    pub fn serial() -> Self {
        Executor::serial_tuned(DispatchTuning::default())
    }

    /// The serial backend with explicit tuning. Serial scheduling itself
    /// ignores the dispatch knobs, but engines still read
    /// [`tuning`](Self::tuning) back for their work-hint units, so the
    /// serial reference in an A/B comparison should carry the same
    /// values as the pool it is compared against.
    pub fn serial_tuned(tuning: DispatchTuning) -> Self {
        Executor {
            backend: Backend::Serial,
            tuning,
        }
    }

    /// A threaded backend with an explicit worker count (`0` = the
    /// available parallelism, `1` collapses to serial) and the default
    /// [`DispatchTuning`]: a handle to the live pool of that width the
    /// calling thread already built, or to a new one (see
    /// [Pool lifecycle](self#pool-lifecycle)). A pool's threads are
    /// spawned lazily at its first dispatched region, then parked between
    /// regions.
    pub fn threaded(threads: usize) -> Self {
        Executor::threaded_tuned(threads, DispatchTuning::default())
    }

    /// [`threaded`](Self::threaded) with explicit tuning, for tests that
    /// pin a tuning point. Tuning and counters are the handle's own, so
    /// handles of different tunings still share the thread's pool.
    pub fn threaded_tuned(threads: usize, tuning: DispatchTuning) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            threads
        };
        if threads <= 1 {
            return Executor::serial_tuned(tuning);
        }
        Executor {
            backend: Backend::Pool(pool::WorkerPool::shared(threads), Arc::default()),
            tuning,
        }
    }

    /// Resolves a configuration-level [`ExecutorKind`] into a backend. A
    /// threaded kind returns a handle to the calling thread's live pool of
    /// that width, if it has one, so owners that resolve an executor per
    /// engine still share one pool per thread.
    pub fn from_kind(kind: ExecutorKind) -> Self {
        match kind {
            ExecutorKind::Serial => Executor::serial(),
            ExecutorKind::Threaded { threads } => Executor::threaded(threads),
        }
    }

    /// The dispatch tuning this executor was constructed with. The conv
    /// engine uses this to size its channel hints (dense work plus probe
    /// costs) in the same units the dispatch gate compares against.
    pub fn tuning(&self) -> DispatchTuning {
        self.tuning
    }

    /// Worker count (1 for the serial backend).
    pub fn threads(&self) -> usize {
        match &self.backend {
            Backend::Serial => 1,
            Backend::Pool(pool, _) => pool.width(),
        }
    }

    /// Whether this backend ever runs items off the calling thread.
    pub fn is_parallel(&self) -> bool {
        matches!(&self.backend, Backend::Pool(..))
    }

    /// Dispatch counters of this handle (`None` for the serial backend):
    /// the regions this handle and its clones ran, not those of other
    /// handles on the same pool.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        match &self.backend {
            Backend::Serial => None,
            Backend::Pool(pool, counters) => Some(PoolStats {
                threads: pool.width(),
                regions_dispatched: counters.dispatched.load(Ordering::Relaxed),
                regions_inlined: counters.inlined.load(Ordering::Relaxed),
                regions_panicked: counters.panicked.load(Ordering::Relaxed),
            }),
        }
    }

    /// Runs `f(0..n)`, returning the results in index order: [`map`]
    /// over the indices, each hinted as chunky enough to clear any
    /// dispatch floor, so on a pool every region of two or more items
    /// dispatches (unless nested).
    ///
    /// [`map`]: Self::map
    pub fn map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.map(0..n, |_| usize::MAX, || (), |i, ()| f(i))
    }

    /// The scheduling primitive: consumes `items`, runs `f(item,
    /// scratch)` for each and returns the results in item order, however
    /// the items were scheduled. `work(&item)` is the item's work hint
    /// (roughly scalar FLOPs; `0` = no work) for the dispatch gate in the
    /// [module docs](self). Items are claimed dynamically and move into
    /// whichever runner claims them, so uneven items balance and disjoint
    /// `&mut` borrows fan out safely.
    ///
    /// Each runner builds one scratch `S` with `init` the first time it
    /// claims an item and reuses it for every later item it claims: an
    /// inline region builds at most one, a pooled region at most one per
    /// runner, and a runner that finds the items drained builds none.
    ///
    /// On the serial backend this is the plain in-order loop: hints are
    /// never evaluated and nothing beyond the result vector is allocated.
    pub fn map<T, S, R, W, I, F>(
        &self,
        items: impl IntoIterator<Item = T>,
        work: W,
        init: I,
        f: F,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
        W: Fn(&T) -> usize,
        I: Fn() -> S + Sync,
        F: Fn(T, &mut S) -> R + Sync,
    {
        let (pool, counters) = match &self.backend {
            Backend::Serial => return run_inline(items, &init, &f),
            Backend::Pool(pool, counters) => (pool, counters),
        };
        let items: Vec<T> = items.into_iter().collect();
        let (busy, total) = items.iter().fold((0usize, 0usize), |(busy, total), item| {
            let w = work(item);
            (busy + usize::from(w > 0), total.saturating_add(w))
        });
        // The one dispatch gate (module docs); two busy items imply n ≥ 2.
        if busy < 2 || total < self.tuning.dispatch_min_work || pool::in_region() {
            counters.inlined.fetch_add(1, Ordering::Relaxed);
            return run_inline(items, &init, &f);
        }
        let n = items.len();
        let cursor = AtomicUsize::new(0);
        let items = pool::ItemSlots::new(items);
        let results = pool::ResultSlots::new(n);
        counters.dispatched.fetch_add(1, Ordering::Relaxed);
        let region = pool.run_region(busy, &|| {
            let mut scratch: Option<S> = None;
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                results.put(i, f(items.take(i), scratch.get_or_insert_with(&init)));
            }
        });
        if let Err(payload) = region {
            counters.panicked.fetch_add(1, Ordering::Relaxed);
            resume_unwind(payload);
        }
        results.collect()
    }
}

/// The inline region: every item in order on the calling thread, with
/// one scratch built at the first item.
fn run_inline<T, S, R>(
    items: impl IntoIterator<Item = T>,
    init: &impl Fn() -> S,
    f: &impl Fn(T, &mut S) -> R,
) -> Vec<R> {
    let mut scratch: Option<S> = None;
    items
        .into_iter()
        .map(|item| f(item, scratch.get_or_insert_with(init)))
        .collect()
}

/// The persistent worker pool and the pointer-erased region handoff.
///
/// Each thread keeps `Weak` references to the pools it built, so
/// same-width handles share one while it lives. Workers are spawned once
/// (lazily) and parked on a condvar; each parallel region publishes a
/// borrowed runner closure, bumps an epoch, wakes the workers it
/// recruits, and blocks until every recruit checks back in. The pointer
/// erasure and the disjoint-index result slots are the two places this
/// crate needs `unsafe` — both are confined to this module, with the
/// invariants documented at each site (this is the same technique
/// `std::thread::scope` itself builds on, minus the per-region spawn this
/// pool exists to avoid).
#[allow(unsafe_code)]
mod pool {
    use std::cell::{Cell, RefCell, UnsafeCell};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};

    thread_local! {
        /// How many region runners are live on this thread. Non-zero on a
        /// pool worker mid-job and on a dispatching caller while it runs
        /// its own share of a region; any inner region started then must
        /// execute inline (see [`super::Executor::map`]).
        static REGION_DEPTH: Cell<usize> = const { Cell::new(0) };

        /// The pools this thread built. `Weak`, so a pool still joins its
        /// workers when its last handle drops.
        static BUILT_POOLS: RefCell<Vec<Weak<WorkerPool>>> = const { RefCell::new(Vec::new()) };
    }

    /// Whether the current thread is already executing region items.
    pub(super) fn in_region() -> bool {
        REGION_DEPTH.with(|d| d.get()) > 0
    }

    /// RAII region-depth bump, so the counter unwinds correctly when a
    /// runner panics.
    struct DepthGuard;

    impl DepthGuard {
        fn enter() -> Self {
            REGION_DEPTH.with(|d| d.set(d.get() + 1));
            DepthGuard
        }
    }

    impl Drop for DepthGuard {
        fn drop(&mut self) {
            REGION_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }

    /// A pointer-erased borrow of one region's runner closure. The
    /// dispatcher publishes it under the state lock and does not return
    /// from [`WorkerPool::run_region`] until every recruited worker has
    /// checked back in, so the pointee outlives every dereference.
    #[derive(Clone, Copy)]
    struct Job(*const (dyn Fn() + Sync));

    // SAFETY: the pointee is a `Sync` closure borrowed from the
    // dispatching thread's stack; `run_region` keeps that frame alive
    // (it blocks until `active == 0`) for as long as any worker can hold
    // this pointer, and `&(dyn Fn() + Sync)` is safe to share across
    // threads by definition.
    unsafe impl Send for Job {}

    impl Job {
        /// Runs the region closure.
        ///
        /// # Safety
        ///
        /// Must only be called between this job's publication and the
        /// dispatcher's `active == 0` handshake (the worker loop's
        /// protocol), while the dispatcher is still blocked in
        /// `run_region`.
        unsafe fn run(self) {
            // SAFETY: see above — the dispatcher's frame (and therefore
            // the closure and everything it borrows) is alive.
            unsafe { (*self.0)() }
        }
    }

    struct PoolState {
        /// Bumped once per dispatched region; workers use it to tell a
        /// fresh region from a spurious wakeup.
        epoch: u64,
        /// The current region's runner; `Some` exactly while a region is
        /// in flight.
        job: Option<Job>,
        /// Workers that may still join the current region (capped at
        /// `items - 1` so small regions recruit few workers).
        recruits_left: usize,
        /// Recruited workers that have not yet finished the region.
        active: usize,
        /// First panic payload raised by a worker this region.
        panic: Option<Box<dyn std::any::Any + Send>>,
        shutdown: bool,
    }

    struct SharedState {
        state: Mutex<PoolState>,
        /// Workers park here between regions.
        work_cv: Condvar,
        /// The dispatcher parks here until `active == 0`.
        done_cv: Condvar,
    }

    /// The threads and handoff state of one pool, created on the first
    /// dispatched region.
    struct PoolCore {
        shared: Arc<SharedState>,
        /// Serializes dispatchers: one region in flight per pool. Held
        /// across the whole region, so a second thread dispatching
        /// through a handle moved to it simply queues behind the first
        /// (workers never take this lock). Hence the module's rule: a
        /// region item must not block on another handle's dispatch.
        region_lock: Mutex<()>,
        workers: Vec<std::thread::JoinHandle<()>>,
    }

    /// A persistent pool of `width - 1` parked worker threads (the
    /// dispatching caller is always the `width`-th runner).
    pub(super) struct WorkerPool {
        width: usize,
        core: OnceLock<PoolCore>,
    }

    impl std::fmt::Debug for WorkerPool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("WorkerPool")
                .field("width", &self.width)
                .field("spawned", &self.core.get().is_some())
                .finish_non_exhaustive()
        }
    }

    impl WorkerPool {
        /// The live pool of `width` (`>= 2`) this thread built, or a new
        /// one whose threads spawn lazily.
        pub(super) fn shared(width: usize) -> Arc<WorkerPool> {
            debug_assert!(width >= 2, "width-1 pools are the serial backend");
            BUILT_POOLS.with_borrow_mut(|built| {
                built.retain(|pool| pool.strong_count() > 0);
                let live = built
                    .iter()
                    .filter_map(Weak::upgrade)
                    .find(|pool| pool.width == width);
                live.unwrap_or_else(|| {
                    let pool = Arc::new(WorkerPool {
                        width,
                        core: OnceLock::new(),
                    });
                    built.push(Arc::downgrade(&pool));
                    pool
                })
            })
        }

        pub(super) fn width(&self) -> usize {
            self.width
        }

        /// Runs one parallel region of `items` work items: publishes
        /// `runner` to the parked workers, recruits at most `items - 1`
        /// of them, runs `runner` on the calling thread too, and blocks
        /// until every recruit has finished. A panic — the caller's
        /// first, else a worker's — comes back as the `Err` only after
        /// the region fully drains (so borrowed region state is never
        /// freed under a live worker), for the caller to re-raise.
        pub(super) fn run_region(
            &self,
            items: usize,
            runner: &(dyn Fn() + Sync),
        ) -> std::thread::Result<()> {
            let core = self
                .core
                .get_or_init(|| PoolCore::spawn(self.width - 1, self.width));
            let region_guard = core
                .region_lock
                .lock()
                .expect("a pool dispatcher never panics while holding the region lock");
            let recruits = core.workers.len().min(items.saturating_sub(1));
            {
                let mut state = core.shared.state.lock().unwrap();
                // SAFETY: pure lifetime erasure on a wide pointer (same
                // layout); validity across threads is enforced by the
                // region protocol documented on `Job`.
                let erased: *const (dyn Fn() + Sync) =
                    unsafe { std::mem::transmute(runner as *const (dyn Fn() + Sync + '_)) };
                state.job = Some(Job(erased));
                state.epoch += 1;
                state.recruits_left = recruits;
                state.active = recruits;
                if recruits == core.workers.len() {
                    core.shared.work_cv.notify_all();
                } else {
                    for _ in 0..recruits {
                        core.shared.work_cv.notify_one();
                    }
                }
            }
            let caller_result = {
                let _depth = DepthGuard::enter();
                catch_unwind(AssertUnwindSafe(runner))
            };
            let worker_panic = {
                let mut state = core.shared.state.lock().unwrap();
                while state.active > 0 {
                    state = core.shared.done_cv.wait(state).unwrap();
                }
                state.job = None;
                state.panic.take()
            };
            drop(region_guard);
            caller_result?;
            worker_panic.map_or(Ok(()), Err)
        }
    }

    impl Drop for WorkerPool {
        fn drop(&mut self) {
            let Some(core) = self.core.take() else {
                return; // never dispatched — no threads to join
            };
            {
                let mut state = core.shared.state.lock().unwrap();
                state.shutdown = true;
                core.shared.work_cv.notify_all();
            }
            for handle in core.workers {
                handle
                    .join()
                    .expect("pool worker exits cleanly on shutdown");
            }
        }
    }

    impl PoolCore {
        fn spawn(worker_count: usize, width: usize) -> PoolCore {
            let shared = Arc::new(SharedState {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    job: None,
                    recruits_left: 0,
                    active: 0,
                    panic: None,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            });
            let workers = (0..worker_count)
                .map(|i| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("mercury-exec-{width}w-{i}"))
                        .spawn(move || worker_loop(&shared))
                        .expect("spawn pool worker")
                })
                .collect();
            PoolCore {
                shared,
                region_lock: Mutex::new(()),
                workers,
            }
        }
    }

    /// The parked-worker protocol: wait for a fresh epoch, join its
    /// region if recruitment is still open, run the published job, check
    /// back in. A worker that wakes after recruitment closed just records
    /// the epoch and parks again.
    fn worker_loop(shared: &SharedState) {
        let mut seen_epoch = 0u64;
        loop {
            let job = {
                let mut state = shared.state.lock().unwrap();
                loop {
                    if state.shutdown {
                        return;
                    }
                    if state.epoch != seen_epoch {
                        seen_epoch = state.epoch;
                        if state.recruits_left > 0 {
                            state.recruits_left -= 1;
                            // `job` is `Some` whenever recruitment is
                            // open: the dispatcher clears it only after
                            // every recruit finished.
                            break state.job.expect("open region publishes a job");
                        }
                        // Region already fully recruited — park again.
                    }
                    state = shared.work_cv.wait(state).unwrap();
                }
            };
            let result = {
                let _depth = DepthGuard::enter();
                // SAFETY: this thread was recruited for the current
                // region under the state lock, so the dispatcher is
                // blocked in `run_region` until this thread decrements
                // `active` below — the closure and its borrows are alive.
                catch_unwind(AssertUnwindSafe(|| unsafe { job.run() }))
            };
            let mut state = shared.state.lock().unwrap();
            if let Err(payload) = result {
                state.panic.get_or_insert(payload);
            }
            state.active -= 1;
            if state.active == 0 {
                shared.done_cv.notify_all();
            }
        }
    }

    /// Result landing zone for one region: `n` disjoint slots, each
    /// written by exactly the runner that claimed its index.
    pub(super) struct ResultSlots<R> {
        slots: Vec<UnsafeCell<Option<R>>>,
    }

    // SAFETY: slot `i` is written only by the single runner that claimed
    // index `i` from the region's atomic cursor (`fetch_add` yields each
    // index exactly once), and only read after the region's completion
    // handshake (a lock acquire/release pair orders the writes before
    // the reads). `R: Send` moves the values across threads.
    unsafe impl<R: Send> Sync for ResultSlots<R> {}

    impl<R> ResultSlots<R> {
        pub(super) fn new(n: usize) -> Self {
            ResultSlots {
                slots: (0..n).map(|_| UnsafeCell::new(None)).collect(),
            }
        }

        /// Stores the result for claimed index `i`.
        pub(super) fn put(&self, i: usize, value: R) {
            // SAFETY: `i` was claimed from the region cursor by exactly
            // one runner (see the `Sync` impl), so no other thread holds
            // a reference into this slot.
            unsafe { *self.slots[i].get() = Some(value) };
        }

        /// Unwraps every slot in index order. Call only after the region
        /// completed without panicking.
        pub(super) fn collect(self) -> Vec<R> {
            self.slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("every index computed exactly once")
                })
                .collect()
        }
    }

    /// Owned work items for `Executor::map`: each is moved out by exactly
    /// the runner that claimed its index.
    pub(super) struct ItemSlots<T> {
        slots: Vec<UnsafeCell<Option<T>>>,
    }

    // SAFETY: same disjoint-claim argument as [`ResultSlots`]; item `i`
    // is taken once by the runner that claimed index `i`.
    unsafe impl<T: Send> Sync for ItemSlots<T> {}

    impl<T> ItemSlots<T> {
        pub(super) fn new(items: Vec<T>) -> Self {
            ItemSlots {
                slots: items
                    .into_iter()
                    .map(|t| UnsafeCell::new(Some(t)))
                    .collect(),
            }
        }

        /// Moves item `i` out to the runner that claimed it.
        pub(super) fn take(&self, i: usize) -> T {
            // SAFETY: `i` was claimed from the region cursor by exactly
            // one runner, so this is the only access to the slot.
            unsafe { (*self.slots[i].get()).take() }.expect("every item consumed exactly once")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// The threads other than the caller that ran items of one region on
    /// `exec`. Each item sleeps about 2 ms, so the parked workers provably
    /// wake and claim some.
    fn worker_ids(exec: &Executor) -> HashSet<ThreadId> {
        let ran = Mutex::new(HashSet::new());
        exec.map_indexed(16, |_| {
            ran.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(Duration::from_millis(2));
        });
        let mut workers = ran.into_inner().unwrap();
        workers.remove(&std::thread::current().id());
        assert!(!workers.is_empty(), "no worker claimed an item");
        workers
    }

    #[test]
    fn same_width_handles_on_one_thread_share_workers() {
        let a = Executor::threaded(2);
        let b = Executor::threaded(2);
        assert_eq!(
            worker_ids(&a),
            worker_ids(&b),
            "the second handle joined the first handle's pool"
        );
    }

    #[test]
    fn a_pool_is_joined_with_its_last_handle() {
        let a = Executor::threaded(2);
        let b = Executor::threaded(2);
        let old = worker_ids(&a);
        drop((a, b));
        // A `ThreadId` is never reused, so disjoint ids mean new workers.
        let fresh = worker_ids(&Executor::threaded(2));
        assert!(old.is_disjoint(&fresh), "{old:?} vs {fresh:?}");
    }

    #[test]
    fn other_threads_build_their_own_pools() {
        let here = Executor::threaded(2);
        let ours = worker_ids(&here);
        let (moved, built_there) = std::thread::scope(|s| {
            s.spawn(|| (worker_ids(&here), worker_ids(&Executor::threaded(2))))
                .join()
                .unwrap()
        });
        assert_eq!(
            moved, ours,
            "a handle used from another thread keeps its pool"
        );
        assert!(
            ours.is_disjoint(&built_there),
            "a handle built on another thread got workers of its own"
        );
    }

    #[test]
    fn dispatch_counters_are_per_handle() {
        let a = Executor::threaded(2);
        let b = Executor::threaded(2);
        let before = b.pool_stats();
        a.map_indexed(4, |i| i);
        a.map(0..4usize, |_| 1, || (), |i, ()| i);
        assert_eq!(b.pool_stats(), before, "a's regions are not b's");
        let stats = a.clone().pool_stats().unwrap();
        assert_eq!((stats.regions_dispatched, stats.regions_inlined), (1, 1));
    }

    #[test]
    fn parse_accepts_the_documented_spellings() {
        assert_eq!(ExecutorKind::parse("serial"), Ok(ExecutorKind::Serial));
        assert_eq!(ExecutorKind::parse(" Serial "), Ok(ExecutorKind::Serial));
        assert_eq!(
            ExecutorKind::parse("threaded"),
            Ok(ExecutorKind::Threaded { threads: 0 })
        );
        assert_eq!(
            ExecutorKind::parse("auto"),
            Ok(ExecutorKind::threaded_auto())
        );
        assert_eq!(
            ExecutorKind::parse("threaded:8"),
            Ok(ExecutorKind::Threaded { threads: 8 })
        );
        assert_eq!(
            ExecutorKind::parse("4"),
            Ok(ExecutorKind::Threaded { threads: 4 })
        );
        // One thread is the serial backend by definition.
        assert_eq!(ExecutorKind::parse("1"), Ok(ExecutorKind::Serial));
        assert_eq!(ExecutorKind::parse("threaded:1"), Ok(ExecutorKind::Serial));
    }

    #[test]
    fn parse_rejections_list_the_accepted_forms() {
        for bad in ["warp-speed", "", "thredded", "threaded:", "threaded:x"] {
            let err = ExecutorKind::parse(bad).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("serial"), "{bad:?} -> {msg}");
            assert!(msg.contains("threaded:<n>"), "{bad:?} -> {msg}");
            assert!(msg.contains("auto"), "{bad:?} -> {msg}");
        }
        // The spec echoes back trimmed, so the operator sees what was read.
        assert!(ExecutorKind::parse(" thredded ")
            .unwrap_err()
            .to_string()
            .contains("\"thredded\""));
    }

    #[test]
    #[should_panic(expected = "accepted forms")]
    fn invalid_env_value_fails_loudly_not_silently() {
        // A typo'd MERCURY_EXECUTOR must abort, never silently select the
        // fallback backend.
        let _ = ExecutorKind::from_env_value("thredded");
    }

    #[test]
    fn resolution_rules() {
        assert_eq!(Executor::from_kind(ExecutorKind::Serial).threads(), 1);
        assert!(!Executor::serial().is_parallel());
        assert!(Executor::serial().pool_stats().is_none());
        let auto = Executor::from_kind(ExecutorKind::threaded_auto());
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        assert_eq!(
            auto.threads(),
            cores,
            "auto-sizing follows the machine (serial on one core)"
        );
        assert_eq!(
            Executor::from_kind(ExecutorKind::Threaded { threads: 3 }).threads(),
            3
        );
    }

    #[test]
    fn clones_share_one_pool() {
        let exec = Executor::threaded(4);
        let clone = exec.clone();
        let before = exec.pool_stats().unwrap().regions_dispatched;
        let out = clone.map_indexed(16, |i| i + 1);
        assert_eq!(out, (1..17).collect::<Vec<_>>());
        assert_eq!(
            exec.pool_stats().unwrap().regions_dispatched,
            before + 1,
            "the clone dispatched onto the original's pool"
        );
    }

    #[test]
    fn map_indexed_matches_serial_for_every_width() {
        let want: Vec<usize> = (0..37).map(|i| i * i + 1).collect();
        for threads in [1, 2, 3, 8] {
            let exec = Executor::threaded(threads);
            assert_eq!(
                exec.map_indexed(37, |i| i * i + 1),
                want,
                "{threads} threads"
            );
        }
        assert_eq!(
            Executor::serial().map_indexed(0, |i| i),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn one_pool_serves_many_regions() {
        // The same pool instance runs many back-to-back regions of mixed
        // primitives — the lifecycle the long-lived owners rely on.
        let exec = Executor::threaded(4);
        for round in 0..50usize {
            let n = 1 + (round * 7) % 23;
            let a = exec.map_indexed(n, |i| i * round);
            assert_eq!(a, (0..n).map(|i| i * round).collect::<Vec<_>>());
            let b = exec.map(0..n, |_| usize::MAX, || (), |item, ()| 2 * item);
            assert_eq!(b, (0..n).map(|i| 2 * i).collect::<Vec<_>>());
        }
        let stats = exec.pool_stats().unwrap();
        assert!(stats.regions_dispatched > 0);
    }

    #[test]
    fn map_with_reuses_scratch_and_keeps_order() {
        // Scratch is per runner and reused across the items it claims:
        // each scratch reads 1 at its first item only, so the items that
        // saw 1 count the scratches built — at most one per runner.
        // Results still land in index order.
        for threads in [1, 2, 8] {
            let exec = Executor::threaded(threads);
            let out = exec.map(
                0..20usize,
                |_| usize::MAX,
                || 0usize,
                |i, seen| {
                    *seen += 1;
                    (i, *seen)
                },
            );
            let indices: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
            assert_eq!(indices, (0..20).collect::<Vec<_>>());
            let built = out.iter().filter(|&&(_, seen)| seen == 1).count();
            assert!((1..=threads).contains(&built), "{built} scratches");
        }
    }

    #[test]
    fn map_owned_moves_items_and_keeps_order() {
        for threads in [1, 2, 5] {
            let exec = Executor::threaded(threads);
            let items: Vec<String> = (0..11).map(|i| format!("item{i}")).collect();
            let out = exec.map(items, |_| usize::MAX, || (), |s, ()| format!("got:{s}"));
            for (i, s) in out.iter().enumerate() {
                assert_eq!(s, &format!("got:item{i}"));
            }
        }
    }

    #[test]
    fn heterogeneous_work_still_lands_in_order() {
        // Later items finish first under any real schedule; order must
        // come from the index, not completion time.
        let exec = Executor::threaded(4);
        let out = exec.map_indexed(16, |i| {
            if i < 2 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn tiny_sized_regions_short_circuit_inline() {
        let exec = Executor::threaded(4);
        let floor = exec.tuning().dispatch_min_work;
        let before = exec.pool_stats().unwrap();
        // 4 items of ~1 unit each: far below the dispatch floor.
        let out = exec.map(0..4usize, |_| 1, || (), |i, ()| i * 2);
        assert_eq!(out, vec![0, 2, 4, 6]);
        // A single item never dispatches either, whatever its size.
        let out = exec.map(0..1usize, |_| usize::MAX, || (), |i, ()| i);
        assert_eq!(out, vec![0]);
        let after = exec.pool_stats().unwrap();
        assert_eq!(after.regions_dispatched, before.regions_dispatched);
        assert_eq!(after.regions_inlined, before.regions_inlined + 2);
        // Enough hinted work flips the same shape over to the pool.
        let out = exec.map(0..4usize, |_| floor, || (), |i, ()| i * 2);
        assert_eq!(out, vec![0, 2, 4, 6]);
        assert_eq!(
            exec.pool_stats().unwrap().regions_dispatched,
            before.regions_dispatched + 1
        );
    }

    #[test]
    fn weighted_map_matches_serial_and_gates_on_busy_items() {
        // Results must match the serial backend for any hint vector.
        let floor = DispatchTuning::default().dispatch_min_work;
        let weights = [0usize, 5, 0, floor, 7, 0, usize::MAX];
        let weighted = |exec: &Executor| {
            exec.map(
                (0..weights.len()).zip(weights),
                |&(_, w)| w,
                || (),
                |(i, w), ()| (i * 100, w),
            )
        };
        let want = weighted(&Executor::serial());
        for threads in [2, 4] {
            assert_eq!(weighted(&Executor::threaded(threads)), want);
        }

        let exec = Executor::threaded(4);
        let before = exec.pool_stats().unwrap();
        // One hot item among empties: total is huge but only one item
        // carries work — a second thread could not help. Must inline.
        let skew = [usize::MAX, 0, 0, 0];
        let out = exec.map(
            [1usize, 2, 3, 4].into_iter().zip(skew),
            |&(_, w)| w,
            || (),
            |(v, _), ()| v * 2,
        );
        assert_eq!(out, vec![2, 4, 6, 8]);
        // Tiny totals inline too, even when spread across items.
        exec.map(vec![0usize; 4], |_| 1, || (), |v, ()| v);
        let mid = exec.pool_stats().unwrap();
        assert_eq!(mid.regions_dispatched, before.regions_dispatched);
        assert_eq!(mid.regions_inlined, before.regions_inlined + 2);
        // Two busy items over the threshold dispatch; saturating totals
        // (two usize::MAX items) must not wrap back below it.
        let hot = [usize::MAX, usize::MAX, 0, 0];
        let out = exec.map(
            [1usize, 2, 3, 4].into_iter().zip(hot),
            |&(_, w)| w,
            || (),
            |(v, _), ()| v + 1,
        );
        assert_eq!(out, vec![2, 3, 4, 5]);
        assert_eq!(
            exec.pool_stats().unwrap().regions_dispatched,
            before.regions_dispatched + 1
        );
    }

    #[test]
    fn nested_regions_run_inline_without_deadlock() {
        // An item of an outer region that opens an inner region on the
        // same pool must complete (inline), not deadlock waiting for the
        // workers it is itself occupying.
        let exec = Executor::threaded(2);
        let inner = exec.clone();
        let before = exec.pool_stats().unwrap();
        let out = exec.map_indexed(4, |i| {
            let inner_out = inner.map_indexed(8, move |j| i * 10 + j);
            inner_out.iter().sum::<usize>()
        });
        let want: Vec<usize> = (0..4).map(|i| (0..8).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, want);
        let after = exec.pool_stats().unwrap();
        assert_eq!(
            after.regions_dispatched,
            before.regions_dispatched + 1,
            "only the outer region dispatched"
        );
        assert_eq!(
            after.regions_inlined,
            before.regions_inlined + 4,
            "every inner region short-circuited inline"
        );
    }

    #[test]
    fn worker_panics_propagate_after_the_region_drains() {
        let exec = Executor::threaded(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.map_indexed(16, |i| {
                assert!(i != 11, "boom at {i}");
                i
            })
        }));
        assert!(result.is_err(), "the item panic must reach the caller");
        let stats = exec.pool_stats().unwrap();
        assert_eq!(stats.regions_panicked, 1, "the fault left an audit trail");
        // The pool survives a panicked region and serves the next one.
        assert_eq!(exec.map_indexed(8, |i| i), (0..8).collect::<Vec<_>>());
        let stats = exec.pool_stats().unwrap();
        assert_eq!(stats.threads, 4, "no worker died");
        assert_eq!(stats.regions_panicked, 1, "the clean region added nothing");
    }

    #[test]
    fn tuned_threshold_moves_the_dispatch_decision() {
        // The same region shape flips between inline and pooled purely by
        // the tuning the executor was constructed with.
        let lax = DispatchTuning {
            dispatch_min_work: 8,
            ..DispatchTuning::default()
        };
        let exec = Executor::threaded_tuned(4, lax);
        assert_eq!(exec.tuning(), lax);
        assert_eq!(
            exec.map(0..4usize, |_| 2, || (), |i, ()| i),
            vec![0, 1, 2, 3]
        );
        assert_eq!(
            exec.pool_stats().unwrap().regions_dispatched,
            1,
            "8 units of hinted work crossed the lax 8-unit threshold"
        );

        let strict = DispatchTuning {
            dispatch_min_work: usize::MAX,
            ..DispatchTuning::default()
        };
        let exec = Executor::threaded_tuned(4, strict);
        // The default executor dispatches this exact shape — see
        // `tiny_sized_regions_short_circuit_inline`.
        let floor = DispatchTuning::default().dispatch_min_work;
        let out = exec.map(0..4usize, |_| floor, || (), |i, ()| i * 2);
        assert_eq!(out, vec![0, 2, 4, 6]);
        let stats = exec.pool_stats().unwrap();
        assert_eq!(stats.regions_dispatched, 0, "strict threshold inlines it");
        assert_eq!(stats.regions_inlined, 1);

        // Uneven per-item hints read the same tuned threshold.
        let exec = Executor::threaded_tuned(4, lax);
        let out = exec.map(vec![1usize, 2], |&v| 4 * v - 2, || (), |v, ()| v);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(exec.pool_stats().unwrap().regions_dispatched, 1);
    }

    #[test]
    fn plain_variants_still_always_dispatch_under_extreme_tuning() {
        // `map_indexed` assumes chunky items; even a saturating threshold
        // must not flip it to inline (its saturating hint sum reaches the
        // threshold itself).
        let strict = DispatchTuning {
            dispatch_min_work: usize::MAX,
            ..DispatchTuning::default()
        };
        let exec = Executor::threaded_tuned(2, strict);
        assert_eq!(exec.map_indexed(4, |i| i), vec![0, 1, 2, 3]);
        assert_eq!(exec.pool_stats().unwrap().regions_dispatched, 1);
    }
}
