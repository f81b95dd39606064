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
//!   (lazily, at the first dispatched region) and each blocks on its own
//!   job channel between parallel regions, so a region dispatch costs a
//!   channel send and a wakeup (~µs), not a `thread::spawn` (~tens of
//!   µs). Callers only hand the executor work whose results are reduced
//!   in a deterministic order, so the threaded backend is
//!   **bit-identical** to serial for every
//!   engine, session, and simulator path (pinned by
//!   `tests/parallel_determinism.rs`).
//!
//! The backend is chosen per [`MercuryConfig`] via
//! `MercuryConfig::builder().executor(..)`; the `MERCURY_EXECUTOR`
//! environment variable (`serial`, `threaded`, `auto`, `threaded:<n>`, or
//! a bare thread count) overrides the default so whole test suites can be
//! re-run on either backend without source changes. An *invalid*
//! `MERCURY_EXECUTOR` value fails loudly (listing the accepted forms)
//! instead of silently falling back to the default.
//!
//! # Pool lifecycle
//!
//! A worker pool is a **per-thread resource**. [`Executor::threaded`]
//! (and so [`Executor::from_kind`]) returns a handle to the live pool of
//! that width the calling thread already built, and builds one only when
//! none is alive. The thread finds it through a list of `Weak`
//! references, so the list never keeps a pool alive. Every network, engine, session and simulator built on one
//! thread therefore schedules onto one set of idle workers per width,
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
//! One thing stays per handle: the dispatch counters of
//! [`Executor::pool_stats`], which count the regions of one handle and
//! its clones only.
//!
//! # Dispatch
//!
//! Every region goes through one primitive, [`Executor::map`]: owned
//! items, lazily built per-runner scratch, and results in item order
//! ([`Executor::map_indexed`] is its only convenience). A region's item
//! count decides where it runs:
//!
//! * on a pool, a region of two or more items dispatches, unless the
//!   calling thread is already executing items of an outer region;
//! * a one-item region, or a nested one, runs inline. Nested regions run
//!   inline so that a region item that opens a region of its own can
//!   never deadlock on its pool, and never oversubscribes the machine.
//!
//! A dispatched region recruits at most one worker fewer than it has
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
//! // A one-item region runs inline on the caller.
//! assert_eq!(pool.map(vec![3u64], || (), |x, ()| x * x), vec![9]);
//! let stats = pool.pool_stats().unwrap();
//! assert_eq!((stats.regions_dispatched, stats.regions_inlined), (1, 1));
//! ```

use std::error::Error;
use std::fmt;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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
    /// variable, or `fallback` when it is unset — the idiom config
    /// defaults use.
    ///
    /// # Panics
    ///
    /// Panics — listing the accepted forms — when the variable is set to
    /// an invalid spec. A typo'd `MERCURY_EXECUTOR=thredded` must abort
    /// the run, not silently fall back to the default backend and taint
    /// whatever comparison the caller was running.
    pub fn from_env_or(fallback: Self) -> Self {
        std::env::var("MERCURY_EXECUTOR").map_or(fallback, |value| Self::from_env_value(&value))
    }

    /// Resolves one `MERCURY_EXECUTOR` value, panicking on invalid specs
    /// (see [`from_env_or`](Self::from_env_or)). Split out so the failure
    /// mode is testable without mutating the process environment.
    fn from_env_value(value: &str) -> Self {
        match Self::parse(value) {
            Ok(kind) => kind,
            Err(e) => panic!("MERCURY_EXECUTOR: {e}"),
        }
    }
}

/// Snapshot of one executor handle's dispatch counters (see
/// [`Executor::pool_stats`]) — the observability hook the
/// assertion-backed CI smoke test uses to prove the threaded test leg
/// really exercises the pool rather than running every region inline.
///
/// The counters are **per handle**: a handle and its clones share them,
/// while another handle on the same pool (see
/// [Pool lifecycle](self#pool-lifecycle)) counts its own regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured pool width (caller + pool workers).
    pub threads: usize,
    /// Regions actually handed to the worker pool.
    pub regions_dispatched: u64,
    /// Regions that ran inline on the calling thread: those of fewer than
    /// two items, and those opened from inside another region.
    pub regions_inlined: u64,
    /// Dispatched regions that ended in a panic (on the caller or a
    /// recruited worker). The panic is re-raised on the dispatching
    /// thread after the region drains; the pool itself survives — its
    /// workers wait for and serve the next region — so this counter rising
    /// while `threads` stays constant is the expected fault signature,
    /// and a shrinking pool would show up as dispatch counters stalling.
    pub regions_panicked: u64,
}

/// A runnable execution backend: serial, or a handle to a persistent
/// worker pool of a fixed width. Same-width handles built on one thread
/// share that thread's pool, and **cloning shares the pool** and the
/// handle's dispatch counters — the clone schedules onto the same
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
    /// The serial backend.
    pub fn serial() -> Self {
        Executor::default()
    }

    /// [`serial`](Self::serial): an executor reads no [`DispatchTuning`].
    /// It stays because the extreme-tuning grid of
    /// `tests/parallel_determinism.rs` calls it.
    pub fn serial_tuned(_tuning: DispatchTuning) -> Self {
        Executor::serial()
    }

    /// A threaded backend with an explicit worker count (`0` = the
    /// available parallelism, `1` collapses to serial): a handle to the
    /// live pool of that width the calling thread already built, or to a
    /// new one (see [Pool lifecycle](self#pool-lifecycle)). A pool's
    /// threads are spawned lazily at its first dispatched region, then
    /// block on their job channels between regions.
    pub fn threaded(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            threads
        };
        if threads <= 1 {
            return Executor::serial();
        }
        Executor {
            backend: Backend::Pool(pool::WorkerPool::shared(threads), Arc::default()),
        }
    }

    /// [`threaded`](Self::threaded): an executor reads no
    /// [`DispatchTuning`]. It stays because the extreme-tuning grid of
    /// `tests/parallel_determinism.rs` calls it.
    pub fn threaded_tuned(threads: usize, _tuning: DispatchTuning) -> Self {
        Executor::threaded(threads)
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
    /// over the indices.
    ///
    /// [`map`]: Self::map
    pub fn map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.map(0..n, || (), |i, ()| f(i))
    }

    /// The scheduling primitive: consumes `items`, runs `f(item,
    /// scratch)` for each and returns the results in item order, however
    /// the items were scheduled. The item count decides where the region
    /// runs (see the [module docs](self)). Items are claimed dynamically
    /// and move into whichever runner claims them, so uneven items
    /// balance and disjoint `&mut` borrows fan out safely.
    ///
    /// Each runner builds one scratch `S` with `init` the first time it
    /// claims an item and reuses it for every later item it claims: an
    /// inline region builds at most one, a pooled region at most one per
    /// runner, and a runner that finds the items drained builds none.
    ///
    /// On the serial backend this is the plain in-order loop: nothing
    /// beyond the result vector is allocated.
    pub fn map<T, S, R, I, F>(&self, items: impl IntoIterator<Item = T>, init: I, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(T, &mut S) -> R + Sync,
    {
        let (pool, counters) = match &self.backend {
            Backend::Serial => return run_inline(items, &init, &f),
            Backend::Pool(pool, counters) => (pool, counters),
        };
        let items: Vec<T> = items.into_iter().collect();
        let n = items.len();
        // The one dispatch gate (module docs).
        if n < 2 || pool::in_region() {
            counters.inlined.fetch_add(1, Ordering::Relaxed);
            return run_inline(items, &init, &f);
        }
        // Slot `i` holds item `i`, then its result. Only the runner that
        // claimed `i` from the cursor ever locks it.
        let slots: Vec<Mutex<(Option<T>, Option<R>)>> = items
            .into_iter()
            .map(|item| Mutex::new((Some(item), None)))
            .collect();
        let cursor = AtomicUsize::new(0);
        counters.dispatched.fetch_add(1, Ordering::Relaxed);
        let region = pool.run_region(n, &|| {
            let mut scratch: Option<S> = None;
            while let Some(slot) = slots.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                let (item, result) = &mut *slot.lock().expect("only its claimer locks a slot");
                let item = item.take().expect("every item consumed exactly once");
                *result = Some(f(item, scratch.get_or_insert_with(&init)));
            }
        });
        if let Err(payload) = region {
            counters.panicked.fetch_add(1, Ordering::Relaxed);
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| {
                let (_, result) = slot
                    .into_inner()
                    .expect("no item of a returned region panicked");
                result.expect("every index computed exactly once")
            })
            .collect()
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
/// (lazily), and each blocks on its own job channel. A parallel region
/// sends a borrowed runner closure down the channels of the workers it
/// recruits and collects one ack per job sent. The erased closure
/// pointer is the one thing the executor needs `unsafe` for; the
/// invariants it rests on are documented at each site (this is the
/// technique `std::thread::scope` builds on, minus the per-region spawn
/// this pool exists to avoid).
#[allow(unsafe_code)]
mod pool {
    use std::cell::{Cell, RefCell};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::{Arc, Mutex, OnceLock, Weak};
    use std::thread::{self, JoinHandle};

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

    /// Runs `runner` as one region runner: the region depth is raised
    /// for its duration, and a panic comes back as the `Err`.
    fn run_guarded(runner: impl FnOnce()) -> thread::Result<()> {
        REGION_DEPTH.with(|d| d.set(d.get() + 1));
        let result = catch_unwind(AssertUnwindSafe(runner));
        REGION_DEPTH.with(|d| d.set(d.get() - 1));
        result
    }

    /// A pointer-erased borrow of one region's runner closure.
    struct Job(*const (dyn Fn() + Sync));

    // SAFETY: the pointee is a `Sync` closure borrowed from the
    // dispatching thread's stack, and `&(dyn Fn() + Sync)` is safe to
    // share across threads by definition. `run_region` keeps that frame
    // alive until it has received the ack of every job it sent, and a
    // worker acks a job only after its last use of the pointer.
    unsafe impl Send for Job {}

    impl Job {
        /// Runs the region closure.
        ///
        /// # Safety
        ///
        /// Must only be called by the worker this job was sent to, before
        /// it acks the job: the dispatcher is then still blocked in
        /// `run_region`, draining acks.
        unsafe fn run(self) {
            // SAFETY: see above — the dispatcher's frame (and therefore
            // the closure and everything it borrows) is alive.
            unsafe { (*self.0)() }
        }
    }

    /// The threads and channels of one pool, created on the first
    /// dispatched region.
    struct PoolCore {
        /// One job channel per worker. Only [`WorkerPool`]'s `Drop`
        /// closes them, and a worker's loop ends only then.
        jobs: Vec<Sender<Job>>,
        /// Every worker acks every job it runs here, with the job's
        /// outcome. The lock serializes dispatchers: one region in flight
        /// per pool. It is held across the whole region, so a second
        /// thread dispatching through a handle moved to it simply queues
        /// behind the first (workers never take it). Hence the module's
        /// rule: a region item must not block on another handle's
        /// dispatch.
        acks: Mutex<Receiver<thread::Result<()>>>,
        workers: Vec<JoinHandle<()>>,
    }

    /// A persistent pool of `width - 1` worker threads (the dispatching
    /// caller is always the `width`-th runner).
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

        /// Runs one parallel region of `items` work items: sends `runner`
        /// to at most `items - 1` workers, runs it on the calling thread
        /// too, and blocks until every worker it reached has acked. A
        /// panic — the caller's first, else a worker's — comes back as the
        /// `Err` only after the region fully drains (so borrowed region
        /// state is never freed under a live worker), for the caller to
        /// re-raise.
        pub(super) fn run_region(
            &self,
            items: usize,
            runner: &(dyn Fn() + Sync),
        ) -> thread::Result<()> {
            let core = self.core.get_or_init(|| PoolCore::spawn(self.width));
            let acks = core
                .acks
                .lock()
                .expect("a pool dispatcher never panics while holding the ack lock");
            // SAFETY: pure lifetime erasure on a wide pointer (same
            // layout). No job outlives this frame, and so the closure it
            // borrows, because two things hold:
            // - Nothing unwinds between the first send and the last ack.
            //   Sends are counted, not unwrapped: a send fails only if its
            //   worker is gone, and then that worker owes no ack. The
            //   caller's share runs under `catch_unwind`. Exactly the
            //   counted acks are drained, panics or not, before returning.
            // - A worker acks every job it is sent, after its last use of
            //   the pointer: its loop ends only when its job channel
            //   closes, which only `Drop` does, never while a region
            //   borrows the pool.
            let erased: *const (dyn Fn() + Sync) =
                unsafe { std::mem::transmute(runner as *const (dyn Fn() + Sync + '_)) };
            let recruits = core.jobs.len().min(items.saturating_sub(1));
            let sent = core.jobs[..recruits]
                .iter()
                .filter(|worker| worker.send(Job(erased)).is_ok())
                .count();
            let caller = run_guarded(runner);
            let mut worker_panic = None;
            for _ in 0..sent {
                // Each worker holds an ack sender until its loop ends, so
                // a `recv` error means no worker is left to run a job.
                if let Err(payload) = acks.recv().expect("a pool worker acks every job") {
                    worker_panic.get_or_insert(payload);
                }
            }
            caller?;
            worker_panic.map_or(Ok(()), Err)
        }
    }

    impl Drop for WorkerPool {
        fn drop(&mut self) {
            let Some(PoolCore { jobs, workers, .. }) = self.core.take() else {
                return; // never dispatched — no threads to join
            };
            // Closing the job channels ends every worker's loop.
            drop(jobs);
            for worker in workers {
                worker
                    .join()
                    .expect("pool worker exits cleanly on shutdown");
            }
        }
    }

    impl PoolCore {
        fn spawn(width: usize) -> PoolCore {
            let (ack, acks) = channel();
            let (jobs, workers) = (0..width - 1)
                .map(|i| {
                    let (job, jobs) = channel();
                    let ack = ack.clone();
                    let worker = thread::Builder::new()
                        .name(format!("mercury-exec-{width}w-{i}"))
                        .spawn(move || worker_loop(&jobs, &ack))
                        .expect("spawn pool worker");
                    (job, worker)
                })
                .unzip();
            PoolCore {
                jobs,
                acks: Mutex::new(acks),
                workers,
            }
        }
    }

    /// One worker: run each job it is sent, then ack it with the job's
    /// outcome. The loop ends only when the job channel closes.
    fn worker_loop(jobs: &Receiver<Job>, ack: &Sender<thread::Result<()>>) {
        for job in jobs {
            // SAFETY: the dispatcher that sent `job` is blocked in
            // `run_region` until it receives the ack below, so the closure
            // and its borrows are alive.
            let outcome = run_guarded(|| unsafe { job.run() });
            // The dispatcher holds the receiver until it has drained this
            // ack, so the send cannot fail.
            let _ = ack.send(outcome);
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
    /// `exec`. Each item sleeps about 2 ms, so the idle workers provably
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
        a.map(0..1usize, || (), |i, ()| i);
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
            let b = exec.map(0..n, || (), |item, ()| 2 * item);
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
            let out = exec.map(items, || (), |s, ()| format!("got:{s}"));
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
            "every inner region ran inline"
        );
    }

    #[test]
    fn a_panicking_region_returns_only_after_every_runner_finished() {
        // The panicking index alternates, so both the caller-side and the
        // worker-side panic paths run. Either way the region returns only
        // once the other runner's item is done: the job it ran borrows
        // this frame.
        let exec = Executor::threaded(2);
        for round in 0..20usize {
            let finished = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                exec.map_indexed(2, |i| {
                    assert!(i != round % 2, "boom in round {round}");
                    std::thread::sleep(Duration::from_millis(5));
                    finished.fetch_add(1, Ordering::SeqCst);
                })
            }));
            assert!(
                result.is_err(),
                "round {round}: the panic reached the caller"
            );
            assert_eq!(
                finished.load(Ordering::SeqCst),
                1,
                "round {round}: the region returned before the other item finished"
            );
        }
        assert_eq!(exec.pool_stats().unwrap().regions_panicked, 20);
    }

    #[test]
    fn two_threads_dispatching_on_one_pool_take_turns() {
        let exec = Executor::threaded(2);
        std::thread::scope(|s| {
            for t in 0..2usize {
                let exec = exec.clone();
                s.spawn(move || {
                    for round in 0..200usize {
                        let out = exec.map_indexed(8, |i| (t, round, i));
                        let want: Vec<_> = (0..8).map(|i| (t, round, i)).collect();
                        assert_eq!(out, want);
                    }
                });
            }
        });
        let stats = exec.pool_stats().unwrap();
        assert_eq!((stats.threads, stats.regions_dispatched), (2, 400));
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
}
