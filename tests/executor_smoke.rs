//! Assertion-backed smoke test that the threaded backend really drives
//! the **persistent worker pool** — not inline execution of every region,
//! and not a silent collapse to serial.
//!
//! CI's threaded test leg runs this with `MERCURY_EXPECT_POOL=1`, which
//! turns the "backend resolved to serial" escape hatch into a hard
//! failure: if the env-selected backend stops reaching the pool (a
//! dispatch regression, a parse regression, a 1-core runner), the
//! matrix leg goes red instead of silently testing serial twice. The same
//! test resolves the backend twice and fails if the two handles do not
//! share one pool, so engines that each resolve an executor cannot go
//! back to parking a private pool apiece.

use mercury_tensor::exec::{Executor, ExecutorKind};
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Duration;

/// Runs one deliberately chunky region, asserts it was dispatched to the
/// pool and executed by more than one thread, and returns the worker
/// threads (every runner but the caller) that took items.
fn assert_pool_engaged(exec: &Executor, label: &str) -> HashSet<ThreadId> {
    let before = exec
        .pool_stats()
        .unwrap_or_else(|| panic!("{label}: parallel backend must expose pool stats"));
    let threads = Mutex::new(HashSet::new());
    // Items sleep long enough that the parked workers provably wake and
    // claim some before the caller can drain the cursor alone.
    let out = exec.map_indexed(16, |i| {
        threads.lock().unwrap().insert(std::thread::current().id());
        std::thread::sleep(Duration::from_millis(2));
        i * 3
    });
    assert_eq!(out, (0..16).map(|i| i * 3).collect::<Vec<_>>(), "{label}");
    let after = exec.pool_stats().unwrap();
    assert!(
        after.regions_dispatched > before.regions_dispatched,
        "{label}: the region must dispatch to the pool, not inline \
         (dispatched {} -> {}, inlined {} -> {})",
        before.regions_dispatched,
        after.regions_dispatched,
        before.regions_inlined,
        after.regions_inlined,
    );
    let mut workers = threads.into_inner().unwrap();
    let distinct = workers.len();
    assert!(
        distinct > 1,
        "{label}: items all ran on one thread ({distinct}) — workers never woke"
    );
    workers.remove(&std::thread::current().id());
    workers
}

#[test]
fn env_selected_backend_engages_pool() {
    let kind = ExecutorKind::from_env_or(ExecutorKind::Serial);
    let exec = Executor::from_kind(kind);
    if !exec.is_parallel() {
        assert!(
            std::env::var("MERCURY_EXPECT_POOL").is_err(),
            "MERCURY_EXPECT_POOL is set but {kind:?} resolved to the serial backend \
             (available_parallelism = {:?}); the threaded CI leg is not exercising the pool",
            std::thread::available_parallelism(),
        );
        eprintln!("skipping pool assertions: {kind:?} resolves to serial here");
        return;
    }
    let workers = assert_pool_engaged(&exec, "env-selected backend");
    // A second resolution on this thread joins the live pool: a pool per
    // resolution would run on threads disjoint from the first's.
    let again = assert_pool_engaged(&Executor::from_kind(kind), "second resolution");
    assert!(
        !workers.is_disjoint(&again),
        "two resolutions of {kind:?} on one thread ran on disjoint workers \
         ({workers:?} vs {again:?}): each built a private pool"
    );
}

#[test]
fn pinned_pool_engages_everywhere() {
    // Independent of the environment and the core count: an explicit
    // width forces a pool even on a 1-core box.
    assert_pool_engaged(&Executor::threaded(4), "threaded:4");
}

#[test]
fn panicked_regions_are_counted_and_the_pool_stays_live() {
    // A panicking region must (1) surface the panic to the caller, (2)
    // increment `regions_panicked` so a chaos run's pool accounting is
    // auditable, and (3) leave every worker alive — a silently shrinking
    // pool after a fault is a hard failure, not a perf footnote.
    let exec = Executor::threaded(4);
    assert_eq!(exec.pool_stats().unwrap().regions_panicked, 0);
    for round in 1..=3u64 {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.map_indexed(16, |i| {
                assert!(i != 9, "injected region fault");
                i
            })
        }));
        assert!(
            result.is_err(),
            "round {round}: panic must reach the caller"
        );
        let stats = exec.pool_stats().unwrap();
        assert_eq!(stats.regions_panicked, round);
        assert_eq!(stats.threads, 4, "round {round}: pool width shrank");
    }
    // Liveness: the same pool still executes a clean multi-thread region.
    assert_pool_engaged(&exec, "post-panic liveness");
    assert_eq!(
        exec.pool_stats().unwrap().regions_panicked,
        3,
        "clean regions do not move the fault counter"
    );
}
