//! Property tests of the executor laws: scheduling never changes
//! results, and one rule decides where every region runs. The primitive
//! must agree with its serial loop for arbitrary shapes and pool widths.

use std::sync::atomic::{AtomicUsize, Ordering};

use mercury_tensor::exec::{Executor, ExecutorKind};
use proptest::prelude::*;

/// Runs one top-level region of `n` items on the pool `exec` and checks
/// it against the dispatch rule: it goes to the pool exactly when it has
/// two or more items. Either way results equal the serial loop in item
/// order, and scratch is built once inline and at most once per runner
/// when pooled.
fn check_region(exec: &Executor, n: usize, salt: u64) {
    let value = |i: usize| i as u64 ^ salt;
    let want: Vec<u64> = (0..n).map(value).collect();
    assert_eq!(Executor::serial().map(0..n, || (), |i, ()| value(i)), want);

    let dispatches = n >= 2;
    let builds = AtomicUsize::new(0);
    let before = exec.pool_stats().expect("threaded backend has a pool");
    let got = exec.map(
        0..n,
        || builds.fetch_add(1, Ordering::Relaxed),
        |i, _| value(i),
    );
    let after = exec.pool_stats().unwrap();
    assert_eq!(got, want, "n={n}");
    assert_eq!(
        (after.regions_dispatched, after.regions_inlined),
        (
            before.regions_dispatched + u64::from(dispatches),
            before.regions_inlined + u64::from(!dispatches)
        ),
        "n={n}"
    );
    let builds = builds.load(Ordering::Relaxed);
    if dispatches {
        let runners = exec.threads().min(n);
        assert!(
            (1..=runners).contains(&builds),
            "{builds} scratch builds for at most {runners} runners; n={n}"
        );
    } else {
        assert_eq!(builds, n.min(1), "inline builds one scratch; n={n}");
    }
}

/// The dispatch rule decides every region (see [`check_region`]) for
/// every item count in 0..41 on pools of widths 2 and 8, and
/// `map_indexed` follows it too.
#[test]
fn dispatch_rule_decides_every_region() {
    for threads in [2, 8] {
        let exec = Executor::threaded(threads);
        for n in 0..41 {
            let salt = (31 * n + threads) as u64;
            check_region(&exec, n, salt);

            let before = exec.pool_stats().unwrap();
            let indexed = exec.map_indexed(n, |i| i as u64 ^ salt);
            let after = exec.pool_stats().unwrap();
            assert_eq!(indexed, (0..n as u64).map(|i| i ^ salt).collect::<Vec<_>>());
            assert_eq!(
                after.regions_dispatched,
                before.regions_dispatched + u64::from(n >= 2),
                "map_indexed n={n} on {threads} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `map_indexed` returns f(0..n) in index order on any pool width.
    #[test]
    fn map_indexed_matches_serial(
        n in 0usize..80,
        threads in 1usize..9,
        salt in 0u64..1000,
    ) {
        let want: Vec<u64> = (0..n).map(|i| i as u64 ^ salt).collect();
        let got = Executor::threaded(threads).map_indexed(n, |i| i as u64 ^ salt);
        prop_assert_eq!(got, want);
    }

    /// `map` consumes owned items and returns results in item order.
    #[test]
    fn map_owned_preserves_item_order(
        n in 0usize..60,
        threads in 1usize..9,
    ) {
        let items: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        let got = Executor::threaded(threads).map(items, || (), |item, ()| {
            item.parse::<usize>().unwrap() * 3
        });
        prop_assert_eq!(got, (0..n).map(|i| i * 3).collect::<Vec<_>>());
    }

    /// One pool reused across a whole sequence of mixed regions — the
    /// lifecycle `MercurySession` and the model-sim runner rely on —
    /// agrees with the serial reference region by region, and the pool
    /// accounts for every region it saw (dispatched or inlined).
    #[test]
    fn pool_reuse_across_regions_matches_serial(
        threads in 2usize..9,
        sizes in proptest::collection::vec(0usize..40, 1..12),
        salt in 0u64..1000,
    ) {
        let exec = Executor::threaded(threads);
        for (round, &n) in sizes.iter().enumerate() {
            let round = round as u64;
            let want: Vec<u64> = (0..n).map(|i| (i as u64 + round) ^ salt).collect();
            let got = match round % 3 {
                0 => exec.map_indexed(n, |i| (i as u64 + round) ^ salt),
                1 => exec.map(0..n as u64, || (), |i, ()| (i + round) ^ salt),
                _ => exec.map(
                    (0..n as u64).collect::<Vec<_>>(),
                    || (),
                    |item, ()| (item + round) ^ salt,
                ),
            };
            prop_assert_eq!(got, want);
        }
        let stats = exec.pool_stats().expect("threaded backend has a pool");
        prop_assert_eq!(
            stats.regions_dispatched + stats.regions_inlined,
            sizes.len() as u64,
            "every region is accounted for exactly once"
        );
    }

    /// Kind parsing round-trips through resolution sensibly: parsed kinds
    /// always resolve, a serial kind is never parallel, and explicit
    /// widths survive.
    #[test]
    fn parsed_kinds_resolve(threads in 2usize..64) {
        let spec = format!("threaded:{threads}");
        let kind = ExecutorKind::parse(&spec).unwrap();
        prop_assert_eq!(Executor::from_kind(kind).threads(), threads);
        prop_assert_eq!(
            Executor::from_kind(ExecutorKind::parse("serial").unwrap()).threads(),
            1
        );
    }
}
