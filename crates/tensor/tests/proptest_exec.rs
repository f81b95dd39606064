//! Property tests of the executor laws: scheduling never changes
//! results, and one rule decides where every region runs. The primitive
//! must agree with its serial loop for arbitrary shapes, hints, tunings
//! and pool widths.

use std::sync::atomic::{AtomicUsize, Ordering};

use mercury_tensor::exec::{Executor, ExecutorKind};
use mercury_tensor::tune::DispatchTuning;
use proptest::prelude::*;

/// The three tunings the dispatch rule is checked under: the default
/// floor, a floor every busy pair clears, and one only saturating sums
/// reach.
fn tuning(index: usize) -> DispatchTuning {
    let dispatch_min_work = [DispatchTuning::default().dispatch_min_work, 1, usize::MAX][index];
    DispatchTuning {
        dispatch_min_work,
        ..DispatchTuning::default()
    }
}

/// Runs one top-level region with per-item `hints` on the pool `exec`
/// and checks it against the dispatch rule: it goes to the pool exactly
/// when at least two items carry work and the saturating hint sum
/// reaches the floor. Either way results equal the serial loop in item
/// order, and scratch is built once inline and at most once per runner
/// when pooled.
fn check_region(exec: &Executor, hints: &[usize], salt: u64) -> Result<(), TestCaseError> {
    let floor = exec.tuning().dispatch_min_work;
    let items: Vec<(usize, usize)> = hints.iter().copied().enumerate().collect();
    let value = |(i, h): (usize, usize)| (i as u64 ^ salt).wrapping_add(h as u64);
    let want: Vec<u64> = items.iter().copied().map(value).collect();

    // The serial backend is the plain loop: hints are never read.
    let serial = Executor::serial_tuned(exec.tuning()).map(
        items.clone(),
        |_| unreachable!("the serial backend never reads hints"),
        || (),
        |item, ()| value(item),
    );
    prop_assert_eq!(&serial, &want);

    let n = hints.len();
    let busy = hints.iter().filter(|&&h| h > 0).count();
    let total = hints.iter().fold(0usize, |acc, &h| acc.saturating_add(h));
    let dispatches = busy >= 2 && total >= floor;
    let builds = AtomicUsize::new(0);
    let before = exec.pool_stats().expect("threaded backend has a pool");
    let got = exec.map(
        items,
        |&(_, h)| h,
        || builds.fetch_add(1, Ordering::Relaxed),
        |item, _| value(item),
    );
    let after = exec.pool_stats().unwrap();
    prop_assert_eq!(&got, &want);
    let why = format!("n={n} busy={busy} total={total} floor={floor}");
    prop_assert_eq!(
        after.regions_dispatched,
        before.regions_dispatched + u64::from(dispatches),
        "{}",
        why
    );
    prop_assert_eq!(
        after.regions_inlined,
        before.regions_inlined + u64::from(!dispatches),
        "{}",
        why
    );
    let builds = builds.load(Ordering::Relaxed);
    if dispatches {
        let runners = exec.threads().min(busy);
        prop_assert!(
            (1..=runners).contains(&builds),
            "{} scratch builds for at most {} runners; {}",
            builds,
            runners,
            why
        );
    } else {
        prop_assert_eq!(builds, n.min(1), "inline builds one scratch; {}", why);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The dispatch rule decides every region (see [`check_region`]):
    /// for random hints, and for the edges random hints rarely reach —
    /// the empty and one-item regions, and regions whose only busy items
    /// are the first one or two. `map_indexed`, whose hints clear any
    /// floor, dispatches every region of two or more items.
    #[test]
    fn dispatch_rule_decides_every_region(
        hint_picks in proptest::collection::vec(0usize..5, 0..41),
        tuning_pick in 0usize..3,
        wide in 0usize..2,
        salt in 0u64..1000,
    ) {
        let exec = Executor::threaded_tuned([2, 8][wide], tuning(tuning_pick));
        let floor = exec.tuning().dispatch_min_work;
        let choices = [0, 1, floor - 1, floor, usize::MAX];
        let hints: Vec<usize> = hint_picks.iter().map(|&p| choices[p]).collect();
        check_region(&exec, &hints, salt)?;
        check_region(&exec, &hints[..0], salt)?;
        check_region(&exec, &hints[..hints.len().min(1)], salt)?;
        for keep in [1, 2] {
            let mut kept = 0;
            let sparse: Vec<usize> = hints
                .iter()
                .map(|&h| {
                    kept += usize::from(h > 0);
                    if kept <= keep { h } else { 0 }
                })
                .collect();
            check_region(&exec, &sparse, salt)?;
        }

        let n = hints.len();
        let before = exec.pool_stats().unwrap();
        let indexed = exec.map_indexed(n, |i| i as u64 ^ salt);
        let after = exec.pool_stats().unwrap();
        prop_assert_eq!(indexed, (0..n as u64).map(|i| i ^ salt).collect::<Vec<_>>());
        prop_assert_eq!(
            after.regions_dispatched,
            before.regions_dispatched + u64::from(n >= 2)
        );
    }

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
        let got = Executor::threaded(threads).map(items, |_| usize::MAX, || (), |item, ()| {
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
                1 => exec.map(0..n as u64, |_| 1, || (), |i, ()| (i + round) ^ salt),
                _ => exec.map(
                    (0..n as u64).collect::<Vec<_>>(),
                    |_| usize::MAX,
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
