//! Property-based tests of the accelerator cycle model's invariants.

use mercury_accel::config::{AcceleratorConfig, Dataflow, Design};
use mercury_accel::fc::{simulate_fc, FcWork};
use mercury_accel::sim::{simulate_channel, ChannelWork};
use mercury_accel::timing;
use mercury_mcache::{HitKind, OutcomeMix};
use proptest::prelude::*;

fn outcome_vec(hits: usize, maus: usize, mnus: usize) -> OutcomeMix {
    let mut v = Vec::new();
    let total = hits + maus + mnus;
    for i in 0..total {
        v.push(if i % 3 == 0 && i / 3 < hits {
            HitKind::Hit
        } else if v.iter().filter(|&&o| o == HitKind::Mau).count() < maus {
            HitKind::Mau
        } else if v.iter().filter(|&&o| o == HitKind::Hit).count() < hits {
            HitKind::Hit
        } else {
            HitKind::Mnu
        });
    }
    OutcomeMix::from_outcomes(&v)
}

fn cfg(design: Design, dataflow: Dataflow) -> AcceleratorConfig {
    AcceleratorConfig {
        num_pes: 24,
        dataflow,
        design,
        ..AcceleratorConfig::paper_default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// More hits never cost more cycles, all else equal.
    #[test]
    fn hits_are_monotone_improvements(
        total in 8usize..64,
        filters in 1usize..32,
        x in 1usize..6,
    ) {
        let c = cfg(Design::Asynchronous { filter_slots: 4 }, Dataflow::RowStationary);
        let mut previous = u64::MAX;
        for hits in [0, total / 4, total / 2, 3 * total / 4, total] {
            let o = outcome_vec(hits, total - hits, 0);
            let cycles =
                simulate_channel(&c, &ChannelWork::new(o, filters, x, 20));
            prop_assert!(
                cycles.total() <= previous,
                "hits {hits}: {} > previous {previous}",
                cycles.total()
            );
            previous = cycles.total();
        }
    }

    /// The asynchronous design never loses to the synchronous one.
    #[test]
    fn async_never_slower(
        hits in 0usize..40,
        misses in 1usize..40,
        filters in 1usize..24,
        x in 1usize..6,
    ) {
        let o = outcome_vec(hits, misses, 0);
        let sync = simulate_channel(
            &cfg(Design::Synchronous, Dataflow::RowStationary),
            &ChannelWork::new(o, filters, x, 20),
        );
        let asyn = simulate_channel(
            &cfg(Design::Asynchronous { filter_slots: 4 }, Dataflow::RowStationary),
            &ChannelWork::new(o, filters, x, 20),
        );
        prop_assert!(asyn.total() <= sync.total());
        prop_assert_eq!(asyn.baseline, sync.baseline);
    }

    /// Precomputed signatures never cost more than fresh ones, in every
    /// dataflow.
    #[test]
    fn precomputed_signatures_never_slower(
        hits in 0usize..30,
        misses in 1usize..30,
        filters in 1usize..16,
        flow_idx in 0usize..3,
    ) {
        let flow = [
            Dataflow::RowStationary,
            Dataflow::WeightStationary,
            Dataflow::InputStationary,
        ][flow_idx];
        let c = cfg(Design::Synchronous, flow);
        let o = outcome_vec(hits, misses, 0);
        let fresh = simulate_channel(&c, &ChannelWork::new(o, filters, 3, 20));
        let reloaded = simulate_channel(
            &c,
            &ChannelWork::new(o, filters, 3, 20).with_precomputed_signatures(),
        );
        prop_assert!(reloaded.total() <= fresh.total());
        prop_assert_eq!(reloaded.signature, 0);
    }

    /// Baseline cycles are independent of the outcome mix (the baseline
    /// machine has no cache) and scale linearly in filters.
    #[test]
    fn baseline_is_mix_independent(
        total in 4usize..48,
        hits in 0usize..48,
        filters in 1usize..16,
    ) {
        let hits = hits.min(total);
        let c = cfg(Design::Synchronous, Dataflow::RowStationary);
        let o1 = outcome_vec(hits, total - hits, 0);
        let o2 = outcome_vec(0, total, 0);
        let b1 = simulate_channel(&c, &ChannelWork::new(o1, filters, 3, 20)).baseline;
        let b2 = simulate_channel(&c, &ChannelWork::new(o2, filters, 3, 20)).baseline;
        prop_assert_eq!(b1, b2);
        let b_double =
            simulate_channel(&c, &ChannelWork::new(o1, filters * 2, 3, 20)).baseline;
        prop_assert_eq!(b_double, 2 * b1);
    }

    /// FC: the dot ledger covers every (input, weight) pair and baseline
    /// matches the closed form.
    #[test]
    fn fc_ledger_and_baseline(
        hits in 0usize..20,
        misses in 1usize..20,
        weights in 1usize..32,
        len in 1usize..64,
    ) {
        let c = cfg(Design::Synchronous, Dataflow::RowStationary);
        let o = outcome_vec(hits, misses, 0);
        let r = simulate_fc(&c, &FcWork::new(o, weights, len, 20));
        let n = (hits + misses) as u64;
        prop_assert_eq!(r.reused_dots + r.computed_dots, n * weights as u64);
        let expected_baseline =
            (n * weights as u64 * timing::fc_dot_cycles(len)).div_ceil(24);
        prop_assert_eq!(r.baseline, expected_baseline);
    }

    /// Pipelined signature cycles are always at least x·bits (one bit per
    /// x cycles is the floor) and at most the non-pipelined cost. A lone
    /// bit is excluded: the first pipelined bit pays the ORg setup cycle
    /// (2x+1 vs 2x, Figure 8b), so pipelining only breaks even from the
    /// second bit onward.
    #[test]
    fn signature_cycle_bounds(x in 1usize..10, bits in 2usize..200) {
        let pipelined = timing::signature_cycles(x, bits, true);
        let plain = timing::signature_cycles(x, bits, false);
        prop_assert!(pipelined >= (x * bits) as u64);
        prop_assert!(pipelined <= plain);
        prop_assert_eq!(plain, (2 * x * bits) as u64);
    }
}
