//! Chaos suite: deterministic fault injection against the session facade.
//!
//! Only compiled with the default-off `fault-inject` feature (CI's chaos
//! leg runs `cargo test --features fault-inject` under both executors).
//! The injection points count events globally while any harness is open,
//! so every test holds the process-global [`mercury_faults::harness`] for
//! its whole body — every engine call in this file runs under one — and
//! calls [`FaultHarness::reset`] before each new request stream. Holding
//! it serializes the tests under the default parallel runner.
//!
//! What this suite pins, per ISSUE 7:
//! - injected faults surface **deterministically**: the same request
//!   stream faults at the same request on every executor;
//! - a panic escaping an engine poisons **exactly** the involved layer —
//!   untouched layers keep serving bit-identical results;
//! - `recover()` + exact-compute warm-up produces outputs bit-identical
//!   to a fresh session that computes exactly;
//! - the session keeps serving after containment (no wedged pool, no
//!   stuck locks).

#![cfg(feature = "fault-inject")]

use mercury_core::{ExecutorKind, LayerHealth, MercuryConfig, MercuryError, MercurySession};
use mercury_faults::{harness, FaultAction, FaultHarness, FaultSite, FaultSpec};
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;

const EXECUTORS: [ExecutorKind; 2] = [ExecutorKind::Serial, ExecutorKind::Threaded { threads: 8 }];

fn config(kind: ExecutorKind) -> MercuryConfig {
    MercuryConfig::builder()
        .executor(kind)
        .recovery_warmup(1)
        .build()
        .unwrap()
}

/// A session with one conv, one fc, and one attention layer, plus the
/// deterministic inputs the tests feed them.
struct Rig {
    session: MercurySession,
    conv: mercury_core::LayerId,
    fc: mercury_core::LayerId,
    att: mercury_core::LayerId,
}

fn rig(kind: ExecutorKind, seed: u64) -> Rig {
    let mut rng = Rng::new(seed);
    let mut session = MercurySession::new(config(kind), seed).unwrap();
    let conv = session
        .register_conv(Tensor::randn(&[2, 1, 3, 3], &mut rng), 1, 0)
        .unwrap();
    let fc = session
        .register_fc(Tensor::randn(&[8, 4], &mut rng))
        .unwrap();
    let att = session.register_attention().unwrap();
    Rig {
        session,
        conv,
        fc,
        att,
    }
}

fn img() -> Tensor {
    Tensor::full(&[1, 8, 8], 0.4)
}

fn rows(seed: u64) -> Tensor {
    Tensor::randn(&[3, 8], &mut Rng::new(seed))
}

fn seq(seed: u64) -> Tensor {
    Tensor::randn(&[4, 5], &mut Rng::new(seed))
}

#[test]
fn channel_panic_poisons_only_the_involved_layer() {
    let h = harness();
    for kind in EXECUTORS {
        // Reference: an identical session that never sees the fault and
        // never receives the conv requests.
        let mut reference = rig(kind, 70);
        let want_fc = reference.session.submit(reference.fc, &rows(1)).unwrap();
        let want_att = reference.session.submit(reference.att, &seq(2)).unwrap();

        let mut r = rig(kind, 70);
        h.reset();
        h.arm(FaultSpec::panic_at(FaultSite::ChannelShard, 1));

        // The injected panic surfaces as a typed, attributed error...
        let err = r.session.submit(r.conv, &img()).unwrap_err();
        match &err {
            MercuryError::EnginePanic { layer, message } => {
                assert_eq!(*layer, r.conv, "{kind:?}");
                assert!(
                    message.contains("injected panic at channel shard"),
                    "{kind:?}: {message}"
                );
            }
            other => panic!("{kind:?}: expected EnginePanic, got {other}"),
        }
        assert_eq!(h.fired().len(), 1);

        // ...poisoning exactly the involved layer: the conv refuses until
        // recovery, the untouched layers answer bit-identically to the
        // never-failed session.
        assert_eq!(r.session.layer_health(r.conv), Some(LayerHealth::Poisoned));
        assert_eq!(r.session.layer_submits(r.conv), Some(0));
        assert_eq!(
            r.session.submit(r.conv, &img()).unwrap_err(),
            MercuryError::Poisoned(r.conv),
            "{kind:?}"
        );
        let (fc_in, att_in) = (rows(1), seq(2));
        for (id, input, want) in [(r.fc, &fc_in, &want_fc), (r.att, &att_in, &want_att)] {
            assert_eq!(r.session.layer_health(id), Some(LayerHealth::Healthy));
            let got = r.session.submit(id, input).unwrap();
            assert_eq!(got.output, want.output, "{kind:?}");
            assert_eq!(got.report, want.report, "{kind:?}");
        }

        // Recovery: quarantined bank, exact warm-up bit-identical to a
        // fresh exact session, then reuse re-arms.
        r.session.recover(r.conv).unwrap();
        let mut exact = rig(kind, 70);
        exact.session.set_detection(exact.conv, false).unwrap();
        let want = exact.session.submit(exact.conv, &img()).unwrap();
        let got = r.session.submit(r.conv, &img()).unwrap();
        assert!(got.report.degraded, "{kind:?}");
        assert_eq!(got.output, want.output, "{kind:?}");
        assert_eq!(got.stats(), want.stats(), "{kind:?}");
        assert_eq!(r.session.layer_health(r.conv), Some(LayerHealth::Healthy));
        assert!(r.session.engine(r.conv).unwrap().detection_enabled());
    }
}

#[test]
fn bank_probe_panic_surfaces_at_the_same_request_on_every_executor() {
    // [1, 10, 10] input under a 3x3 kernel = 64 patches = 64 bank-probe
    // events per submit — exactly PARALLEL_PROBE_MIN, so the threaded
    // executor takes the concurrent banked fan-out while the fault
    // ordinal is still drawn pre-fan-out in stream order.
    let input = Tensor::full(&[1, 10, 10], 0.3);
    let build = |kind| {
        let mut session = MercurySession::new(config(kind), 71).unwrap();
        let conv = session
            .register_conv(Tensor::full(&[4, 1, 3, 3], 0.1), 1, 0)
            .unwrap();
        (session, conv)
    };

    // Fault at the 3rd probe of request 3 (1-based, cumulative).
    let nth = 2 * 64 + 3;
    let mut failed_at = Vec::new();
    let h = harness();
    for kind in EXECUTORS {
        let (mut session, conv) = build(kind);
        h.reset();
        h.arm(FaultSpec::panic_at(FaultSite::BankProbe, nth));
        let mut outputs = Vec::new();
        let failure = loop {
            match session.submit(conv, &input) {
                Ok(fwd) => outputs.push(fwd.output),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(&failure, MercuryError::EnginePanic { message, .. }
                if message.contains("injected panic at bank probe")),
            "{kind:?}: {failure}"
        );
        assert_eq!(h.count(FaultSite::BankProbe), nth, "{kind:?}");
        failed_at.push((outputs.len(), outputs));
    }
    let (serial_n, serial_outputs) = &failed_at[0];
    assert_eq!(*serial_n, 2, "requests 1-2 succeed, request 3 faults");
    for (n, outputs) in &failed_at[1..] {
        assert_eq!(n, serial_n, "fault request index is executor-invariant");
        assert_eq!(outputs, serial_outputs, "pre-fault outputs bit-identical");
    }
}

#[test]
fn tag_corruption_is_deterministic_and_contained() {
    // A tag-store upset mid-stream: no error, no poisoning — the probe
    // simply matches differently — and the observable outcome is
    // identical on every executor because the corrupted ordinal is drawn
    // in stream order before the bank fan-out.
    let input = Tensor::full(&[1, 10, 10], 0.3);
    let mut runs = Vec::new();
    let h = harness();
    for kind in EXECUTORS {
        let mut session = MercurySession::new(config(kind), 72).unwrap();
        let conv = session
            .register_conv(Tensor::full(&[4, 1, 3, 3], 0.1), 1, 0)
            .unwrap();
        h.reset();
        // Corrupt the 5th probe of the second (fully warm) submit.
        h.arm(FaultSpec {
            site: FaultSite::BankProbe,
            nth: 64 + 5,
            action: FaultAction::CorruptTag,
        });
        let warm = session.submit(conv, &input).unwrap();
        let corrupted = session.submit(conv, &input).unwrap();
        assert_eq!(h.fired().len(), 1, "{kind:?}");
        assert_eq!(
            session.layer_health(conv),
            Some(LayerHealth::Healthy),
            "{kind:?}: corruption is not a crash"
        );
        assert!(
            corrupted.stats().hits < warm.stats().hits + 64,
            "{kind:?}: a corrupted tag cannot out-hit a clean warm stream"
        );
        runs.push((warm, corrupted));
    }
    let (serial_warm, serial_corrupted) = &runs[0];
    for (warm, corrupted) in &runs[1..] {
        assert_eq!(warm.output, serial_warm.output);
        assert_eq!(warm.report, serial_warm.report);
        assert_eq!(corrupted.output, serial_corrupted.output);
        assert_eq!(corrupted.report, serial_corrupted.report);
    }
}

#[test]
fn nan_payload_is_flushed_by_recovery() {
    // GEMM chunk ordinals depend on the worker count by design (serial
    // runs one chunk per product), so this scenario pins the serial
    // executor and exercises the *containment*: a NaN planted in a
    // computed chunk propagates into the output and potentially into the
    // persistent bank — and recovery's quarantine + exact warm-up
    // restores bit-exact service.
    let h = harness();
    let mut session = MercurySession::new(config(ExecutorKind::Serial), 73).unwrap();
    let conv = session
        .register_conv(Tensor::full(&[2, 1, 3, 3], 0.1), 1, 0)
        .unwrap();
    h.arm(FaultSpec {
        site: FaultSite::GemmChunk,
        nth: 1,
        action: FaultAction::NanPayload,
    });
    let poisoned_payload = session.submit(conv, &img()).unwrap();
    assert_eq!(h.fired().len(), 1);
    assert!(
        poisoned_payload.output.data().iter().any(|v| v.is_nan()),
        "the corrupted chunk reached the output"
    );
    assert_eq!(
        session.layer_health(conv),
        Some(LayerHealth::Healthy),
        "payload corruption is silent — that is exactly why recover() exists"
    );

    // Operator response: quarantine + warm-up. Output must be bit-exact
    // against a session that never computed anything but exact results.
    session.recover(conv).unwrap();
    let mut exact = MercurySession::new(config(ExecutorKind::Serial), 73).unwrap();
    let conv_e = exact
        .register_conv(Tensor::full(&[2, 1, 3, 3], 0.1), 1, 0)
        .unwrap();
    exact.set_detection(conv_e, false).unwrap();
    let want = exact.submit(conv_e, &img()).unwrap();
    let got = session.submit(conv, &img()).unwrap();
    assert!(got.report.degraded);
    assert!(got.output.data().iter().all(|v| v.is_finite()));
    assert_eq!(got.output, want.output);
}

#[test]
fn partial_batch_panic_poisons_only_involved_layers() {
    // Pool widths 1/2/8 per the satellite: a panic mid-submit_batch
    // yields Poisoned only on the involved layer, and the other layers'
    // subsequent outputs are bit-identical to a never-failed session.
    let h = harness();
    for kind in [
        ExecutorKind::Serial,
        ExecutorKind::Threaded { threads: 2 },
        ExecutorKind::Threaded { threads: 8 },
    ] {
        // Reference session: the same per-layer request streams, minus
        // the conv request that will fault.
        let mut reference = rig(kind, 74);
        let want = reference
            .session
            .submit_batch(&[
                (reference.fc, &rows(10)),
                (reference.att, &seq(11)),
                (reference.fc, &rows(12)),
            ])
            .unwrap();
        let want_fc_next = reference.session.submit(reference.fc, &rows(13)).unwrap();

        let mut r = rig(kind, 74);
        h.reset();
        // Only the conv layer emits ChannelShard events, so the ordinal
        // is deterministic even while the batch fans layers out across
        // workers.
        h.arm(FaultSpec::panic_at(FaultSite::ChannelShard, 1));
        let fc_rows = [rows(10), rows(12)];
        let batch_err = r
            .session
            .submit_batch(&[
                (r.fc, &fc_rows[0]),
                (r.conv, &img()),
                (r.att, &seq(11)),
                (r.fc, &fc_rows[1]),
            ])
            .unwrap_err();
        assert!(
            matches!(&batch_err, MercuryError::EnginePanic { layer, .. } if *layer == r.conv),
            "{kind:?}: {batch_err}"
        );

        // Poisoning is exact: conv served nothing, the others served
        // everything and match the never-failed session bit for bit.
        assert_eq!(r.session.layer_health(r.conv), Some(LayerHealth::Poisoned));
        assert_eq!(r.session.layer_submits(r.conv), Some(0));
        assert_eq!(r.session.layer_submits(r.fc), Some(2), "{kind:?}");
        assert_eq!(r.session.layer_submits(r.att), Some(1), "{kind:?}");
        let got_fc_next = r.session.submit(r.fc, &rows(13)).unwrap();
        assert_eq!(
            r.session.layer_stats(r.fc),
            reference.session.layer_stats(reference.fc)
        );
        assert_eq!(got_fc_next.output, want_fc_next.output, "{kind:?}");
        assert_eq!(got_fc_next.report, want_fc_next.report, "{kind:?}");
        assert_eq!(
            r.session.layer_health(r.att),
            Some(LayerHealth::Healthy),
            "{kind:?}"
        );
        // And the want[] outputs really correspond: fc pos 0 == reference
        // pos 0, att pos == reference pos 1 (same per-layer order).
        assert_eq!(want.len(), 3);

        // A later batch including the poisoned layer fails only on it.
        let err = r
            .session
            .submit_batch(&[(r.att, &seq(14)), (r.conv, &img())])
            .unwrap_err();
        assert_eq!(err, MercuryError::Poisoned(r.conv), "{kind:?}");
        assert_eq!(r.session.layer_submits(r.att), Some(2), "{kind:?}");
    }
}

#[test]
fn lowest_position_error_wins_when_two_layers_fail_in_one_batch() {
    // Two layers fail inside a single submit_batch — one by injected
    // panic (conv, the batch's only ChannelShard emitter, so the ordinal
    // is deterministic under any schedule), one by input validation (fc
    // with the wrong inner dimension, side-effect-free). Whatever order
    // the pool runs them in, the *returned* error must be the
    // lowest-positioned failing request's — both ways round.
    let bad_rows = Tensor::randn(&[3, 5], &mut Rng::new(80)); // fc wants [n, 8]
    let h = harness();
    for kind in EXECUTORS {
        // Ordering 1: the fc validation failure sits at position 0, the
        // conv panic at position 1 → ShapeMismatch wins.
        let mut r = rig(kind, 80);
        h.reset();
        h.arm(FaultSpec::panic_at(FaultSite::ChannelShard, 1));
        let att_in = seq(81);
        let err = r
            .session
            .submit_batch(&[(r.fc, &bad_rows), (r.conv, &img()), (r.att, &att_in)])
            .unwrap_err();
        assert!(
            matches!(&err, MercuryError::ShapeMismatch { layer, .. } if *layer == r.fc),
            "{kind:?}: position 0's validation error must win, got {err}"
        );
        // Both failures really happened: the higher-positioned panic
        // still fired and poisoned the conv, and the bystander served.
        assert_eq!(h.fired().len(), 1, "{kind:?}");
        assert_eq!(r.session.layer_health(r.conv), Some(LayerHealth::Poisoned));
        assert_eq!(
            r.session.layer_health(r.fc),
            Some(LayerHealth::Healthy),
            "{kind:?}: validation failures never poison"
        );
        assert_eq!(r.session.layer_submits(r.att), Some(1), "{kind:?}");

        // Ordering 2: the conv panic sits at position 0, the fc
        // validation failure at position 2 → the panic wins.
        let mut r = rig(kind, 80);
        h.reset();
        h.arm(FaultSpec::panic_at(FaultSite::ChannelShard, 1));
        let err = r
            .session
            .submit_batch(&[(r.conv, &img()), (r.att, &att_in), (r.fc, &bad_rows)])
            .unwrap_err();
        assert!(
            matches!(&err, MercuryError::EnginePanic { layer, .. } if *layer == r.conv),
            "{kind:?}: position 0's panic must win, got {err}"
        );
        assert_eq!(h.fired().len(), 1, "{kind:?}");
        assert_eq!(r.session.layer_health(r.conv), Some(LayerHealth::Poisoned));
        assert_eq!(r.session.layer_submits(r.att), Some(1), "{kind:?}");
    }
}

#[test]
fn seeded_faults_reproduce_and_recovery_is_exact() {
    // A seeded chaos run is pinned by its seed alone: the same seed arms
    // the same ordinal, fails the same request, and recovers to the same
    // bit-exact outputs — run twice to prove it.
    let spec = FaultSpec::seeded(0xC0FFEE, FaultSite::ChannelShard, 4);
    assert_eq!(
        spec,
        FaultSpec::seeded(0xC0FFEE, FaultSite::ChannelShard, 4)
    );
    let input = Tensor::full(&[4, 6, 6], 0.2);

    let run = |h: &FaultHarness| {
        let mut session = MercurySession::new(config(ExecutorKind::Serial), 75).unwrap();
        let conv = session
            .register_conv(Tensor::full(&[2, 4, 3, 3], 0.1), 1, 0)
            .unwrap();
        h.reset();
        h.arm(spec);
        // 4 input channels = 4 ChannelShard events per submit; the armed
        // ordinal (1..=4) faults the very first submit.
        let err = session.submit(conv, &input).unwrap_err();
        assert!(matches!(err, MercuryError::EnginePanic { .. }), "{err}");
        let fired = h.fired();
        session.recover(conv).unwrap();
        let recovered = session.submit(conv, &input).unwrap();
        assert!(recovered.report.degraded);
        (fired, recovered.output.clone())
    };

    let h = harness();
    let (fired_a, out_a) = run(&h);
    let (fired_b, out_b) = run(&h);
    assert_eq!(fired_a, fired_b, "same seed, same fault");
    assert_eq!(out_a, out_b, "same seed, same recovery");
}
