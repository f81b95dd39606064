//! Fault events count units of work, not the runners that execute them:
//! one session stream draws the same events at every site on the serial
//! and the threaded executor. This binary holds one test, so no other
//! engine call can run while its harness counts.

#![cfg(feature = "fault-inject")]

use mercury_core::{ExecutorKind, MercuryConfig, MercurySession};
use mercury_faults::{harness, FaultSite};
use mercury_tensor::{rng::Rng, Tensor};

/// Conv input channels: one `GemmChunk` product per channel.
const CHANNELS: usize = 2;
/// Rounds of one fresh submit per layer; the stream ends with one batch.
const ROUNDS: usize = 3;

/// Serves one stream on `kind`: every round submits fresh random operands
/// to a conv, an FC and an attention layer, so every product computes
/// rows, and a batch over the three layers closes the stream.
fn stream(kind: ExecutorKind) {
    let config = MercuryConfig::builder().executor(kind).build().unwrap();
    let mut rng = Rng::new(5);
    let mut s = MercurySession::new(config, 5).unwrap();
    let kernels = Tensor::randn(&[8, CHANNELS, 3, 3], &mut rng);
    let conv = s.register_conv(kernels, 1, 1).unwrap();
    let fc = s.register_fc(Tensor::randn(&[32, 16], &mut rng)).unwrap();
    let att = s.register_attention().unwrap();
    let mut operands = || {
        (
            Tensor::randn(&[CHANNELS, 12, 12], &mut rng),
            Tensor::randn(&[24, 32], &mut rng),
            Tensor::randn(&[16, 8], &mut rng),
        )
    };
    for _ in 0..ROUNDS {
        let (img, rows, seq) = operands();
        s.submit(conv, &img).unwrap();
        s.submit(fc, &rows).unwrap();
        s.submit(att, &seq).unwrap();
    }
    let (img, rows, seq) = operands();
    s.submit_batch(&[(conv, &img), (fc, &rows), (att, &seq)])
        .unwrap();
}

#[test]
fn a_session_stream_draws_one_gemm_chunk_per_product_on_every_executor() {
    let h = harness();
    let mut counts = Vec::new();
    for kind in [ExecutorKind::Serial, ExecutorKind::Threaded { threads: 2 }] {
        h.reset();
        stream(kind);
        counts.push(FaultSite::ALL.map(|site| h.count(site)));
    }
    assert_eq!(counts[0], counts[1], "sites in FaultSite::ALL order");
    // Per round: one product per conv channel, one FC product and the two
    // attention products.
    let products = (ROUNDS + 1) * (CHANNELS + 1 + 2);
    assert_eq!(counts[0][1], products as u64);
}
