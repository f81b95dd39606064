//! Quickstart: open a long-lived MERCURY session, stream convolution
//! requests through it, and watch reuse compound across requests.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a smooth input (high patch similarity), registers one conv layer
//! with a [`MercurySession`], and submits it twice: the first request pays
//! the cold-start MAUs, the second hits on the MCACHE state that persisted
//! across submits. An epoch boundary then evicts everything. Also prints
//! the cycle accounting from the simulated accelerator and the numerical
//! error against an exact convolution.

use mercury_core::{ExecutorKind, MercuryConfig, MercurySession};
use mercury_tensor::conv::conv2d_multi;
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng::new(42);

    // A 32x32 image tiled from a handful of distinct textures (stripes,
    // checkers, gradient): the repeated-patch structure of natural images
    // that MERCURY exploits. Repeated tiles produce *exactly* repeated
    // patches, so the reused results are exact.
    let mut image = Tensor::zeros(&[1, 32, 32]);
    for y in 0..32 {
        for x in 0..32 {
            let v = match (y / 8 + x / 8) % 3 {
                0 => {
                    if y % 2 == 0 {
                        0.8
                    } else {
                        -0.4
                    }
                } // stripes
                1 => {
                    if (y + x) % 2 == 0 {
                        0.6
                    } else {
                        -0.6
                    }
                } // checkers
                _ => (y % 8) as f32 * 0.1 - 0.35, // ramp
            };
            image.set(&[0, y, x], v);
        }
    }
    let kernels = Tensor::randn(&[64, 1, 3, 3], &mut rng);

    // One session, one registered conv layer, a stream of submits. The
    // typed config builder rejects bad configurations with a ConfigError.
    // The executor picks the scheduling backend — serial is the reference,
    // `ExecutorKind::threaded_auto()` sizes a pool to the machine, and
    // both produce bit-identical results — so choose threaded on multi-
    // core hosts for wall-clock, serial for minimal overhead elsewhere
    // (MERCURY_EXECUTOR=serial|threaded overrides at run time).
    let executor = ExecutorKind::from_env_or(ExecutorKind::Serial);
    let config = MercuryConfig::builder().executor(executor).build()?;
    let mut session = MercurySession::new(config, 7)?;
    let conv = session.register_conv(kernels.clone(), 1, 1)?;

    let first = session.submit(conv, &image)?;
    let second = session.submit(conv, &image)?;

    for (label, result) in [("request 1 (cold)", &first), ("request 2 (warm)", &second)] {
        let stats = &result.report.stats;
        println!("--- {label} ---");
        println!("input vectors     : {}", stats.total_vectors());
        println!("  HIT  (reused)   : {}", stats.hits);
        println!("  MAU  (cached)   : {}", stats.maus);
        println!("  MNU  (computed) : {}", stats.mnus);
        println!("similarity        : {:.1}%", 100.0 * stats.similarity());
        println!("baseline cycles   : {}", stats.cycles.baseline);
        println!("mercury cycles    : {}", stats.cycles.total());
        println!("  signature phase : {}", stats.cycles.signature);
        println!("  compute phase   : {}", stats.cycles.compute);
        println!("speedup           : {:.2}x", stats.cycles.speedup());
        println!();
    }
    println!(
        "cross-request reuse: {} extra hits on request 2 (persistent MCACHE)",
        second.stats().hits - first.stats().hits
    );

    // Epoch boundary: flash-clear every engine's cache (O(sets) occupancy
    // reset, no per-entry walk); the next request starts cold again.
    session.advance_epoch();
    let evicted = session.submit(conv, &image)?;
    println!(
        "after advance_epoch(): request sees {} MAUs again (cache evicted)",
        evicted.stats().maus
    );

    // Reuse substitutes producer results for similar patches; measure the
    // numerical deviation versus the exact convolution.
    let exact = conv2d_multi(&image, &kernels, 1, 1)?;
    let err = second.output.sub(&exact)?.norm_sq().sqrt() / exact.norm_sq().sqrt();
    println!();
    println!("relative L2 error vs exact conv: {err:.2e}");
    Ok(())
}
