//! A *measured* MERCURY data point to sit beside the upper-bound
//! comparators: instead of assuming maximum achievable savings (as the
//! UCNN / zero-pruning / unlimited-similarity bounds deliberately do),
//! this drives a real [`MercurySession`] over a synthetic tiled workload
//! and reads the speedup off the engine's own cycle ledger.
//!
//! The workload knob is the tile size: a `[1, size, size]` image built
//! from repeated `tile × tile` texture tiles has high patch similarity for
//! small tiles (few distinct patches) and low similarity for large ones —
//! the same structural dial Figure 1 of the paper measures on real
//! datasets.

use mercury_core::{ConfigError, MercuryConfig, MercurySession};
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;

/// One measured session run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredMercury {
    /// Cycle speedup over the exact baseline, from the accelerator model.
    pub speedup: f64,
    /// Fraction of input vectors the persistent MCACHE classified as
    /// similar (HITs). A cross-request repeat copies the row its line
    /// stored, so on this single-channel workload it is also the fraction
    /// of vectors whose computation was skipped. Where a HIT cannot be
    /// served — a line another conv channel stored — it is recomputed
    /// ([`LayerStats::recomputed`](mercury_core::stats::LayerStats::recomputed)),
    /// and the cycle ledger behind [`speedup`](Self::speedup) charges it as
    /// computing.
    pub similarity: f64,
    /// Requests streamed through the session.
    pub submits: u64,
}

/// Builds the tiled test image: `size × size`, textures repeating every
/// `tile` pixels, values drawn once per tile cell.
fn tiled_image(size: usize, tile: usize, rng: &mut Rng) -> Tensor {
    let cells: Vec<f32> = (0..tile * tile).map(|_| rng.next_normal()).collect();
    let mut image = Tensor::zeros(&[1, size, size]);
    for y in 0..size {
        for x in 0..size {
            image.set(&[0, y, x], cells[(y % tile) * tile + (x % tile)]);
        }
    }
    image
}

/// Streams `submits` convolution requests of a `size × size` image with
/// `tile`-pixel texture repetition through a persistent [`MercurySession`]
/// and returns the measured reuse and speedup.
///
/// # Errors
///
/// Propagates [`ConfigError`] from session construction (the default
/// configuration always succeeds).
///
/// # Panics
///
/// Panics if `tile == 0` or `size < tile`.
pub fn conv_session_measurement(
    size: usize,
    tile: usize,
    submits: usize,
    seed: u64,
) -> Result<MeasuredMercury, ConfigError> {
    assert!(tile > 0 && size >= tile, "need 0 < tile <= size");
    let mut rng = Rng::new(seed);
    let image = tiled_image(size, tile, &mut rng);
    let kernels = Tensor::randn(&[16, 1, 3, 3], &mut rng);

    let mut session = MercurySession::new(MercuryConfig::default(), seed)?;
    let conv = session
        .register_conv(kernels, 1, 1)
        .expect("rank-4 kernels are valid");
    for _ in 0..submits {
        session
            .submit(conv, &image)
            .expect("well-formed conv submit");
    }
    let stats = session.total_stats();
    Ok(MeasuredMercury {
        speedup: stats.cycles.speedup(),
        similarity: stats.similarity(),
        submits: submits as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_tiles_reuse_more_than_large_ones() {
        let smooth = conv_session_measurement(24, 2, 4, 1).unwrap();
        let rough = conv_session_measurement(24, 12, 4, 1).unwrap();
        assert!(
            smooth.similarity > rough.similarity,
            "2px tiles {smooth:?} should out-reuse 12px tiles {rough:?}"
        );
        assert!(smooth.speedup > 1.0, "smooth workload must win: {smooth:?}");
    }

    #[test]
    fn streaming_more_submits_keeps_similarity_high() {
        // Persistent MCACHE: repeats of the same request stay hits, so the
        // aggregate similarity cannot degrade as the stream grows.
        let short = conv_session_measurement(24, 3, 2, 2).unwrap();
        let long = conv_session_measurement(24, 3, 8, 2).unwrap();
        assert!(long.similarity >= short.similarity - 1e-9);
        assert_eq!(long.submits, 8);
    }

    #[test]
    #[should_panic(expected = "tile")]
    fn zero_tile_is_rejected() {
        let _ = conv_session_measurement(8, 0, 1, 3);
    }
}
