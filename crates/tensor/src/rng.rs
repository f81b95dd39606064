//! Deterministic random number generation for reproducible experiments.
//!
//! Every stochastic component in the workspace (random projection matrices,
//! synthetic workloads, weight initialisation) draws from [`Rng`], a
//! SplitMix64 generator with Box–Muller normal sampling. A single `u64` seed
//! therefore pins down an entire experiment.
//!
//! SplitMix64 is used instead of an external crate because the experiments
//! need nothing beyond uniform `u64`/`f32` and normal `f32` draws, and a
//! 20-line generator keeps the substrate dependency-free.

/// A deterministic pseudo-random generator (SplitMix64 core).
///
/// # Examples
///
/// ```
/// use mercury_tensor::rng::Rng;
///
/// let mut a = Rng::new(7);
/// let mut b = Rng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rng {
    state: u64,
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f32>,
}

/// An opaque snapshot of an [`Rng`]'s complete state.
///
/// Because every draw is a pure function of the state, a `(inputs,
/// RngState)` pair keys any derivation deterministically — which is what
/// lets callers memoize expensive synthesized sequences
/// (e.g. `VectorStream::cluster_ids` in `mercury-workloads`) and replay
/// them with [`Rng::restore`] as if they had been drawn afresh. The
/// snapshot is `Hash`/`Eq` so it can serve directly as a memo key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RngState {
    state: u64,
    /// The Box–Muller spare, stored as raw bits so the snapshot stays
    /// `Eq`/`Hash`.
    spare_bits: Option<u32>,
}

impl Rng {
    /// Creates a generator from a seed. Equal seeds produce equal streams.
    pub fn new(seed: u64) -> Self {
        Rng {
            state: seed,
            spare_normal: None,
        }
    }

    /// Returns the next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        // SplitMix64 (Steele, Lea, Flood 2014).
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        // Use the top 24 bits for a uniformly distributed mantissa.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        // Multiplicative range reduction; bias is negligible for the bounds
        // used in this workspace (all far below 2^32).
        ((self.next_u64() >> 32).wrapping_mul(bound as u64) >> 32) as usize
    }

    /// Returns a standard-normal `f32` (mean 0, variance 1) via Box–Muller.
    pub fn next_normal(&mut self) -> f32 {
        if let Some(spare) = self.spare_normal.take() {
            return spare;
        }
        // Draw u1 in (0, 1] to keep ln() finite.
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let radius = (-2.0 * u1.ln()).sqrt();
        let angle = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some((radius * angle.sin()) as f32);
        (radius * angle.cos()) as f32
    }

    /// Returns a uniform `f32` in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn next_range(&mut self, low: f32, high: f32) -> f32 {
        assert!(low <= high, "low must not exceed high");
        low + (high - low) * self.next_f32()
    }

    /// Snapshots the generator's complete state (see [`RngState`]).
    pub fn checkpoint(&self) -> RngState {
        RngState {
            state: self.state,
            spare_bits: self.spare_normal.map(f32::to_bits),
        }
    }

    /// Restores a state captured by [`checkpoint`](Self::checkpoint); the
    /// generator continues exactly as if the intervening draws had been
    /// performed on it.
    pub fn restore(&mut self, snapshot: RngState) {
        self.state = snapshot.state;
        self.spare_normal = snapshot.spare_bits.map(f32::from_bits);
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(123);
        let mut b = Rng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be effectively independent");
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng::new(9);
        for _ in 0..10_000 {
            let x = rng.next_f32();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = Rng::new(5);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::new(77);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_normal() as f64).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "normal mean {mean} should be ~0");
        assert!(
            (var - 1.0).abs() < 0.03,
            "normal variance {var} should be ~1"
        );
    }

    #[test]
    fn next_below_covers_range() {
        let mut rng = Rng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.next_below(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Rng::new(0).next_below(0);
    }

    #[test]
    fn checkpoint_restore_replays_the_stream() {
        let mut rng = Rng::new(31);
        rng.next_normal(); // leave a Box–Muller spare in flight
        let snap = rng.checkpoint();
        let draws: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        let normal = rng.next_normal();
        rng.restore(snap);
        // A restored state compares equal to its snapshot (memo-key
        // contract) and replays the exact same stream.
        assert_eq!(snap, rng.checkpoint());
        let replay: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(draws, replay);
        assert_eq!(normal, rng.next_normal());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::new(42);
        let mut data: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut data);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = Rng::new(8);
        for _ in 0..1000 {
            let x = rng.next_range(-2.5, 4.0);
            assert!((-2.5..4.0).contains(&x));
        }
    }
}
