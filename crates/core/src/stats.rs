//! Statistics collected per layer pass and aggregated per run — the raw
//! material for every figure in the paper's evaluation.

use mercury_accel::sim::ChannelCycles;

/// Statistics for one layer pass (forward or backward).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStats {
    /// Input vectors that hit in MCACHE (reused computations).
    pub hits: u64,
    /// Miss-and-update probes (tag inserted, result computed and cached).
    pub maus: u64,
    /// Miss-no-update probes (set full; computed, not cached).
    pub mnus: u64,
    /// HITs that computed anyway, because no stored row could serve them:
    /// the line's row was dropped, another conv channel stored it, or the
    /// engine stores none (attention, whose rows depend on the whole
    /// sequence). Each also counts in [`hits`](Self::hits); the cycle
    /// model charges it as an MAU.
    pub recomputed: u64,
    /// Distinct signatures observed (the paper's "unique vectors").
    pub unique_vectors: u64,
    /// Cycle accounting from the accelerator simulator.
    pub cycles: ChannelCycles,
    /// Whether similarity detection was enabled for this pass.
    pub detection_enabled: bool,
}

impl LayerStats {
    /// Total probed vectors.
    pub fn total_vectors(&self) -> u64 {
        self.hits + self.maus + self.mnus
    }

    /// Fraction of vectors whose computation was reused.
    pub fn similarity(&self) -> f64 {
        let n = self.total_vectors();
        if n == 0 {
            return 0.0;
        }
        self.hits as f64 / n as f64
    }

    /// MCACHE access mix as fractions `(hit, mau, mnu)` — Figure 15a.
    pub fn access_mix(&self) -> (f64, f64, f64) {
        let n = self.total_vectors();
        if n == 0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.hits as f64 / n as f64,
            self.maus as f64 / n as f64,
            self.mnus as f64 / n as f64,
        )
    }

    /// Merges another pass's statistics into this one.
    pub fn accumulate(&mut self, other: &LayerStats) {
        self.hits += other.hits;
        self.maus += other.maus;
        self.mnus += other.mnus;
        self.recomputed += other.recomputed;
        self.unique_vectors += other.unique_vectors;
        self.cycles.accumulate(&other.cycles);
        self.detection_enabled |= other.detection_enabled;
    }
}

/// Aggregated statistics for a whole model execution (all layers, forward
/// and backward) — the rows of Figures 14b/14c.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Model or experiment name.
    pub name: String,
    /// Per-layer statistics in execution order.
    pub layers: Vec<LayerStats>,
}

impl RunReport {
    /// Creates an empty report.
    pub fn new(name: impl Into<String>) -> Self {
        RunReport {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Appends one layer's statistics.
    pub fn push(&mut self, stats: LayerStats) {
        self.layers.push(stats);
    }

    /// Sums cycle accounting over all layers.
    pub fn total_cycles(&self) -> ChannelCycles {
        let mut total = ChannelCycles::default();
        for l in &self.layers {
            total.accumulate(&l.cycles);
        }
        total
    }

    /// End-to-end speedup (baseline cycles / MERCURY cycles).
    pub fn speedup(&self) -> f64 {
        self.total_cycles().speedup()
    }

    /// Number of layers with similarity detection on vs off — Figure 14a.
    pub fn detection_counts(&self) -> (usize, usize) {
        let on = self.layers.iter().filter(|l| l.detection_enabled).count();
        (on, self.layers.len() - on)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(hits: u64, maus: u64, mnus: u64) -> LayerStats {
        LayerStats {
            hits,
            maus,
            mnus,
            recomputed: 0,
            unique_vectors: maus + mnus,
            cycles: ChannelCycles {
                signature: 10,
                compute: 90,
                baseline: 200,
                reused_dots: hits,
                computed_dots: maus + mnus,
            },
            detection_enabled: true,
        }
    }

    #[test]
    fn similarity_and_mix() {
        let s = stats(6, 3, 1);
        assert_eq!(s.total_vectors(), 10);
        assert!((s.similarity() - 0.6).abs() < 1e-9);
        let (h, ma, mn) = s.access_mix();
        assert!((h - 0.6).abs() < 1e-9);
        assert!((ma - 0.3).abs() < 1e-9);
        assert!((mn - 0.1).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = LayerStats::default();
        assert_eq!(s.similarity(), 0.0);
        assert_eq!(s.access_mix(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn report_aggregates_cycles() {
        let mut r = RunReport::new("vgg13");
        r.push(stats(5, 5, 0));
        r.push(stats(8, 2, 0));
        let total = r.total_cycles();
        assert_eq!(total.baseline, 400);
        assert_eq!(total.signature, 20);
        assert!((r.speedup() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn detection_counts() {
        let mut r = RunReport::new("m");
        r.push(stats(1, 1, 0));
        let mut off = stats(0, 2, 0);
        off.detection_enabled = false;
        r.push(off);
        assert_eq!(r.detection_counts(), (1, 1));
    }

    #[test]
    fn accumulate_merges() {
        let mut a = stats(1, 2, 3);
        a.accumulate(&LayerStats {
            recomputed: 2,
            ..stats(4, 5, 6)
        });
        assert_eq!(a.hits, 5);
        assert_eq!(a.recomputed, 2);
        assert_eq!(a.maus, 7);
        assert_eq!(a.mnus, 9);
        assert_eq!(a.cycles.baseline, 400);
    }
}
