//! Run-time adaptation (paper §III-D): signature growth on loss plateaus
//! and per-layer stoppage of similarity detection when it stops paying.

/// Detects training-loss plateaus: after `window` consecutive iterations
/// whose relative loss change stays below `tolerance`, the signature
/// length should grow by one bit ("if there is no change in the loss for K
/// consecutive iterations, MERCURY increments signature length by 1").
///
/// # Examples
///
/// ```
/// use mercury_core::PlateauDetector;
///
/// let mut detector = PlateauDetector::new(3, 1e-3);
/// assert!(!detector.observe(1.00));
/// assert!(!detector.observe(1.0001)); // 1st flat step
/// assert!(!detector.observe(1.0002)); // 2nd flat step
/// assert!(detector.observe(1.0001));  // 3rd flat step → grow
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PlateauDetector {
    window: usize,
    tolerance: f64,
    flat_steps: usize,
    last_loss: Option<f64>,
}

impl PlateauDetector {
    /// Creates a detector with plateau window `K` and relative tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `tolerance` is negative/non-finite.
    pub fn new(window: usize, tolerance: f64) -> Self {
        assert!(window > 0, "plateau window must be positive");
        assert!(
            tolerance.is_finite() && tolerance >= 0.0,
            "tolerance must be a non-negative finite number"
        );
        PlateauDetector {
            window,
            tolerance,
            flat_steps: 0,
            last_loss: None,
        }
    }

    /// Feeds one iteration's average loss. Returns `true` when a plateau
    /// completes (the caller should grow the signature); the counter then
    /// restarts.
    pub fn observe(&mut self, loss: f64) -> bool {
        let flat = match self.last_loss {
            None => false,
            Some(prev) => {
                let scale = prev.abs().max(f64::EPSILON);
                ((loss - prev).abs() / scale) <= self.tolerance
            }
        };
        self.last_loss = Some(loss);
        if flat {
            self.flat_steps += 1;
            if self.flat_steps >= self.window {
                self.flat_steps = 0;
                return true;
            }
        } else {
            self.flat_steps = 0;
        }
        false
    }
}

/// Per-layer stoppage of similarity detection: when the recorded MERCURY
/// cost `CS` exceeds the analytic baseline cost `CB` for `T` consecutive
/// batches, detection turns off for good ("MERCURY stops generating
/// signatures").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoppageController {
    window: usize,
    losing_batches: usize,
    stopped: bool,
}

impl StoppageController {
    /// Creates a controller with stoppage window `T`.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "stoppage window must be positive");
        StoppageController {
            window,
            losing_batches: 0,
            stopped: false,
        }
    }

    /// Feeds one batch's measured MERCURY cycles `cs` and baseline cycles
    /// `cb`. Returns `true` while detection should remain enabled.
    pub fn observe(&mut self, cs: u64, cb: u64) -> bool {
        if self.stopped {
            return false;
        }
        if cs > cb {
            self.losing_batches += 1;
            if self.losing_batches >= self.window {
                self.stopped = true;
            }
        } else {
            self.losing_batches = 0;
        }
        !self.stopped
    }

    /// Whether detection has been permanently stopped.
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }
}

/// The combined adaptation policy for a multi-layer model: one plateau
/// detector (global, driven by training loss) plus one stoppage controller
/// per layer (driven by that layer's cycle ledger).
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    plateau: PlateauDetector,
    layers: Vec<StoppageController>,
}

impl AdaptiveController {
    /// Creates a controller for `num_layers` layers with plateau window
    /// `K`, relative tolerance, and stoppage window `T`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`PlateauDetector::new`] and
    /// [`StoppageController::new`].
    pub fn new(
        num_layers: usize,
        plateau_window: usize,
        tolerance: f64,
        stoppage_window: usize,
    ) -> Self {
        AdaptiveController {
            plateau: PlateauDetector::new(plateau_window, tolerance),
            layers: (0..num_layers)
                .map(|_| StoppageController::new(stoppage_window))
                .collect(),
        }
    }

    /// Feeds one iteration's loss; returns `true` when the signature
    /// should grow by one bit.
    pub fn observe_loss(&mut self, loss: f64) -> bool {
        self.plateau.observe(loss)
    }

    /// Feeds one batch's cycle ledger for layer `idx`; returns `true`
    /// while that layer's detection should stay enabled.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn observe_layer(&mut self, idx: usize, mercury_cycles: u64, baseline_cycles: u64) -> bool {
        self.layers[idx].observe(mercury_cycles, baseline_cycles)
    }

    /// Counts of layers with detection (on, off) — Figure 14a.
    pub fn detection_counts(&self) -> (usize, usize) {
        let off = self.layers.iter().filter(|l| l.is_stopped()).count();
        (self.layers.len() - off, off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plateau_fires_after_k_flat_steps() {
        let mut d = PlateauDetector::new(3, 1e-3);
        assert!(!d.observe(1.0));
        assert!(!d.observe(1.0));
        assert!(!d.observe(1.0));
        assert!(d.observe(1.0)); // 3 consecutive flat deltas
    }

    #[test]
    fn plateau_resets_on_improvement() {
        let mut d = PlateauDetector::new(2, 1e-3);
        assert!(!d.observe(1.0));
        assert!(!d.observe(1.0)); // flat 1
        assert!(!d.observe(0.5)); // big improvement resets
        assert!(!d.observe(0.5)); // flat 1 of a fresh window: no plateau yet
        assert!(d.observe(0.5));
    }

    #[test]
    fn plateau_counter_restarts_after_firing() {
        let mut d = PlateauDetector::new(2, 1e-2);
        d.observe(2.0);
        d.observe(2.0);
        assert!(d.observe(2.0));
        // Needs another full window before firing again.
        assert!(!d.observe(2.0));
        assert!(d.observe(2.0));
    }

    #[test]
    fn plateau_relative_tolerance_scales_with_loss() {
        let mut d = PlateauDetector::new(1, 1e-2);
        d.observe(1000.0);
        // 0.5 absolute change on a loss of 1000 is within 1% relative.
        assert!(d.observe(1000.5));
    }

    #[test]
    #[should_panic(expected = "plateau window")]
    fn plateau_rejects_zero_window() {
        PlateauDetector::new(0, 0.1);
    }

    #[test]
    fn stoppage_after_t_losing_batches() {
        let mut s = StoppageController::new(3);
        assert!(s.observe(110, 100));
        assert!(s.observe(120, 100));
        assert!(!s.observe(130, 100)); // third straight loss: stop
        assert!(s.is_stopped());
        // Stays off even if later batches would have won.
        assert!(!s.observe(50, 100));
    }

    #[test]
    fn stoppage_resets_on_winning_batch() {
        let mut s = StoppageController::new(2);
        assert!(s.observe(110, 100));
        assert!(s.observe(90, 100)); // win resets the streak
        assert!(s.observe(110, 100));
        assert!(!s.observe(110, 100));
    }

    #[test]
    fn controller_tracks_per_layer_state() {
        let mut c = AdaptiveController::new(3, 2, 1e-3, 2);
        assert_eq!(c.detection_counts(), (3, 0));
        // Layer 1 keeps losing; others win. Each call reports whether its
        // layer's detection is still enabled.
        let mut batch = || {
            [
                c.observe_layer(0, 80, 100),
                c.observe_layer(1, 150, 100),
                c.observe_layer(2, 90, 100),
            ]
        };
        assert_eq!(batch(), [true; 3]);
        assert_eq!(batch(), [true, false, true]);
        assert_eq!(c.detection_counts(), (2, 1));
    }

    #[test]
    fn controller_growth_signal() {
        let mut c = AdaptiveController::new(1, 2, 1e-6, 2);
        assert!(!c.observe_loss(0.9));
        assert!(!c.observe_loss(0.9));
        assert!(c.observe_loss(0.9));
    }
}
