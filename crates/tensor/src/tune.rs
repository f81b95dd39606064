//! [`DispatchTuning`], a knob set that no executor reads.
//!
//! An [`Executor`](crate::exec::Executor) decides where a region runs
//! from its item count alone (see [Dispatch](crate::exec#dispatch)), so
//! no value here can move work between inline and pooled execution, let
//! alone change a bit of output. The type, its fields and its `Default`
//! stay, together with
//! [`Executor::serial_tuned`](crate::exec::Executor::serial_tuned) and
//! [`threaded_tuned`](crate::exec::Executor::threaded_tuned), because the
//! extreme-tuning grid of `tests/parallel_determinism.rs` builds
//! executors from them.

/// A dispatch knob set that nothing reads; see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DispatchTuning {
    /// Not a knob: nothing reads it, since a region's item count alone
    /// decides where it runs. Default 32Ki.
    pub dispatch_min_work: usize,
    /// Not a knob: nothing reads it, since no region carries a work
    /// estimate. Default 64.
    pub probe_work_units: usize,
    /// Not a knob: nothing reads it, since every reuse pass probes on its
    /// calling thread. Default 64.
    pub parallel_probe_min: usize,
    /// Not a knob. Literals end in `..DispatchTuning::default()`, so a
    /// literal naming every field stays warning-free.
    #[doc(hidden)]
    pub _rest: (),
}

impl Default for DispatchTuning {
    fn default() -> Self {
        DispatchTuning {
            dispatch_min_work: 32 * 1024,
            probe_work_units: 64,
            parallel_probe_min: 64,
            _rest: (),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_historical_constants() {
        let t = DispatchTuning::default();
        assert_eq!(t.dispatch_min_work, 32 * 1024);
        assert_eq!(t.probe_work_units, 64);
        assert_eq!(t.parallel_probe_min, 64);
    }
}
