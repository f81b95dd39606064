//! The executor's dispatch constants: the [`DispatchTuning`] knob set an
//! [`Executor`](crate::exec::Executor) carries from construction.
//!
//! Every executor built by [`Executor::serial`](crate::exec::Executor::serial),
//! [`threaded`](crate::exec::Executor::threaded) or
//! [`from_kind`](crate::exec::Executor::from_kind) carries
//! [`DispatchTuning::default`]. The knobs are **scheduling-only**: any
//! values, however pathological, may move work between inline and pooled
//! execution but never change a bit of output.
//! [`Executor::serial_tuned`](crate::exec::Executor::serial_tuned) and
//! [`threaded_tuned`](crate::exec::Executor::threaded_tuned) exist so
//! `tests/parallel_determinism.rs` can pin that across a grid of extreme
//! values.

/// The dispatch knob set one [`Executor`](crate::exec::Executor) carries.
/// Engines read it back through
/// [`Executor::tuning`](crate::exec::Executor::tuning) so their work-size
/// hints use the same units the dispatch gate compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DispatchTuning {
    /// Minimum summed work hint (in ~scalar-FLOP units) for a region to
    /// be handed to the worker pool instead of running inline on the
    /// caller. Default 32Ki units, roughly tens of µs of work.
    pub dispatch_min_work: usize,
    /// Estimated cost of one MCACHE probe in the same work units; the
    /// conv channel hints add it once per patch. Default 64.
    pub probe_work_units: usize,
    /// Not a knob: nothing reads it, since every reuse pass probes on its
    /// calling thread. It stays, like [`_rest`](Self::_rest), because the
    /// extreme-tuning grid of `tests/parallel_determinism.rs` names it.
    /// Default 64.
    pub parallel_probe_min: usize,
    /// Not a knob. Literals end in `..DispatchTuning::default()`, so a
    /// literal naming every knob stays warning-free and a new knob
    /// breaks no caller.
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
