//! Accelerator geometry, dataflow, and design-point configuration.

use std::fmt;

/// Which accelerator dataflow the layer runs under (paper §II-B and §IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dataflow {
    /// Eyeriss-style row stationary: filter rows stream horizontally, input
    /// rows diagonally, partial sums accumulate vertically. The paper's
    /// primary configuration.
    #[default]
    RowStationary,
    /// Weights pinned in PEs, input vectors broadcast. MERCURY skips
    /// similar vectors while reading them from the global buffer.
    WeightStationary,
    /// Inputs pinned in PEs, weights broadcast. On a HIT the PE skips all
    /// remaining weights and loads the next input vector.
    InputStationary,
}

impl fmt::Display for Dataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dataflow::RowStationary => write!(f, "row-stationary"),
            Dataflow::WeightStationary => write!(f, "weight-stationary"),
            Dataflow::InputStationary => write!(f, "input-stationary"),
        }
    }
}

/// Synchronous or asynchronous PE-set coordination (paper §III-C1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// All PE sets barrier after each filter; MCACHE holds one data
    /// version.
    Synchronous,
    /// PE sets run ahead using double input buffers and a shared buffer of
    /// `filter_slots` filters (the paper's `M`), with a multi-version
    /// MCACHE (one version per slot).
    Asynchronous {
        /// Number of filters resident in the shared buffer.
        filter_slots: usize,
    },
}

impl Default for Design {
    fn default() -> Self {
        Design::Asynchronous { filter_slots: 4 }
    }
}

/// Per-operation latencies of the simulated hardware, in cycles.
///
/// Defaults follow the paper's timing discussion: one multiply-accumulate
/// per cycle inside a PE, a fixed small delay for an MCACHE access through
/// the entry id, and single-cycle result forwarding between PEs in the FC
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// Cycles for a PE set to read a memoized result from MCACHE via entry
    /// id ("within a fixed delay", §V).
    pub mcache_read_cycles: u64,
    /// Extra serialization cycles per conflicting same-set insertion
    /// (the per-set queue+controller of §V).
    pub mcache_insert_conflict_cycles: u64,
    /// Cycles to forward one per-weight result from the earlier PE to a
    /// later PE in the FC design (§III-C3).
    pub fc_forward_cycles: u64,
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams {
            // Entry-id reads are pipelined: one result per cycle (§V).
            mcache_read_cycles: 1,
            mcache_insert_conflict_cycles: 1,
            fc_forward_cycles: 1,
        }
    }
}

/// Full configuration of the simulated accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcceleratorConfig {
    /// Total PEs in the array (the paper's Eyeriss-style baseline has 168).
    pub num_pes: usize,
    /// Dataflow the array runs.
    pub dataflow: Dataflow,
    /// Sync/async PE-set coordination.
    pub design: Design,
    /// Per-operation latencies.
    pub timing: TimingParams,
}

impl AcceleratorConfig {
    /// The paper's evaluation configuration: 168 PEs, row stationary,
    /// asynchronous design with a 4-filter shared buffer.
    pub fn paper_default() -> Self {
        AcceleratorConfig {
            num_pes: 168,
            dataflow: Dataflow::RowStationary,
            design: Design::default(),
            timing: TimingParams::default(),
        }
    }

    /// Number of PE sets available for `x`-row input vectors: each PE set
    /// binds one PE per kernel row (Figure 7b).
    ///
    /// At least one PE set is always formed, even if the kernel has more
    /// rows than the array has PEs (the hardware would fold the rows).
    pub fn pe_sets(&self, x: usize) -> usize {
        if x == 0 {
            return self.num_pes.max(1);
        }
        (self.num_pes / x).max(1)
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        AcceleratorConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_evaluation_setup() {
        let cfg = AcceleratorConfig::paper_default();
        assert_eq!(cfg.num_pes, 168);
        assert_eq!(cfg.dataflow, Dataflow::RowStationary);
    }

    #[test]
    fn pe_sets_divide_the_array() {
        let cfg = AcceleratorConfig::paper_default();
        assert_eq!(cfg.pe_sets(3), 56); // 168 / 3, the Eyeriss 3x3 case
        assert_eq!(cfg.pe_sets(5), 33);
        assert_eq!(cfg.pe_sets(7), 24);
    }

    #[test]
    fn pe_sets_never_zero() {
        let cfg = AcceleratorConfig {
            num_pes: 2,
            ..AcceleratorConfig::paper_default()
        };
        assert_eq!(cfg.pe_sets(3), 1);
        assert_eq!(cfg.pe_sets(0), 2);
    }

    #[test]
    fn dataflow_display_names() {
        assert_eq!(Dataflow::RowStationary.to_string(), "row-stationary");
        assert_eq!(Dataflow::WeightStationary.to_string(), "weight-stationary");
        assert_eq!(Dataflow::InputStationary.to_string(), "input-stationary");
    }

    #[test]
    fn default_design_is_async() {
        assert_eq!(Design::default(), Design::Asynchronous { filter_slots: 4 });
    }
}
