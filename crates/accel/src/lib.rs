//! Cycle-level simulator of the MERCURY spatial accelerator.
//!
//! The paper implements MERCURY on a Virtex-7 FPGA around an Eyeriss-style
//! row-stationary array of 168 PEs. This crate replaces that FPGA with a
//! deterministic cycle model that reproduces the paper's *timing structure*:
//!
//! * [`timing`] — per-operation latencies: the `2x`-cycle dot product of an
//!   `x×x` input vector on a PE set, and the pipelined signature schedule of
//!   §III-B2/Figure 8 (`2x+1` cycles for the first bit, `x` for each bit
//!   after, thanks to the ORg register).
//! * [`config`] — array geometry (168 PEs), dataflow selection
//!   (row/weight/input-stationary, §IV) and the synchronous/asynchronous
//!   PE-set designs (§III-C1).
//! * [`sim`] — channel-level execution: given the counts of the channel's
//!   HIT/MAU/MNU outcomes (an [`OutcomeMix`](mercury_mcache::OutcomeMix)),
//!   computes baseline and MERCURY cycle counts, modelling per-filter
//!   barriers (sync) or the M-slot shared filter buffer with double input
//!   buffering (async).
//! * [`fc`] — fully-connected and attention layer timing (§III-C3/4) with
//!   earlier-PE result forwarding.
//!
//! Speedups reported by the experiment harness are ratios of these cycle
//! counts, exactly as the paper's speedups are ratios of FPGA cycle counts.
//!
//! # Examples
//!
//! ```
//! use mercury_accel::config::{AcceleratorConfig, Design};
//! use mercury_accel::sim::{simulate_channel, ChannelWork};
//! use mercury_mcache::{HitKind, OutcomeMix};
//!
//! let cfg = AcceleratorConfig::paper_default();
//! // 6 input vectors: four of them hit in MCACHE.
//! let outcomes = OutcomeMix::from_outcomes(&[
//!     HitKind::Mau, HitKind::Hit, HitKind::Hit,
//!     HitKind::Mau, HitKind::Hit, HitKind::Hit,
//! ]);
//! let work = ChannelWork::new(outcomes, 64, 3, 20);
//! let cycles = simulate_channel(&cfg, &work);
//! assert_eq!(cycles.reused_dots, 4 * 64);
//! assert!(cycles.total() > 0 && cycles.baseline > 0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod fc;
pub mod sim;
pub mod timing;
