//! Fully-connected and attention layer timing (paper §III-C3 and §III-C4).
//!
//! In the FC design, inputs and weights are divided into blocks; one PE
//! multiplies one input vector with weight columns `W1..WM` in sequence.
//! When an input's signature matches an earlier input's (HIT), the *earlier
//! PE* forwards each per-weight result to the later PE as it is produced,
//! in parallel with its own computation; the earlier PE only stalls when it
//! finishes a weight before the sends for the previous weight complete.
//!
//! Attention layers compute `W = X·Xᵀ` followed by `Y = W·X`; both are
//! matrix products over the same input vectors `xᵢ`, so reuse applies to
//! each (the paper treats the attention layer exactly like an FC layer).

use crate::config::AcceleratorConfig;
use crate::sim::ChannelCycles;
use crate::timing;
use mercury_mcache::OutcomeMix;

/// Work description for one fully-connected layer over a minibatch.
#[derive(Debug, Clone, Copy)]
pub struct FcWork {
    /// Counts of the per-input MCACHE outcomes over the minibatch.
    pub mix: OutcomeMix,
    /// Number of weight columns (`M` in Figure 12).
    pub num_weights: usize,
    /// Input vector length.
    pub input_len: usize,
    /// Signature length in bits.
    pub signature_bits: usize,
    /// When true, the signature phase is skipped (reloaded signatures).
    pub signatures_precomputed: bool,
}

impl FcWork {
    /// Creates an FC work description with a fresh signature phase.
    pub fn new(
        mix: OutcomeMix,
        num_weights: usize,
        input_len: usize,
        signature_bits: usize,
    ) -> Self {
        FcWork {
            mix,
            num_weights,
            input_len,
            signature_bits,
            signatures_precomputed: false,
        }
    }

    /// Marks signatures as reloaded rather than computed.
    pub fn with_precomputed_signatures(mut self) -> Self {
        self.signatures_precomputed = true;
        self
    }
}

/// Simulates one FC layer and returns the cycle accounting.
///
/// The FC design divides inputs *and weights* into blocks across the PE
/// array (Figure 12), and a PE that finishes its share early moves on to
/// the next block — "the earlier PE (after finishing block 1 input) loads
/// an input from block 2 and starts signature generation while other PEs
/// keep processing" (§III-C3). Work therefore conserves across the array:
/// the layer's span is total work divided by the PE count, never below
/// the cost of a single input's weight sweep split across the array.
/// Producers additionally stall when their result sends to followers
/// outpace their own compute.
pub fn simulate_fc(cfg: &AcceleratorConfig, work: &FcWork) -> ChannelCycles {
    let p = cfg.num_pes.max(1) as u64;
    let m = work.num_weights.max(1) as u64;
    let dot = timing::fc_dot_cycles(work.input_len.max(1));
    let fwd = cfg.timing.fc_forward_cycles;

    let sig_per_input = if work.signatures_precomputed {
        0
    } else {
        // One dot product per signature bit; FC PEs have a plain MAC, so
        // bits do not pipeline the way the row-stationary ORg path does.
        work.signature_bits as u64 * dot
    };

    // Producer send-stall: followers per producer over the whole batch.
    let hits_total = work.mix.hits as u64;
    let n = work.mix.total() as u64;
    let producers_total = n.saturating_sub(hits_total).max(1);
    let avg_followers = hits_total.div_ceil(producers_total);
    let send_stall = (avg_followers * m * fwd).saturating_sub(m * dot);

    // A HIT input forwards its producer's results; every other input
    // computes its whole weight sweep and pays the send-stall.
    let computed = n - hits_total;
    let total_work =
        hits_total * (m * fwd + cfg.timing.mcache_read_cycles) + computed * (m * dot + send_stall);
    ChannelCycles {
        signature: (n * sig_per_input).div_ceil(p),
        compute: total_work.div_ceil(p),
        baseline: (n * m * dot).div_ceil(p),
        reused_dots: hits_total * m,
        computed_dots: computed * m,
    }
}

/// Simulates one self-attention layer over `seq_len` input vectors of
/// dimension `head_dim`: the `W = X·Xᵀ` product followed by `Y = W·X`,
/// both reusing the similarity among the `xᵢ` (paper §III-C4).
pub fn simulate_attention(
    cfg: &AcceleratorConfig,
    mix: OutcomeMix,
    seq_len: usize,
    head_dim: usize,
    signature_bits: usize,
) -> ChannelCycles {
    // First product: each input row is dotted with all seq_len other rows.
    let first = simulate_fc(cfg, &FcWork::new(mix, seq_len, head_dim, signature_bits));
    // Second product reuses the same signatures (already computed).
    let second = simulate_fc(
        cfg,
        &FcWork::new(mix, seq_len, head_dim, signature_bits).with_precomputed_signatures(),
    );
    let mut total = first;
    total.accumulate(&second);
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use mercury_mcache::HitKind;

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig {
            num_pes: 8,
            ..AcceleratorConfig::paper_default()
        }
    }

    fn outcomes(hits: usize, maus: usize) -> OutcomeMix {
        let mut v = vec![HitKind::Mau; maus];
        v.extend(std::iter::repeat_n(HitKind::Hit, hits));
        OutcomeMix::from_outcomes(&v)
    }

    #[test]
    fn baseline_closed_form() {
        let o = outcomes(0, 16); // 2 blocks of 8
        let work = FcWork::new(o, 10, 64, 20);
        let c = simulate_fc(&cfg(), &work);
        // blocks(2) × weights(10) × (64+1)
        assert_eq!(c.baseline, 2 * 10 * 65);
    }

    #[test]
    fn hits_accelerate_fc() {
        let o_all_miss = outcomes(0, 16);
        let o_mostly_hit = outcomes(14, 2);
        let miss = simulate_fc(&cfg(), &FcWork::new(o_all_miss, 256, 64, 20));
        let hit = simulate_fc(&cfg(), &FcWork::new(o_mostly_hit, 256, 64, 20));
        assert!(hit.total() < miss.total());
        assert!(hit.speedup() > 1.0, "speedup {}", hit.speedup());
    }

    #[test]
    fn no_reuse_fc_pays_signature_overhead() {
        let o = outcomes(0, 8);
        let c = simulate_fc(&cfg(), &FcWork::new(o, 32, 64, 20));
        assert!(c.total() > c.baseline);
    }

    #[test]
    fn precomputed_signatures_skip_phase() {
        let o = outcomes(4, 4);
        let fresh = simulate_fc(&cfg(), &FcWork::new(o, 32, 64, 20));
        let reloaded = simulate_fc(
            &cfg(),
            &FcWork::new(o, 32, 64, 20).with_precomputed_signatures(),
        );
        assert_eq!(reloaded.signature, 0);
        assert!(reloaded.total() < fresh.total());
    }

    #[test]
    fn forwarding_is_cheaper_than_computing() {
        // A hit input's block cost must be below a miss input's when the
        // weight count dominates.
        let o_hit = outcomes(8, 0);
        let o_miss = outcomes(0, 8);
        let hit = simulate_fc(&cfg(), &FcWork::new(o_hit, 1024, 64, 20));
        let miss = simulate_fc(&cfg(), &FcWork::new(o_miss, 1024, 64, 20));
        assert!(hit.total() < miss.total());
    }

    #[test]
    fn dot_counters_partition_work() {
        let o = outcomes(5, 11);
        let c = simulate_fc(&cfg(), &FcWork::new(o, 7, 16, 20));
        assert_eq!(c.reused_dots, 5 * 7);
        assert_eq!(c.computed_dots, 11 * 7);
    }

    #[test]
    fn attention_runs_two_products() {
        let o = outcomes(6, 2);
        let att = simulate_attention(&cfg(), o, 8, 32, 20);
        let one = simulate_fc(&cfg(), &FcWork::new(o, 8, 32, 20));
        assert!(att.baseline > one.baseline);
        assert_eq!(att.reused_dots, 2 * one.reused_dots);
    }

    #[test]
    fn attention_with_similarity_beats_baseline() {
        let o = outcomes(48, 16);
        let att = simulate_attention(&cfg(), o, 256, 64, 20);
        assert!(att.speedup() > 1.0, "attention speedup {}", att.speedup());
    }

    #[test]
    fn empty_minibatch_is_free() {
        let o = OutcomeMix::from_outcomes(&[]);
        let c = simulate_fc(&cfg(), &FcWork::new(o, 8, 8, 8));
        assert_eq!(c.total(), 0);
        assert_eq!(c.baseline, 0);
    }
}
