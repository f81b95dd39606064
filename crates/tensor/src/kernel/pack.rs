//! The transpose between filter-major and position-major layouts.
//!
//! The packed-panel row kernel ([`sign`](super::sign)) dots rows against
//! the columns of a `[plen, n]` matrix, but conv kernels arrive as
//! `[n, plen]` (one filter per row), and the reuse engine's position-major
//! `[P, F]` accumulator must become an `[F, P]` map. [`transpose_pack`]
//! builds either transpose walking the **destination** contiguously — one
//! streaming write row per source column — instead of a strided-write
//! loop. A pure shuffle, so no SIMD variant is needed for the
//! bit-identical contract; the win is the access pattern.

/// Transposes an `[n, plen]` row-major matrix into `dst` as `[plen, n]`:
/// `dst[p·n + v] = src[v·plen + p]`.
///
/// # Panics
///
/// Panics if `src.len() != n * plen` or `dst.len() != plen * n`.
pub fn transpose_pack(dst: &mut [f32], src: &[f32], n: usize, plen: usize) {
    assert_eq!(src.len(), n * plen, "src must be [n, plen]");
    assert_eq!(dst.len(), plen * n, "dst must be [plen, n]");
    for p in 0..plen {
        let drow = &mut dst[p * n..(p + 1) * n];
        for (v, d) in drow.iter_mut().enumerate() {
            *d = src[v * plen + p];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn transpose_pack_matches_index_definition() {
        let mut rng = Rng::new(51);
        let (n, plen) = (7, 5);
        let src: Vec<f32> = (0..n * plen).map(|_| rng.next_normal()).collect();
        let mut dst = vec![0.0f32; plen * n];
        transpose_pack(&mut dst, &src, n, plen);
        for v in 0..n {
            for p in 0..plen {
                assert_eq!(dst[p * n + v].to_bits(), src[v * plen + p].to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "dst must be")]
    fn shape_mismatch_panics() {
        let mut dst = vec![0.0f32; 3];
        transpose_pack(&mut dst, &[1.0, 2.0, 3.0, 4.0], 2, 2);
    }
}
