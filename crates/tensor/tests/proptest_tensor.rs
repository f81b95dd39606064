//! Property-based tests for the tensor substrate.

use mercury_tensor::conv::{self, ConvGeometry};
use mercury_tensor::rng::Rng;
use mercury_tensor::{ops, Tensor};
use proptest::prelude::*;

fn small_f32() -> impl Strategy<Value = f32> {
    // Keep magnitudes small so accumulated float error stays well below the
    // comparison tolerances.
    (-100i32..100).prop_map(|x| x as f32 / 10.0)
}

proptest! {
    #[test]
    fn from_vec_roundtrips(data in proptest::collection::vec(small_f32(), 1..64)) {
        let len = data.len();
        let t = Tensor::from_vec(data.clone(), &[len]).unwrap();
        prop_assert_eq!(t.into_vec(), data);
    }

    #[test]
    fn add_is_commutative(
        data in proptest::collection::vec((small_f32(), small_f32()), 1..64)
    ) {
        let (xs, ys): (Vec<f32>, Vec<f32>) = data.into_iter().unzip();
        let n = xs.len();
        let a = Tensor::from_vec(xs, &[n]).unwrap();
        let b = Tensor::from_vec(ys, &[n]).unwrap();
        prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
    }

    #[test]
    fn scale_distributes_over_add(
        data in proptest::collection::vec((small_f32(), small_f32()), 1..32),
        k in -5i32..5
    ) {
        let k = k as f32;
        let (xs, ys): (Vec<f32>, Vec<f32>) = data.into_iter().unzip();
        let n = xs.len();
        let a = Tensor::from_vec(xs, &[n]).unwrap();
        let b = Tensor::from_vec(ys, &[n]).unwrap();
        let lhs = a.add(&b).unwrap().scale(k);
        let rhs = a.scale(k).add(&b.scale(k)).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn dot_is_symmetric(
        data in proptest::collection::vec((small_f32(), small_f32()), 1..64)
    ) {
        let (xs, ys): (Vec<f32>, Vec<f32>) = data.into_iter().unzip();
        let d1 = ops::dot(&xs, &ys);
        let d2 = ops::dot(&ys, &xs);
        prop_assert!((d1 - d2).abs() < 1e-3);
    }

    #[test]
    fn matmul_associates_with_identity(seed in 0u64..1000, m in 1usize..6, n in 1usize..6) {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn(&[m, n], &mut rng);
        let mut eye = Tensor::zeros(&[n, n]);
        for i in 0..n {
            eye.set(&[i, i], 1.0);
        }
        let prod = ops::matmul(&a, &eye).unwrap();
        for (x, y) in prod.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_is_involution(seed in 0u64..1000, r in 1usize..8, c in 1usize..8) {
        let mut rng = Rng::new(seed);
        let t = Tensor::randn(&[r, c], &mut rng);
        let tt = ops::transpose(&ops::transpose(&t).unwrap()).unwrap();
        prop_assert_eq!(t, tt);
    }

    /// conv2d via im2col must agree with a direct six-deep loop bit for
    /// bit: per output one chain over (channel, tap) from `+0.0`, padded
    /// taps skipped. F up to 33 spans row-kernel panels of one to five
    /// blocks — the one- to three-block passes and the grouped path with
    /// its tail — and stride 2 the subsampled im2col.
    #[test]
    fn conv_agrees_with_direct_loops(
        seed in 0u64..500,
        h in 3usize..8,
        w in 3usize..8,
        pad in 0usize..2,
        f in 1usize..34,
        stride in 1usize..3,
    ) {
        let mut rng = Rng::new(seed);
        let input = Tensor::randn(&[2, h, w], &mut rng);
        let kernels = Tensor::randn(&[f, 2, 3, 3], &mut rng);
        let out = conv::conv2d_multi(&input, &kernels, stride, pad).unwrap();
        let geom = ConvGeometry::new(h, w, 3, 3, stride, pad).unwrap();
        for fi in 0..f {
            for oy in 0..geom.out_h() {
                for ox in 0..geom.out_w() {
                    let mut acc = 0.0f32;
                    for ch in 0..2 {
                        for ky in 0..3 {
                            for kx in 0..3 {
                                let y = (oy * stride + ky) as isize - pad as isize;
                                let x = (ox * stride + kx) as isize - pad as isize;
                                if y >= 0 && x >= 0 && (y as usize) < h && (x as usize) < w {
                                    acc += input.at(&[ch, y as usize, x as usize])
                                        * kernels.at(&[fi, ch, ky, kx]);
                                }
                            }
                        }
                    }
                    prop_assert_eq!(out.at(&[fi, oy, ox]).to_bits(), acc.to_bits());
                }
            }
        }
    }

    /// Patch extraction must produce exactly the vectors the direct
    /// definition describes, on both sides of the width-3 copy: kernel
    /// widths 1, 2, 3 and 5, strides 1 and 2, and every padding narrower
    /// than the kernel.
    #[test]
    fn patches_agree_with_definition(
        seed in 0u64..500,
        h in 3usize..9,
        w in 3usize..9,
        kh in 1usize..4,
        kw_pick in 0usize..4,
        stride in 1usize..3,
        pad_pick in 0usize..5,
    ) {
        let kw = [1, 2, 3, 5][kw_pick];
        let pad = pad_pick % kw;
        let mut rng = Rng::new(seed);
        let channel = Tensor::randn(&[h, w], &mut rng);
        let geom = ConvGeometry::new(h, w, kh, kw, stride, pad);
        prop_assume!(geom.is_ok());
        let geom = geom.unwrap();
        let patches = conv::extract_patches(&channel, &geom).unwrap();
        for oy in 0..geom.out_h() {
            for ox in 0..geom.out_w() {
                let row = oy * geom.out_w() + ox;
                for ky in 0..kh {
                    for kx in 0..kw {
                        let y = (oy * stride + ky) as isize - pad as isize;
                        let x = (ox * stride + kx) as isize - pad as isize;
                        let inside = (0..h as isize).contains(&y) && (0..w as isize).contains(&x);
                        let want = if inside {
                            channel.at(&[y as usize, x as usize])
                        } else {
                            0.0
                        };
                        prop_assert_eq!(patches.at(&[row, ky * kw + kx]).to_bits(), want.to_bits());
                    }
                }
            }
        }
    }

    /// Pooling backward must conserve gradient mass.
    #[test]
    fn pool_backward_conserves_gradient(seed in 0u64..500, h in 2usize..9, w in 2usize..9) {
        let mut rng = Rng::new(seed);
        let input = Tensor::randn(&[1, h, w], &mut rng);
        let (out, argmax) = conv::max_pool2(&input).unwrap();
        let dout = Tensor::full(out.shape(), 1.0);
        let dx = conv::max_pool2_backward(&dout, &argmax, &[1, h, w]);
        prop_assert!((dx.sum() - dout.sum()).abs() < 1e-4);
    }
}
