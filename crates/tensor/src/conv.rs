//! Convolution primitives: patch ("input vector") extraction and the exact
//! conv2d forward and backward passes.
//!
//! MERCURY operates on *input vectors*: `k1×k2` patches extracted from an
//! input feature map, each of which is dotted with filter weights (§III-B1
//! of the paper). [`extract_patches`] produces exactly those vectors.
//! [`conv2d_multi`] computes the forward pass with every dot product done
//! once, and [`conv2d_backward_weights`] /
//! [`conv2d_backward_input`] implement equations (1) and (2) of §II-C, the
//! two computations of the backward pass. All of them run as one im2col of
//! every channel plus the packed-panel row kernel
//! ([`dot_rows`](crate::kernel::sign::dot_rows)) — the kernel the reuse
//! engine computes its signatures and its compute rows with. A training
//! step without reuse runs exactly these passes; with reuse, the engine
//! replaces the forward and input-gradient convolutions (and is checked
//! against them), while the weight gradient stays exact.

use crate::kernel::sign::{self, LANES};
use crate::scratch::ScratchF32;
use crate::{kernel, Tensor, TensorError};

/// Geometry of a 2-D convolution over a `[C, H, W]` input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Kernel height (`k1` in the paper).
    pub kernel_h: usize,
    /// Kernel width (`k2` in the paper).
    pub kernel_w: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub pad: usize,
}

impl ConvGeometry {
    /// Creates a geometry, validating that at least one output position
    /// exists and that every size the passes derive from it fits in
    /// `usize`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidConv`] when the kernel does not fit in
    /// the padded input, any size/stride is zero, or the padded extents,
    /// the output position count or the per-channel im2col element count
    /// overflow `usize`.
    pub fn new(
        height: usize,
        width: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self, TensorError> {
        if height == 0 || width == 0 || kernel_h == 0 || kernel_w == 0 || stride == 0 {
            return Err(TensorError::InvalidConv(
                "sizes and stride must be positive".to_string(),
            ));
        }
        let padded = |extent: usize| pad.checked_mul(2).and_then(|p| p.checked_add(extent));
        let (Some(padded_h), Some(padded_w)) = (padded(height), padded(width)) else {
            return Err(TensorError::InvalidConv(format!(
                "pad {pad} overflows the padded extent of a {height}x{width} input"
            )));
        };
        if padded_h < kernel_h || padded_w < kernel_w {
            return Err(TensorError::InvalidConv(format!(
                "kernel {kernel_h}x{kernel_w} larger than padded input {padded_h}x{padded_w}"
            )));
        }
        let geom = ConvGeometry {
            height,
            width,
            kernel_h,
            kernel_w,
            stride,
            pad,
        };
        // `num_patches` and `patch_len` multiply unchecked: validate both
        // products, and the im2col size they make, once here.
        geom.out_h()
            .checked_mul(geom.out_w())
            .zip(kernel_h.checked_mul(kernel_w))
            .and_then(|(patches, plen)| patches.checked_mul(plen))
            .ok_or_else(|| {
                TensorError::InvalidConv(format!(
                    "im2col of a {height}x{width} input with pad {pad} and a \
                     {kernel_h}x{kernel_w} kernel overflows usize"
                ))
            })?;
        Ok(geom)
    }

    /// Number of output rows.
    pub fn out_h(&self) -> usize {
        (self.height + 2 * self.pad - self.kernel_h) / self.stride + 1
    }

    /// Number of output columns.
    pub fn out_w(&self) -> usize {
        (self.width + 2 * self.pad - self.kernel_w) / self.stride + 1
    }

    /// Number of input vectors (patches) a single channel yields — one per
    /// output position.
    pub fn num_patches(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Length of each input vector.
    pub fn patch_len(&self) -> usize {
        self.kernel_h * self.kernel_w
    }
}

/// Extracts the input vectors of one channel as an `[n_patches, k1*k2]`
/// matrix (im2col layout).
///
/// Out-of-bounds positions introduced by padding read as zero.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `channel` is not 2-D, or
/// [`TensorError::ShapeMismatch`] if its shape disagrees with `geom`.
///
/// # Examples
///
/// ```
/// use mercury_tensor::{conv::{extract_patches, ConvGeometry}, Tensor};
///
/// # fn main() -> Result<(), mercury_tensor::TensorError> {
/// let input = Tensor::from_vec((1..=25).map(|x| x as f32).collect(), &[5, 5])?;
/// let geom = ConvGeometry::new(5, 5, 3, 3, 1, 0)?;
/// let patches = extract_patches(&input, &geom)?;
/// assert_eq!(patches.shape(), &[9, 9]); // 3x3 output positions, 9-element vectors
/// # Ok(())
/// # }
/// ```
pub fn extract_patches(channel: &Tensor, geom: &ConvGeometry) -> Result<Tensor, TensorError> {
    if channel.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: channel.rank(),
        });
    }
    if channel.shape() != [geom.height, geom.width] {
        return Err(TensorError::ShapeMismatch {
            left: channel.shape().to_vec(),
            right: vec![geom.height, geom.width],
        });
    }
    let mut buf = Vec::new();
    extract_patches_into(channel.data(), geom, &mut buf)?;
    Tensor::from_vec(buf, &[geom.num_patches(), geom.patch_len()])
}

/// Like [`extract_patches`], but reading the channel from a borrowed
/// row-major `height × width` slice and writing the im2col matrix into a
/// reusable buffer (resized to `num_patches × patch_len`), so per-channel
/// hot loops allocate nothing after the first iteration.
///
/// With padding, the channel is first copied into a zero-bordered
/// `(height + 2·pad) × (width + 2·pad)` plane staged in a [`ScratchF32`]
/// (recycled per thread, so repeated calls still allocate nothing). Every
/// kernel window then lies inside the plane, and each patch row is one
/// straight window copy with no edge clipping.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `channel.len()` differs from
/// `geom.height * geom.width`.
pub fn extract_patches_into(
    channel: &[f32],
    geom: &ConvGeometry,
    out: &mut Vec<f32>,
) -> Result<(), TensorError> {
    if channel.len() != geom.height * geom.width {
        return Err(TensorError::ShapeMismatch {
            left: vec![channel.len()],
            right: vec![geom.height, geom.width],
        });
    }
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let (kh, kw, pad) = (geom.kernel_h, geom.kernel_w, geom.pad);
    let plen = geom.patch_len();
    let padded;
    let (plane, width) = if pad == 0 {
        (channel, geom.width)
    } else {
        let width = geom.width + 2 * pad;
        let mut buf = ScratchF32::take();
        buf.resize((geom.height + 2 * pad) * width, 0.0);
        for (y, row) in channel.chunks_exact(geom.width).enumerate() {
            let at = (y + pad) * width + pad;
            buf[at..at + geom.width].copy_from_slice(row);
        }
        padded = buf;
        (&padded[..], width)
    };
    // Every slot below is overwritten, so a correctly sized buffer (the
    // per-worker scratch case — every channel of a layer shares one
    // geometry) needs no clearing.
    out.resize(oh * ow * plen, 0.0);
    // Per output row, kernel row ky of every patch is a *sliding window*
    // over one plane row: consecutive patches read windows `stride`
    // elements apart, so the copy is a straight windows/chunks zip.
    for (oy, drows) in out.chunks_exact_mut(ow * plen).enumerate() {
        for ky in 0..kh {
            let y = oy * geom.stride + ky;
            let srow = &plane[y * width..(y + 1) * width];
            if kw == 3 {
                copy_windows::<3>(drows, srow, plen, ky * 3, geom.stride);
            } else {
                let windows = srow.windows(kw).step_by(geom.stride);
                for (patch, win) in drows.chunks_exact_mut(plen).zip(windows) {
                    // Tiny copy: an element loop inlines where
                    // `copy_from_slice` would pay a `memcpy` call per
                    // patch.
                    for (d, &s) in patch[ky * kw..ky * kw + kw].iter_mut().zip(win) {
                        *d = s;
                    }
                }
            }
        }
    }
    Ok(())
}

/// The window copy of [`extract_patches_into`] for a kernel `KW` wide:
/// the `i`-th `plen`-element patch of `dst` takes the `KW` elements of
/// `src` starting at `i·stride` into its slots `off..off + KW`. A
/// compile-time width turns each patch's copy into one fixed-size move.
#[inline]
fn copy_windows<const KW: usize>(
    dst: &mut [f32],
    src: &[f32],
    plen: usize,
    off: usize,
    stride: usize,
) {
    for (patch, win) in dst
        .chunks_exact_mut(plen)
        .zip(src.windows(KW).step_by(stride))
    {
        let win: &[f32; KW] = win.try_into().expect("windows are KW wide");
        let slot: &mut [f32; KW] = (&mut patch[off..off + KW])
            .try_into()
            .expect("a KW-wide slot");
        *slot = *win;
    }
}

/// Convolves a `[C, H, W]` input with `[F, C, k1, k2]` kernels, producing a
/// `[F, out_h, out_w]` map.
///
/// This is the reference implementation the MERCURY reuse engine is checked
/// against: it performs every dot product exactly once, with no memoization.
///
/// Computed as one im2col of every channel, `cols[oh·ow, C·k1·k2]`, whose
/// rows the packed-panel row kernel dots with every filter of
/// [`filter_panels`]; the `[oh·ow, F]` result is transposed to
/// `[F, oh, ow]`. Each output is one chain over (channel, tap) in
/// ascending order, from `+0.0`, with a separate multiply and add.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
/// for malformed operands and [`TensorError::InvalidConv`] when the kernel
/// does not fit.
pub fn conv2d_multi(
    input: &Tensor,
    kernels: &Tensor,
    stride: usize,
    pad: usize,
) -> Result<Tensor, TensorError> {
    if input.rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: input.rank(),
        });
    }
    if kernels.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: kernels.rank(),
        });
    }
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (f, kc, kh, kw) = (
        kernels.shape()[0],
        kernels.shape()[1],
        kernels.shape()[2],
        kernels.shape()[3],
    );
    if c != kc {
        return Err(TensorError::ShapeMismatch {
            left: input.shape().to_vec(),
            right: kernels.shape().to_vec(),
        });
    }
    let geom = ConvGeometry::new(h, w, kh, kw, stride, pad)?;
    let mut out = Tensor::zeros(&[f, geom.out_h(), geom.out_w()]);
    let (positions, row) = (geom.num_patches(), c * geom.patch_len());
    let cols = im2col(input, &geom, row)?;
    let ld = f.div_ceil(LANES) * LANES;
    let mut dots = ScratchF32::zeroed(positions * ld);
    sign::dot_rows(&cols, row, ld / LANES, &filter_panels(kernels), &mut dots);
    for (fi, orow) in out.data_mut().chunks_exact_mut(positions).enumerate() {
        for (o, drow) in orow.iter_mut().zip(dots.chunks_exact(ld)) {
            *o = drow[fi];
        }
    }
    Ok(out)
}

/// Packs `[F, C, k1, k2]` kernels once into the row kernel's panels: the
/// filters as one `[C·k1·k2, F]` matrix in zero-padded
/// [`LANES`]-wide blocks (see [`pack_panels`](sign::pack_panels)), so
/// channel `ch`'s panel is the `ch`-th run of `k1·k2·⌈F/LANES⌉·LANES`
/// values. [`conv2d_multi`] dots every channel's taps against the whole
/// matrix; the reuse engine slices it per channel.
///
/// # Panics
///
/// Panics if `kernels` is not 4-D.
pub fn filter_panels(kernels: &Tensor) -> Vec<f32> {
    let &[f, c, kh, kw] = kernels.shape() else {
        panic!(
            "filter_panels needs [F, C, k1, k2] kernels, got {:?}",
            kernels.shape()
        );
    };
    let row = c * kh * kw;
    let mut t = ScratchF32::zeroed(row * f);
    kernel::pack::transpose_pack(&mut t, kernels.data(), f, row);
    let mut panels = Vec::new();
    sign::pack_panels(&t, row, f, f, &mut panels);
    panels
}

/// The im2col of every channel of a `[C, H, W]` input, for both exact
/// passes: row `p` of the `[oh·ow, ld]` result is output position `p`'s
/// receptive field over every channel, channel-major (the flat layout of
/// one `[C, k1, k2]` kernel), followed by `ld − C·k1·k2` zeros.
fn im2col(input: &Tensor, geom: &ConvGeometry, ld: usize) -> Result<ScratchF32, TensorError> {
    let plen = geom.patch_len();
    let mut cols = ScratchF32::zeroed(geom.num_patches() * ld);
    let mut panel = ScratchF32::take();
    let channels = input.data().chunks_exact(geom.height * geom.width);
    for (ch, channel) in channels.enumerate() {
        extract_patches_into(channel, geom, &mut panel)?; // [oh·ow, plen]
        for (dst, patch) in cols.chunks_exact_mut(ld).zip(panel.chunks_exact(plen)) {
            dst[ch * plen..(ch + 1) * plen].copy_from_slice(patch);
        }
    }
    Ok(cols)
}

/// Gradient of the loss w.r.t. the kernels — equation (1) of the paper:
/// `dW[m,n] = Σ_{i,j} δ[i,j] · O[i+m, j+n]`, a convolution between the
/// output gradient and the layer input.
///
/// Computed as one im2col, `cols[oh·ow, C·k1·k2]` with each row
/// zero-padded to whole [`LANES`]-wide blocks — already the row kernel's
/// panel layout — against which every output-gradient row is dotted:
/// `dW[F, C·k1·k2] = δ[F, oh·ow] × cols`. Each weight sums over the output
/// positions in row-major `(i, j)` order from `+0.0`, without FMA, and the
/// zero-padded taps only add `±0` to that sum, so the result equals the
/// direct six-deep loop bit for bit on finite inputs.
///
/// Supports stride-1 convolutions (the configuration the paper's equations
/// are stated for).
///
/// # Errors
///
/// Returns shape errors for malformed operands and
/// [`TensorError::InvalidConv`] for non-unit stride.
pub fn conv2d_backward_weights(
    input: &Tensor,
    dout: &Tensor,
    kernel_h: usize,
    kernel_w: usize,
    stride: usize,
    pad: usize,
) -> Result<Tensor, TensorError> {
    if stride != 1 {
        return Err(TensorError::InvalidConv(
            "backward pass implemented for stride 1 (as in the paper's eq. 1)".to_string(),
        ));
    }
    if input.rank() != 3 || dout.rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: if input.rank() != 3 {
                input.rank()
            } else {
                dout.rank()
            },
        });
    }
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (f, oh, ow) = (dout.shape()[0], dout.shape()[1], dout.shape()[2]);
    let geom = ConvGeometry::new(h, w, kernel_h, kernel_w, 1, pad)?;
    if (geom.out_h(), geom.out_w()) != (oh, ow) {
        return Err(TensorError::ShapeMismatch {
            left: dout.shape().to_vec(),
            right: vec![f, geom.out_h(), geom.out_w()],
        });
    }
    let (positions, row) = (oh * ow, c * geom.patch_len());
    let ld = row.div_ceil(LANES) * LANES;
    let cols = im2col(input, &geom, ld)?;
    let mut dw = vec![0.0f32; f * ld];
    sign::dot_rows(dout.data(), positions, ld / LANES, &cols, &mut dw);
    // Close up each gradient row's padding columns in place.
    for fi in 1..f {
        dw.copy_within(fi * ld..fi * ld + row, fi * row);
    }
    dw.truncate(f * row);
    Tensor::from_vec(dw, &[f, c, kernel_h, kernel_w])
}

/// Gradient of the loss w.r.t. the layer input — equation (2) of the paper:
/// `dX[i,j] = Σ_{m,n} δ[i−m, j−n] · W[m,n]`, a full convolution between the
/// (zero-padded) output gradient and the kernels.
///
/// Computed as [`conv2d_multi`] of `dout` with [`flip_kernels`] of the
/// kernels and padding `k − 1 − pad` — the same call the reuse engine
/// serves for a conv layer's input gradient, so the exact and MERCURY
/// backward passes differ only in what the engine memoizes.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless `kernels` is 4-D and
/// `dout` 3-D, [`TensorError::ShapeMismatch`] when `dout` is not the
/// output of a `(input_h, input_w)` input under these kernels, and
/// [`TensorError::InvalidConv`] for non-unit stride, a non-square kernel,
/// or `pad >= k`.
pub fn conv2d_backward_input(
    kernels: &Tensor,
    dout: &Tensor,
    input_h: usize,
    input_w: usize,
    stride: usize,
    pad: usize,
) -> Result<Tensor, TensorError> {
    if stride != 1 {
        return Err(TensorError::InvalidConv(
            "backward pass implemented for stride 1 (as in the paper's eq. 2)".to_string(),
        ));
    }
    for (t, rank) in [(kernels, 4), (dout, 3)] {
        if t.rank() != rank {
            return Err(TensorError::RankMismatch {
                expected: rank,
                actual: t.rank(),
            });
        }
    }
    let (f, kh, kw) = (kernels.shape()[0], kernels.shape()[2], kernels.shape()[3]);
    if kh != kw || pad >= kh {
        return Err(TensorError::InvalidConv(format!(
            "input gradient needs a square kernel wider than its padding, got {kh}x{kw} with pad {pad}"
        )));
    }
    let geom = ConvGeometry::new(input_h, input_w, kh, kw, 1, pad)?;
    let expected = [f, geom.out_h(), geom.out_w()];
    if dout.shape() != expected {
        return Err(TensorError::ShapeMismatch {
            left: dout.shape().to_vec(),
            right: expected.to_vec(),
        });
    }
    conv2d_multi(dout, &flip_kernels(kernels), 1, kh - 1 - pad)
}

/// Reverses each kernel spatially and swaps the filter and channel axes:
/// `[F, C, k1, k2] → [C, F, k1, k2]` with 180°-rotated taps — the kernels
/// of the input-gradient convolution (eq. 2).
///
/// # Panics
///
/// Panics if `kernels` is not 4-D.
pub fn flip_kernels(kernels: &Tensor) -> Tensor {
    let &[f, c, kh, kw] = kernels.shape() else {
        panic!(
            "flip_kernels needs [F, C, k1, k2] kernels, got {:?}",
            kernels.shape()
        );
    };
    // A row-major k1×k2 block rotated by 180° is the block read backwards.
    let plen = kh * kw;
    let src = kernels.data();
    let mut out = Vec::with_capacity(src.len());
    for ch in 0..c {
        for fi in 0..f {
            let taps = &src[(fi * c + ch) * plen..(fi * c + ch + 1) * plen];
            out.extend(taps.iter().rev());
        }
    }
    Tensor::from_vec(out, &[c, f, kh, kw]).expect("a permutation keeps the element count")
}

/// 2×2 max pooling with stride 2 over a `[C, H, W]` tensor; also returns the
/// argmax mask needed for the backward pass.
///
/// Odd trailing rows/columns are dropped, as in common DNN frameworks.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-3-D input and
/// [`TensorError::InvalidConv`] if the spatial size is below 2.
pub fn max_pool2(input: &Tensor) -> Result<(Tensor, Vec<usize>), TensorError> {
    if input.rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: input.rank(),
        });
    }
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    if h < 2 || w < 2 {
        return Err(TensorError::InvalidConv(
            "max_pool2 requires spatial size of at least 2".to_string(),
        ));
    }
    let (oh, ow) = (h / 2, w / 2);
    let src = input.data();
    let mut out = Vec::with_capacity(c * oh * ow);
    let mut argmax = Vec::with_capacity(c * oh * ow);
    for ch in 0..c {
        for oy in 0..oh {
            let top = ch * h * w + 2 * oy * w;
            for ox in 0..ow {
                // Window taps in row-major order; the strict `>` keeps the
                // first of equal maxima.
                let mut best = f32::NEG_INFINITY;
                let mut best_off = 0;
                for row in [top, top + w] {
                    for off in [row + 2 * ox, row + 2 * ox + 1] {
                        if src[off] > best {
                            best = src[off];
                            best_off = off;
                        }
                    }
                }
                out.push(best);
                argmax.push(best_off);
            }
        }
    }
    Ok((Tensor::from_vec(out, &[c, oh, ow])?, argmax))
}

/// Scatters pooled gradients back through the argmax mask produced by
/// [`max_pool2`].
///
/// # Panics
///
/// Panics if `argmax` length differs from `dout` length or contains offsets
/// outside the original input (an internal-invariant violation).
pub fn max_pool2_backward(dout: &Tensor, argmax: &[usize], input_shape: &[usize]) -> Tensor {
    assert_eq!(dout.len(), argmax.len(), "argmax mask length mismatch");
    let mut dx = Tensor::zeros(input_shape);
    let dxd = dx.data_mut();
    for (g, &off) in dout.data().iter().zip(argmax) {
        dxd[off] += g;
    }
    dx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Equation (1) as the direct six-deep loop: the reference that
    /// [`conv2d_backward_weights`] must match bit for bit.
    fn direct_backward_weights(input: &Tensor, dout: &Tensor, k: usize, pad: usize) -> Tensor {
        let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let (f, oh, ow) = (dout.shape()[0], dout.shape()[1], dout.shape()[2]);
        let mut dw = Tensor::zeros(&[f, c, k, k]);
        for fi in 0..f {
            for ch in 0..c {
                for m in 0..k {
                    for n in 0..k {
                        let mut acc = 0.0;
                        for i in 0..oh {
                            for j in 0..ow {
                                let y = i as isize + m as isize - pad as isize;
                                let x = j as isize + n as isize - pad as isize;
                                if y >= 0 && x >= 0 && (y as usize) < h && (x as usize) < w {
                                    acc += dout.at(&[fi, i, j])
                                        * input.at(&[ch, y as usize, x as usize]);
                                }
                            }
                        }
                        dw.set(&[fi, ch, m, n], acc);
                    }
                }
            }
        }
        dw
    }

    /// Equation (2) as the direct scatter loop: the reference that
    /// [`conv2d_backward_input`] must match bit for bit.
    fn direct_backward_input(
        kernels: &Tensor,
        dout: &Tensor,
        (h, w): (usize, usize),
        pad: usize,
    ) -> Tensor {
        let (f, c, k) = (kernels.shape()[0], kernels.shape()[1], kernels.shape()[2]);
        let (oh, ow) = (dout.shape()[1], dout.shape()[2]);
        let mut dx = Tensor::zeros(&[c, h, w]);
        for fi in 0..f {
            for i in 0..oh {
                for j in 0..ow {
                    let g = dout.at(&[fi, i, j]);
                    if g == 0.0 {
                        continue;
                    }
                    for ch in 0..c {
                        for m in 0..k {
                            for n in 0..k {
                                let y = i as isize + m as isize - pad as isize;
                                let x = j as isize + n as isize - pad as isize;
                                if y >= 0 && x >= 0 && (y as usize) < h && (x as usize) < w {
                                    let cur = dx.at(&[ch, y as usize, x as usize]);
                                    dx.set(
                                        &[ch, y as usize, x as usize],
                                        cur + g * kernels.at(&[fi, ch, m, n]),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        dx
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Both backward passes equal their direct loops bit for bit over a
    /// grid of single- and multi-channel inputs, kernel sizes and
    /// paddings, non-square maps, and dense or ReLU-masked output
    /// gradients (exact zeros). Both run on the packed-panel row kernel.
    /// The weight gradient's panels are `C·k²` wide, so the grid reaches
    /// every pass: one block (`C·k² <= 8`), two (C = 1, k = 3), three
    /// (C = 2, k = 3), four-block groups (`C·k²` = 25, 27) and groups with
    /// a tail (C = 2 or 3, k = 5); F = 67 rows leave a remainder after
    /// every multi-row step. The input gradient's one-block panels hold
    /// the C input channels, dotted with rows of `F·k²` taps.
    #[test]
    fn backward_passes_match_direct_loops_bit_for_bit() {
        let mut rng = Rng::new(41);
        let mut cases = 0;
        for c in [1, 2, 3] {
            for k in [1, 3, 5] {
                for pad in [0, 1, 2] {
                    for (h, w) in [(7, 5), (4, 9), (9, 8)] {
                        if h + 2 * pad < k || w + 2 * pad < k {
                            continue;
                        }
                        let (oh, ow) = (h + 2 * pad - k + 1, w + 2 * pad - k + 1);
                        for f in [2, 67] {
                            for relu_masked in [false, true] {
                                let input = Tensor::randn(&[c, h, w], &mut rng);
                                let kernels = Tensor::randn(&[f, c, k, k], &mut rng);
                                let mut dout = Tensor::randn(&[f, oh, ow], &mut rng);
                                if relu_masked {
                                    dout = crate::ops::relu(&dout);
                                    assert!(dout.data().contains(&0.0));
                                }
                                let what = format!(
                                    "C={c} k={k} pad={pad} map={h}x{w} F={f} masked={relu_masked}"
                                );
                                let dw =
                                    conv2d_backward_weights(&input, &dout, k, k, 1, pad).unwrap();
                                assert_eq!(
                                    bits(&dw),
                                    bits(&direct_backward_weights(&input, &dout, k, pad)),
                                    "weights {what}"
                                );
                                if pad < k {
                                    let dx = conv2d_backward_input(&kernels, &dout, h, w, 1, pad)
                                        .unwrap();
                                    assert_eq!(
                                        bits(&dx),
                                        bits(&direct_backward_input(&kernels, &dout, (h, w), pad)),
                                        "input {what}"
                                    );
                                }
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(cases > 100, "grid ran {cases} cases");
    }

    #[test]
    fn flip_kernels_rotates_and_transposes() {
        let k = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[2, 1, 2, 2]).unwrap();
        let f = flip_kernels(&k);
        assert_eq!(f.shape(), &[1, 2, 2, 2]);
        // Filter 0, channel 0 of the original becomes channel 0, filter 0,
        // rotated 180 degrees.
        assert_eq!(f.at(&[0, 0, 0, 0]), k.at(&[0, 0, 1, 1]));
        assert_eq!(f.at(&[0, 1, 1, 1]), k.at(&[1, 0, 0, 0]));

        // Every element lands at its rotated, transposed index.
        let k = Tensor::randn(&[3, 2, 2, 3], &mut Rng::new(5));
        let f = flip_kernels(&k);
        assert_eq!(f.shape(), &[2, 3, 2, 3]);
        for (fi, ch, y, x) in (0..3)
            .flat_map(|fi| (0..2).map(move |ch| (fi, ch)))
            .flat_map(|(fi, ch)| (0..2).flat_map(move |y| (0..3).map(move |x| (fi, ch, y, x))))
        {
            assert_eq!(f.at(&[ch, fi, 1 - y, 2 - x]), k.at(&[fi, ch, y, x]));
        }
    }

    #[test]
    fn backward_input_rejects_a_rank_two_dout() {
        let kernels = Tensor::zeros(&[2, 1, 3, 3]);
        assert_eq!(
            conv2d_backward_input(&kernels, &Tensor::zeros(&[2, 16]), 4, 4, 1, 1).unwrap_err(),
            TensorError::RankMismatch {
                expected: 3,
                actual: 2
            }
        );
    }

    #[test]
    fn backward_input_rejects_a_dout_of_another_geometry() {
        // A 3x3 kernel with pad 1 keeps a 5x5 input at 5x5, so a 5x5
        // gradient cannot come from a 6x5 input.
        let kernels = Tensor::zeros(&[2, 1, 3, 3]);
        let dout = Tensor::zeros(&[2, 5, 5]);
        assert!(conv2d_backward_input(&kernels, &dout, 5, 5, 1, 1).is_ok());
        assert_eq!(
            conv2d_backward_input(&kernels, &dout, 6, 5, 1, 1).unwrap_err(),
            TensorError::ShapeMismatch {
                left: vec![2, 5, 5],
                right: vec![2, 6, 5]
            }
        );
        // So can a gradient with the wrong filter count.
        assert!(matches!(
            conv2d_backward_input(&kernels, &Tensor::zeros(&[3, 5, 5]), 5, 5, 1, 1),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn backward_input_rejects_padding_of_a_kernel_width() {
        // pad 3 around a 3x3 kernel: the input-gradient convolution would
        // need negative padding.
        let kernels = Tensor::zeros(&[1, 1, 3, 3]);
        let dout = Tensor::zeros(&[1, 8, 8]);
        assert!(matches!(
            conv2d_backward_input(&kernels, &dout, 4, 4, 1, 3).unwrap_err(),
            TensorError::InvalidConv(_)
        ));
        // As does a non-square kernel, whose two axes would need
        // different paddings.
        let wide = Tensor::zeros(&[1, 1, 1, 3]);
        assert!(matches!(
            conv2d_backward_input(&wide, &Tensor::zeros(&[1, 4, 2]), 4, 4, 1, 0).unwrap_err(),
            TensorError::InvalidConv(_)
        ));
    }

    #[test]
    fn geometry_output_sizes() {
        let g = ConvGeometry::new(5, 5, 3, 3, 1, 0).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (3, 3));
        assert_eq!(g.num_patches(), 9);
        assert_eq!(g.patch_len(), 9);

        let g = ConvGeometry::new(7, 7, 3, 3, 2, 1).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (4, 4));
    }

    #[test]
    fn geometry_rejects_oversized_kernel() {
        assert!(ConvGeometry::new(2, 2, 3, 3, 1, 0).is_err());
        // With padding 1 the 3x3 kernel fits a 2x2 input.
        assert!(ConvGeometry::new(2, 2, 3, 3, 1, 1).is_ok());
    }

    #[test]
    fn geometry_rejects_overflowing_sizes_instead_of_panicking() {
        // `8 + 2·pad` overflows; then a pad whose padded extent fits but
        // whose output position count does not.
        for pad in [usize::MAX / 2 + 1, 1 << 40] {
            assert!(
                matches!(
                    ConvGeometry::new(8, 8, 3, 3, 1, pad),
                    Err(TensorError::InvalidConv(_))
                ),
                "pad {pad}"
            );
        }
        // Positions fit but positions × patch length does not.
        assert!(matches!(
            ConvGeometry::new(1, 1, 1 << 32, 1 << 31, 1, 1 << 31),
            Err(TensorError::InvalidConv(_))
        ));
    }

    #[test]
    fn patches_match_paper_example() {
        // The paper's running example: 5x5 input, 3x3 kernels, 9 vectors.
        let input = Tensor::from_vec((0..25).map(|x| x as f32).collect(), &[5, 5]).unwrap();
        let geom = ConvGeometry::new(5, 5, 3, 3, 1, 0).unwrap();
        let p = extract_patches(&input, &geom).unwrap();
        assert_eq!(p.shape(), &[9, 9]);
        // First patch is the top-left 3x3 block.
        assert_eq!(
            &p.data()[0..9],
            &[0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 10.0, 11.0, 12.0]
        );
        // Patch 4 (centre) starts at (1,1).
        assert_eq!(
            &p.data()[4 * 9..5 * 9],
            &[6.0, 7.0, 8.0, 11.0, 12.0, 13.0, 16.0, 17.0, 18.0]
        );
    }

    #[test]
    fn patches_zero_pad() {
        let input = Tensor::full(&[2, 2], 1.0);
        let geom = ConvGeometry::new(2, 2, 3, 3, 1, 1).unwrap();
        let p = extract_patches(&input, &geom).unwrap();
        assert_eq!(p.shape(), &[4, 9]);
        // Top-left patch: only the bottom-right 2x2 sub-block is inside.
        assert_eq!(
            &p.data()[0..9],
            &[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]
        );
    }

    #[test]
    fn extract_patches_into_matches_and_reuses_buffer() {
        let mut rng = Rng::new(77);
        let a = Tensor::randn(&[6, 7], &mut rng);
        let geom_a = ConvGeometry::new(6, 7, 3, 3, 1, 1).unwrap();
        let b = Tensor::randn(&[5, 5], &mut rng);
        let geom_b = ConvGeometry::new(5, 5, 3, 3, 2, 0).unwrap();

        let mut buf = Vec::new();
        extract_patches_into(a.data(), &geom_a, &mut buf).unwrap();
        assert_eq!(buf, extract_patches(&a, &geom_a).unwrap().data());
        // Reusing the same (larger) buffer for a smaller geometry must not
        // leak stale rows.
        extract_patches_into(b.data(), &geom_b, &mut buf).unwrap();
        assert_eq!(buf, extract_patches(&b, &geom_b).unwrap().data());

        assert!(extract_patches_into(&[0.0; 3], &geom_b, &mut buf).is_err());
    }

    #[test]
    fn conv2d_known_values() {
        // 1-channel 3x3 input, 2x2 averaging-like kernel.
        let input = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 3, 3],
        )
        .unwrap();
        let kernel = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[1, 1, 2, 2]).unwrap();
        let out = conv2d_multi(&input, &kernel, 1, 0).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv2d_multi_channel_accumulates() {
        let input = Tensor::full(&[2, 3, 3], 1.0);
        let kernels = Tensor::full(&[1, 2, 2, 2], 1.0);
        let out = conv2d_multi(&input, &kernels, 1, 0).unwrap();
        // Each output = 2 channels * 4 ones = 8.
        assert!(out.data().iter().all(|&v| (v - 8.0).abs() < 1e-6));
    }

    #[test]
    fn conv2d_stride_two() {
        let input = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[1, 4, 4]).unwrap();
        let kernel = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]).unwrap();
        let out = conv2d_multi(&input, &kernel, 2, 0).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.data(), &[0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    fn conv_matches_direct_computation() {
        let mut rng = Rng::new(21);
        let input = Tensor::randn(&[3, 6, 6], &mut rng);
        let kernels = Tensor::randn(&[4, 3, 3, 3], &mut rng);
        let out = conv2d_multi(&input, &kernels, 1, 1).unwrap();
        assert_eq!(out.shape(), &[4, 6, 6]);
        // Cross-check one arbitrary output element against a direct loop.
        let (fi, oy, ox) = (2, 3, 4);
        let mut acc = 0.0;
        for c in 0..3 {
            for ky in 0..3 {
                for kx in 0..3 {
                    let y = oy + ky;
                    let x = ox + kx;
                    // pad=1 shifts input coordinates by -1.
                    if y >= 1 && x >= 1 && y - 1 < 6 && x - 1 < 6 {
                        acc += input.at(&[c, y - 1, x - 1]) * kernels.at(&[fi, c, ky, kx]);
                    }
                }
            }
        }
        assert!((out.at(&[fi, oy, ox]) - acc).abs() < 1e-4);
    }

    /// Numerical-gradient check of equation (1): perturb one weight and
    /// compare the analytic dW against the finite difference of the loss
    /// `L = Σ out`.
    #[test]
    fn backward_weights_matches_numerical_gradient() {
        let mut rng = Rng::new(31);
        let input = Tensor::randn(&[2, 5, 5], &mut rng);
        let mut kernels = Tensor::randn(&[2, 2, 3, 3], &mut rng);
        let dout = Tensor::full(&[2, 3, 3], 1.0); // dL/dout = 1 for L = sum(out)

        let dw = conv2d_backward_weights(&input, &dout, 3, 3, 1, 0).unwrap();

        let idx = [1, 0, 2, 1];
        let eps = 1e-3;
        let base: f32 = conv2d_multi(&input, &kernels, 1, 0).unwrap().sum();
        kernels.set(&idx, kernels.at(&idx) + eps);
        let bumped: f32 = conv2d_multi(&input, &kernels, 1, 0).unwrap().sum();
        let numeric = (bumped - base) / eps;
        assert!(
            (dw.at(&idx) - numeric).abs() < 1e-2,
            "analytic {} vs numeric {}",
            dw.at(&idx),
            numeric
        );
    }

    /// Numerical-gradient check of equation (2).
    #[test]
    fn backward_input_matches_numerical_gradient() {
        let mut rng = Rng::new(32);
        let mut input = Tensor::randn(&[2, 5, 5], &mut rng);
        let kernels = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        let dout = Tensor::full(&[3, 3, 3], 1.0);

        let dx = conv2d_backward_input(&kernels, &dout, 5, 5, 1, 0).unwrap();
        assert_eq!(dx.shape(), &[2, 5, 5]);

        let idx = [1, 2, 3];
        let eps = 1e-3;
        let base: f32 = conv2d_multi(&input, &kernels, 1, 0).unwrap().sum();
        input.set(&idx, input.at(&idx) + eps);
        let bumped: f32 = conv2d_multi(&input, &kernels, 1, 0).unwrap().sum();
        let numeric = (bumped - base) / eps;
        assert!(
            (dx.at(&idx) - numeric).abs() < 1e-2,
            "analytic {} vs numeric {}",
            dx.at(&idx),
            numeric
        );
    }

    #[test]
    fn backward_rejects_stride_two() {
        let input = Tensor::zeros(&[1, 4, 4]);
        let dout = Tensor::zeros(&[1, 2, 2]);
        assert!(matches!(
            conv2d_backward_weights(&input, &dout, 2, 2, 2, 0).unwrap_err(),
            TensorError::InvalidConv(_)
        ));
    }

    #[test]
    fn max_pool_and_backward() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
            &[1, 4, 4],
        )
        .unwrap();
        let (out, argmax) = max_pool2(&input).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.data(), &[4.0, 8.0, 12.0, 16.0]);

        let dout = Tensor::full(&[1, 2, 2], 1.0);
        let dx = max_pool2_backward(&dout, &argmax, &[1, 4, 4]);
        // Gradient flows only to the max positions.
        assert_eq!(dx.at(&[0, 1, 1]), 1.0);
        assert_eq!(dx.at(&[0, 1, 3]), 1.0);
        assert_eq!(dx.at(&[0, 3, 1]), 1.0);
        assert_eq!(dx.at(&[0, 3, 3]), 1.0);
        assert_eq!(dx.sum(), 4.0);
    }

    #[test]
    fn max_pool_ties_keep_the_first_tap() {
        // Equal maxima in a window: the first in row-major order wins,
        // in every channel.
        let input = Tensor::from_vec(
            vec![
                1.0, 3.0, 2.0, 2.0, //
                3.0, 3.0, 2.0, 2.0, //
                // channel 1
                0.0, 0.0, 5.0, 4.0, //
                7.0, 7.0, 5.0, 5.0,
            ],
            &[2, 2, 4],
        )
        .unwrap();
        let (out, argmax) = max_pool2(&input).unwrap();
        assert_eq!(out.data(), &[3.0, 2.0, 7.0, 5.0]);
        assert_eq!(argmax, vec![1, 2, 12, 10]);
    }

    #[test]
    fn pool_drops_odd_edges() {
        let input = Tensor::full(&[1, 5, 5], 1.0);
        let (out, _) = max_pool2(&input).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
    }
}
