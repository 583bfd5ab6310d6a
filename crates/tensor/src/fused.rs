//! The convolution core: two kernels, `W · im2col(x)` and
//! `col2im(Wᵀ · x)`, each the other's adjoint, with every operand NCHW.
//!
//! A transposed convolution is the adjoint of a convolution, so
//! `ConvTranspose2d`'s forward and `Conv2d`'s input gradient are the same
//! computation — a GEMM through `Wᵀ` followed by the `col2im` scatter —
//! and `ConvTranspose2d`'s input gradient is a convolution forward of its
//! output gradient. Each layer's weight gradient is one plain
//! [`gemm`](crate::gemm):
//!
//! ```text
//!   Conv2d::forward ──────────► conv_forward_fused ───► y  = W · im2col(x) + b
//!   ConvTranspose2d::backward ┬► conv_forward_fused ───► dx = W · im2col(dy)
//!                             └► gemm ─────────────────► dW = x · im2col(dy)ᵀ
//!                                        │
//!                        im2col_gemm: per item window, W · im2col view
//!                        stored straight into the NCHW output planes
//!
//!   ConvTranspose2d::forward ─► conv_transpose_fused ──► y  = col2im(Wᵀ · x) + b
//!   Conv2d::backward ─────────┬► conv_transpose_fused ─► dx = col2im(Wᵀ · dy)
//!                             └► gemm ─────────────────► dW = dy · im2col(x)ᵀ
//!                                        │
//!                        col2im_gemm: per item window, Wᵀ · x_window
//!                        into thread scratch, scattered into the planes
//! ```
//!
//! * No `[k, n*oh*ow]` column matrix is ever materialised (~440 MB over the
//!   generator and ~560 MB over the centre CNN at the paper's batch of 8).
//!   `im2col(x)` is a [`MatRef::im2col`] view whose GEMM micro-panels are
//!   packed straight from the NCHW image, in either orientation.
//! * No channel-major `[c, n*h*w]` copy of an activation is made either:
//!   that matrix is the im2col matrix of the tensor under a 1×1, stride-1,
//!   unpadded spec, so `x` and `dy` enter a GEMM as that view,
//!   `MatRef::im2col(t, &Im2ColSpec::square(1, 1, 0))`.
//! * A per-item window of the output is a row-major `[rows, oh*ow]` block
//!   of the NCHW tensor, so `im2col_gemm` stores each item's GEMM there
//!   directly. `col2im_gemm` GEMMs a window into a per-thread scratch and
//!   scatters it into the window's image planes while hot.
//! * Consecutive items share one window until it is at least `KC` columns
//!   wide, so a small map (the generator's 1×1, 2×2 and 4×4 layers) does
//!   not repack the whole weight for a handful of columns; such a window's
//!   GEMM goes through the scratch and is copied into its items' planes.
//! * Each GEMM element is one fold regardless of the window, and the
//!   `col2im` planes are set to the bias (or zero) and then scattered by
//!   `col2im`'s own per-plane routine, so results are bit-identical to the
//!   unfused im2col + GEMM + `col2im` compositions at every kernel level
//!   and thread count.
//!
//! Parallelism: item windows run on the pool over disjoint image planes;
//! a single window runs on the caller so its GEMM can use the pool.
//! Per-element fold order never depends on the executor, preserving the
//! crate's determinism contract.

use std::cell::RefCell;

use crate::im2col::{scatter_plane, Im2ColImage, Im2ColSpec};
use crate::matmul::{gemm_at, MatRef, KC};
use crate::pool;
use crate::simd::KernelLevel;
use crate::{Result, Tensor, TensorError};

/// Minimum multiply-accumulates before item windows engage the pool.
const PARALLEL_THRESHOLD: usize = 1 << 17;

thread_local! {
    /// Per-thread scratch for one item window's GEMM output.
    static WINDOW: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

fn check_lengths(pairs: &[(usize, usize)]) -> Result<()> {
    for &(len, expect) in pairs {
        if len != expect {
            return Err(TensorError::LengthMismatch {
                expected: expect,
                actual: len,
            });
        }
    }
    Ok(())
}

/// Convolution forward: `y = W · im2col(x) (+ bias)`.
///
/// `weight` is `[out_c, k]` (`k = c*kh*kw` for `x`'s `c` channels), `x`
/// the NCHW input and `y` (`[n, out_c, oh, ow]`, fully overwritten) the
/// NCHW output. `bias` (`[out_c]`) joins each element after its fold.
/// Emits one `gemm[{out_c}x{n*oh*ow}x{k}]` kernel span.
///
/// Bit-identical to one GEMM over the stored `im2col(x)` followed by the
/// NCHW reorder, at every kernel level and thread count.
///
/// # Errors
///
/// Returns [`TensorError`] variants when `x` or `y` is not rank 4, the
/// geometry is invalid, or any length disagrees with the implied shape.
pub fn conv_forward_fused(
    weight: &[f32],
    x: &Tensor,
    bias: Option<&[f32]>,
    y: &mut Tensor,
    spec: &Im2ColSpec,
) -> Result<()> {
    let image = Im2ColImage::new(x, spec)?;
    let out_c = y.shape().as_nchw()?[1];
    let (oh, ow) = image.out_hw();
    let want = [image.dims()[0], out_c, oh, ow];
    if y.dims() != want {
        return Err(TensorError::ShapeMismatch {
            left: y.dims().to_vec(),
            right: want.to_vec(),
        });
    }
    let (k, ncols) = (image.rows(), image.cols());
    check_lengths(&[
        (weight.len(), out_c * k),
        (bias.map_or(out_c, <[f32]>::len), out_c),
    ])?;
    if y.is_empty() {
        return Ok(());
    }
    let _span = crate::profile::kernel_span(
        || format!("gemm[{out_c}x{ncols}x{k}]"),
        crate::profile::KernelCost::gemm(out_c, ncols, k),
    );
    let level = crate::simd::active_level();
    im2col_gemm(level, weight, image, bias, y.as_mut_slice(), out_c);
    Ok(())
}

/// Transposed-convolution forward: `y = col2im(Wᵀ · x) (+ bias)`.
///
/// `weight` is `[in_c, k]` (`k = out_c*kh*kw`), `x` the NCHW input
/// `[n, in_c, ih, iw]` and `y` (`[n, out_c, oh, ow]`, fully overwritten)
/// the output grid whose convolution by `spec` lands back on `ih x iw`.
/// `bias` (`[out_c]`) initialises each output plane before the scatter.
/// `Conv2d`'s input gradient is this kernel with `dy` as `x`, the conv
/// weight as `weight` and no bias. Emits one `col2im[{k}x{n*ih*iw}]`
/// kernel span costed as the GEMM plus the scatter.
///
/// Bit-identical to the unfused `Wᵀ · x` GEMM over the channel-major
/// matrix of `x` followed by `col2im` and a per-channel bias at every
/// kernel level and thread count.
///
/// # Errors
///
/// Returns [`TensorError`] variants when `x` or `y` is not rank 4, the
/// geometry is invalid, or any length disagrees with the implied shape.
pub fn conv_transpose_fused(
    weight: &[f32],
    x: &Tensor,
    bias: Option<&[f32]>,
    y: &mut Tensor,
    spec: &Im2ColSpec,
) -> Result<()> {
    // x's channel-major matrix [in_c, n*ih*iw] is its 1×1 im2col view.
    let src = MatRef::im2col(x, &Im2ColSpec::square(1, 1, 0))?;
    let [n, in_c, ih, iw] = x.shape().as_nchw()?;
    // The output grid is the image whose im2col matrix the scatter inverts.
    let [yn, out_c, oh, ow] = y.shape().as_nchw()?;
    if yn != n || spec.output_size(oh, ow)? != (ih, iw) {
        return Err(TensorError::ShapeMismatch {
            left: y.dims().to_vec(),
            right: x.dims().to_vec(),
        });
    }
    let k = out_c * spec.kernel_h * spec.kernel_w;
    let ncols = n * ih * iw;
    check_lengths(&[
        (weight.len(), in_c * k),
        (bias.map_or(out_c, <[f32]>::len), out_c),
    ])?;
    if y.is_empty() {
        return Ok(());
    }
    let _span = crate::profile::kernel_span(
        || format!("col2im[{k}x{ncols}]"),
        crate::profile::KernelCost::gemm(k, ncols, in_c)
            .plus(crate::profile::KernelCost::col2im(k, ncols)),
    );
    let level = crate::simd::active_level();
    let dims = [n, out_c, oh, ow];
    col2im_gemm(level, weight, src, bias, y.as_mut_slice(), dims, (ih, iw), spec, in_c);
    Ok(())
}

/// Items per GEMM window and the window count for `n` items of
/// `item_cols` columns each: enough items that a window is at least `KC`
/// columns wide.
fn item_windows(n: usize, item_cols: usize) -> (usize, usize) {
    let group = KC.div_ceil(item_cols.max(1)).min(n).max(1);
    (group, n.div_ceil(group))
}

/// Runs `run_window(t)` for every window `t`: on the pool when there are
/// several and `work` multiply-accumulates justify it, otherwise on the
/// caller, where each window's GEMM can use the pool itself.
fn for_each_window(windows: usize, work: usize, run_window: impl Fn(usize) + Sync) {
    if windows == 1 || work < PARALLEL_THRESHOLD || pool::effective_threads() <= 1 {
        (0..windows).for_each(run_window);
    } else {
        pool::parallel_for(windows, run_window);
    }
}

/// `dst = W · im2col(image) (+ bias)` into the NCHW `[n, rows, oh, ow]`
/// output, one item window at a time. A one-item window's output is the
/// item's row-major `[rows, oh*ow]` block of `dst`, so its GEMM stores
/// there; a wider window GEMMs into the per-thread scratch and is copied
/// into its items' blocks. Lengths are the caller's to check.
fn im2col_gemm(
    level: KernelLevel,
    weight: &[f32],
    image: Im2ColImage<'_>,
    bias: Option<&[f32]>,
    dst: &mut [f32],
    rows: usize,
) {
    let n = image.dims()[0];
    let (k, ncols) = (image.rows(), image.cols());
    let item_cols = ncols / n;
    let (group, windows) = item_windows(n, item_cols);
    let dst_len = dst.len();
    let base = pool::SendPtr::new(dst.as_mut_ptr());
    let w = MatRef::row_major(weight, rows, k);
    let cols = MatRef::from_image(image);

    for_each_window(windows, k * rows * ncols, move |t| {
        let b0 = t * group;
        let items = group.min(n - b0);
        let win = items * item_cols;
        let x_win = cols.block(0, k, b0 * item_cols, win);
        let start = b0 * rows * item_cols;
        assert!(start + rows * win <= dst_len, "window outside the output");
        // SAFETY: in bounds (checked above); windows own disjoint items, and
        // item `b`'s output is the contiguous `rows * item_cols` block at
        // `b * rows * item_cols`; the buffer outlives the blocking
        // parallel_for call.
        let out = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), rows * win) };
        if items == 1 {
            gemm_at(level, w, x_win, out, bias);
            return;
        }
        WINDOW.with(|cell| {
            let mut y = cell.borrow_mut();
            // Fully overwritten by the GEMM: no need to clear.
            y.resize(rows * win, 0.0);
            gemm_at(level, w, x_win, &mut y, bias);
            // y is [row, (item, pos)]; the output is [(item, row), pos].
            for (j, out_item) in out.chunks_exact_mut(rows * item_cols).enumerate() {
                for (r, out_row) in out_item.chunks_exact_mut(item_cols).enumerate() {
                    let at = r * win + j * item_cols;
                    out_row.copy_from_slice(&y[at..at + item_cols]);
                }
            }
        });
    });
}

/// `dst = col2im(Wᵀ · src) (+ bias)`, where `weight` is `[rows, k]`, `src`
/// the `[rows, n*oh*ow]` channel-major view and `dst` the `[n, c, h, w]`
/// image, one item window at a time: GEMM into a per-thread `[k, window]`
/// scratch, scatter into the window's image planes immediately. Lengths
/// are the caller's to check.
#[allow(clippy::too_many_arguments)]
fn col2im_gemm(
    level: KernelLevel,
    weight: &[f32],
    src: MatRef<'_>,
    bias: Option<&[f32]>,
    dst: &mut [f32],
    [n, c, h, w]: [usize; 4],
    (oh, ow): (usize, usize),
    spec: &Im2ColSpec,
    rows: usize,
) {
    let k = c * spec.kernel_h * spec.kernel_w;
    let item_cols = oh * ow;
    let ncols = n * item_cols;
    let (group, windows) = item_windows(n, item_cols);
    let plane = h * w;
    let dst_len = dst.len();
    let base = pool::SendPtr::new(dst.as_mut_ptr());
    // Wᵀ is read in place through swapped strides.
    let wt = MatRef::row_major(weight, rows, k).t();

    for_each_window(windows, k * rows * ncols, move |t| {
        let b0 = t * group;
        let items = group.min(n - b0);
        let win = items * item_cols;
        WINDOW.with(|cell| {
            let mut dcols = cell.borrow_mut();
            // Fully overwritten by the GEMM: no need to clear.
            dcols.resize(k * win, 0.0);
            let x_win = src.block(0, rows, b0 * item_cols, win);
            gemm_at(level, wt, x_win, &mut dcols, None);
            for j in 0..items {
                for ci in 0..c {
                    let start = ((b0 + j) * c + ci) * plane;
                    debug_assert!(start + plane <= dst_len);
                    // SAFETY: windows touch disjoint item planes; the buffer
                    // outlives the blocking parallel_for call.
                    let dst_plane =
                        unsafe { std::slice::from_raw_parts_mut(base.get().add(start), plane) };
                    dst_plane.fill(bias.map_or(0.0, |bias| bias[ci]));
                    let cols = &dcols[j * item_cols..];
                    scatter_plane(level, cols, win, ci, dst_plane, spec, (h, w), (oh, ow));
                }
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SeedableRng};
    use crate::simd::{detect_level, with_level};
    use crate::{col2im, gemm, im2col};

    fn random_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = crate::rng::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// The `[c, n*h*w]` channel-major copy of an NCHW tensor.
    fn channel_major(t: &Tensor) -> Vec<f32> {
        let [n, c, h, w] = t.shape().as_nchw().unwrap();
        let plane = h * w;
        let mut out = Vec::with_capacity(t.len());
        for ci in 0..c {
            for b in 0..n {
                let at = (b * c + ci) * plane;
                out.extend_from_slice(&t.as_slice()[at..at + plane]);
            }
        }
        out
    }

    /// Conv2d's backward as the two kernels compose it: dW is one GEMM
    /// over the channel-major view of `dy` and the im2col view of `x`, dx
    /// the transposed convolution of `dy`.
    fn composed(weight: &[f32], dy: &Tensor, x: &Tensor, spec: &Im2ColSpec) -> (Vec<f32>, Tensor) {
        let dy_m = MatRef::im2col(dy, &Im2ColSpec::square(1, 1, 0)).unwrap();
        let cols = MatRef::im2col(x, spec).unwrap();
        let mut dw = vec![f32::NAN; weight.len()];
        gemm(dy_m, cols.t(), &mut dw, None);
        let mut dx = Tensor::full(x.dims(), f32::NAN);
        conv_transpose_fused(weight, dy, None, &mut dx, spec).unwrap();
        (dw, dx)
    }

    /// The unfused reference over stored matrices, exactly as
    /// Conv2d::backward ran before fusion.
    #[allow(clippy::too_many_arguments)]
    fn unfused(
        weight: &[f32],
        dy: &[f32],
        cols: &[f32],
        spec: &Im2ColSpec,
        dims: [usize; 4],
        out_c: usize,
        k: usize,
        ncols: usize,
    ) -> (Vec<f32>, Tensor) {
        let dy_m = MatRef::row_major(dy, out_c, ncols);
        let mut dw = vec![0.0; out_c * k];
        gemm(dy_m, MatRef::row_major(cols, k, ncols).t(), &mut dw, None);
        let mut dcols = vec![0.0; k * ncols];
        gemm(MatRef::row_major(weight, out_c, k).t(), dy_m, &mut dcols, None);
        let dcols_t = Tensor::from_vec(dcols, &[k, ncols]).unwrap();
        let dx = col2im(&dcols_t, spec, dims[0], dims[1], dims[2], dims[3]).unwrap();
        (dw, dx)
    }

    fn run_case(spec: Im2ColSpec, dims: [usize; 4], out_c: usize, seed: u64) {
        let [n, c, h, w] = dims;
        let (oh, ow) = spec.output_size(h, w).unwrap();
        let k = c * spec.kernel_h * spec.kernel_w;
        let ncols = n * oh * ow;
        let weight = random_vec(out_c * k, seed);
        let dy = Tensor::from_vec(random_vec(out_c * ncols, seed + 1), &[n, out_c, oh, ow]).unwrap();
        let x = Tensor::from_vec(random_vec(n * c * h * w, seed + 2), &dims).unwrap();
        let cols = im2col(&x, &spec).unwrap();

        let dy_cm = channel_major(&dy);
        let (dw_ref, dx_ref) = unfused(&weight, &dy_cm, cols.as_slice(), &spec, dims, out_c, k, ncols);
        let (dw, dx) = composed(&weight, &dy, &x, &spec);
        assert_eq!(dw, dw_ref, "dw composed vs unfused");
        assert_eq!(dx.as_slice(), dx_ref.as_slice(), "dx composed vs unfused");
    }

    #[test]
    fn fused_matches_unfused_bitwise_at_scalar() {
        with_level(KernelLevel::Scalar, || {
            run_case(Im2ColSpec::square(3, 1, 1), [2, 3, 8, 8], 4, 11);
            run_case(Im2ColSpec::square(5, 2, 2), [5, 2, 16, 16], 6, 15);
            run_case(Im2ColSpec::square(5, 2, 2), [2, 2, 16, 16], 6, 12);
            run_case(Im2ColSpec::square(1, 1, 0), [1, 2, 4, 4], 3, 13);
            // stride > kernel leaves scatter gaps; asymmetric spec.
            run_case(
                Im2ColSpec {
                    kernel_h: 2,
                    kernel_w: 3,
                    stride_h: 3,
                    stride_w: 2,
                    pad_h: 1,
                    pad_w: 0,
                },
                [3, 2, 9, 7],
                5,
                14,
            );
        });
    }

    #[test]
    fn fused_dx_matches_unfused_bitwise_at_avx2() {
        if detect_level() < KernelLevel::Avx2 {
            return;
        }
        // Both products are the same GEMM folds as the unfused path, so
        // dW and dx stay exact at the AVX2 level too. The 16x16 case
        // groups items (64-column windows) and the 17x17 one does not.
        with_level(KernelLevel::Avx2, || {
            run_case(Im2ColSpec::square(3, 1, 1), [2, 3, 8, 8], 4, 21);
            run_case(Im2ColSpec::square(5, 2, 2), [5, 2, 16, 16], 6, 22);
            run_case(Im2ColSpec::square(5, 2, 2), [3, 3, 34, 34], 5, 23);
        });
    }

    #[test]
    fn transpose_bias_initialises_planes() {
        // A zero weight leaves only the bias: every output plane is set to
        // its channel's bias before the scatter adds anything.
        let spec = Im2ColSpec::square(1, 1, 0);
        let mut y = Tensor::full(&[1, 2, 2, 2], f32::NAN);
        let x = Tensor::ones(&[1, 3, 2, 2]);
        conv_transpose_fused(&[0.0; 6], &x, Some(&[0.5, -1.5]), &mut y, &spec).unwrap();
        assert_eq!(y.as_slice(), &[0.5, 0.5, 0.5, 0.5, -1.5, -1.5, -1.5, -1.5]);
    }

    #[test]
    fn rejects_bad_lengths() {
        let spec = Im2ColSpec::square(3, 1, 1);
        let x = Tensor::zeros(&[1, 1, 4, 4]);
        let w = [0.0; 18];
        // Weight length, bias length, the output grid and the batch must
        // all agree with the input.
        for (dims, w_len, bias_len) in [
            ([1, 2, 4, 4], 17, 2),
            ([1, 2, 4, 4], 18, 1),
            ([1, 2, 4, 5], 18, 2),
            ([2, 2, 4, 4], 18, 2),
        ] {
            let mut y = Tensor::zeros(&dims);
            let bias = vec![0.0; bias_len];
            assert!(conv_transpose_fused(&w[..w_len], &x, Some(&bias), &mut y, &spec).is_err());
        }
        let mut y = Tensor::zeros(&[1, 2, 4, 4]);
        assert!(conv_transpose_fused(&w, &x, None, &mut y, &spec).is_ok());
    }
}
