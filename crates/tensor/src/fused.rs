//! The one convolution core: `col2im(Wᵀ · x) + bias`, shared by the two
//! layers that run it in adjoint roles.
//!
//! A transposed convolution is the adjoint of a convolution, so
//! `ConvTranspose2d`'s forward and `Conv2d`'s input gradient are the same
//! computation: a GEMM through `Wᵀ` followed by the `col2im` scatter.
//! Both go through [`col2im_gemm`]:
//!
//! ```text
//!   Conv2d::backward ──► conv_backward_fused ─┬─► dW = dy · colsᵀ   (gemm)
//!                                              └─► dx = col2im(Wᵀ · dy)
//!                                                          │
//!   ConvTranspose2d::forward ──► conv_transpose_fused ─► y = col2im(Wᵀ · x) + b
//!                                                          │
//!                                      col2im_gemm: per item group,
//!                                      Wᵀ · x_window into thread scratch,
//!                                      scatter into the image planes
//! ```
//!
//! * The full `[k, n*oh*ow]` column matrix is never materialised
//!   (~20 MB for the paper-shape conv backward, ~400 MB over the
//!   generator's decoder at batch 8). A per-thread scratch receives
//!   `Wᵀ · x` for a window of consecutive batch items — `Wᵀ` read in place
//!   through swapped strides, `x`'s column window through its row
//!   stride — and is scattered into those items' image planes while hot.
//! * Consecutive items share one window until it is at least `KC` columns
//!   wide, so a small map (the generator's 1×1, 2×2 and 4×4 decoder
//!   inputs) does not repack the whole of `Wᵀ` for a handful of columns.
//! * Each plane is set to the bias (or zero) and then scattered by
//!   `col2im`'s own per-plane routine, and each GEMM element is one fold
//!   regardless of the window, so results are bit-identical to the
//!   unfused GEMM + `col2im` composition at every kernel level and thread
//!   count.
//!
//! Parallelism: item windows run on the pool over disjoint image planes;
//! a single window runs on the caller so its GEMM can use the pool.
//! Per-element fold order never depends on the executor, preserving the
//! crate's determinism contract.

use std::cell::RefCell;

use crate::im2col::{scatter_plane, Im2ColSpec};
use crate::matmul::{gemm_at, MatRef, KC};
use crate::pool;
use crate::simd::KernelLevel;
use crate::{Result, Tensor, TensorError};

/// Minimum multiply-accumulates before item windows engage the pool.
const PARALLEL_THRESHOLD: usize = 1 << 17;

thread_local! {
    /// Per-thread `[k, window]` scratch for one item window's `Wᵀ · x`.
    static DCOLS_WINDOW: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
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

/// Fused convolution backward for the im2col-lowered Conv2d.
///
/// Inputs: `weight` is `[out_c, k]` (`k = c*kh*kw`), `dy` is
/// `[out_c, n*oh*ow]` (channel-major gradient), `cols` is the forward's
/// saved im2col matrix `[k, n*oh*ow]`. Outputs: `dw` (`[out_c, k]`) is
/// overwritten with `dy · colsᵀ` (one [`crate::gemm`] over `cols` read
/// transposed in place), and `dx` (`[n, c, h, w]`) with
/// `col2im(Wᵀ · dy)`. The bias gradient is left to the caller (a cheap
/// row-sum over `dy`).
///
/// Bit-identical to the unfused `dy · colsᵀ`, `Wᵀ · dy` GEMMs + `col2im`
/// composition at every kernel level.
///
/// # Errors
///
/// Returns [`TensorError`] variants when `dx` is not rank 4, the geometry
/// is invalid, or any slice length disagrees with the implied shape.
pub fn conv_backward_fused(
    weight: &[f32],
    dy: &[f32],
    cols: &[f32],
    dw: &mut [f32],
    dx: &mut Tensor,
    spec: &Im2ColSpec,
    out_c: usize,
) -> Result<()> {
    let [n, c, h, w] = dx.shape().as_nchw()?;
    let (oh, ow) = spec.output_size(h, w)?;
    let k = c * spec.kernel_h * spec.kernel_w;
    let ncols = n * oh * ow;
    check_lengths(&[
        (weight.len(), out_c * k),
        (dy.len(), out_c * ncols),
        (cols.len(), k * ncols),
        (dw.len(), out_c * k),
    ])?;
    if ncols == 0 || out_c == 0 {
        dw.fill(0.0);
        dx.as_mut_slice().fill(0.0);
        return Ok(());
    }
    let _span = crate::profile::kernel_span(
        || format!("conv_bwd_fused[{out_c}x{k}x{ncols}]"),
        crate::profile::KernelCost::gemm(out_c, k, ncols)
            .plus(crate::profile::KernelCost::gemm(k, ncols, out_c))
            .plus(crate::profile::KernelCost::col2im(k, ncols)),
    );
    // One level for the whole fused kernel, resolved on the caller thread.
    let level = crate::simd::active_level();
    let dy_m = MatRef::row_major(dy, out_c, ncols);
    gemm_at(level, dy_m, MatRef::row_major(cols, k, ncols).t(), dw, None);
    let dims = [n, c, h, w];
    col2im_gemm(level, weight, dy, None, dx.as_mut_slice(), dims, (oh, ow), spec, out_c);
    Ok(())
}

/// Transposed-convolution forward: `y = col2im(Wᵀ · x) + bias`.
///
/// `weight` is `[in_c, k]` (`k = out_c*kh*kw`), `x` is the channel-major
/// input `[in_c, n*ih*iw]`, and `y` (`[n, out_c, oh, ow]`, fully
/// overwritten) is the output grid whose convolution by `spec` lands back
/// on `ih x iw`. `bias` (`[out_c]`) initialises each output plane before
/// the scatter. Emits one `col2im[{k}x{ncols}]` kernel span costed as the
/// GEMM plus the scatter.
///
/// Bit-identical to the unfused `Wᵀ · x` GEMM followed by `col2im` and a
/// per-channel bias at every kernel level.
///
/// # Errors
///
/// Returns [`TensorError`] variants when `y` is not rank 4, the geometry
/// is invalid, or any slice length disagrees with the implied shape.
pub fn conv_transpose_fused(
    weight: &[f32],
    x: &[f32],
    bias: &[f32],
    y: &mut Tensor,
    spec: &Im2ColSpec,
    in_c: usize,
) -> Result<()> {
    let [n, out_c, oh, ow] = y.shape().as_nchw()?;
    let (ih, iw) = spec.output_size(oh, ow)?;
    let k = out_c * spec.kernel_h * spec.kernel_w;
    let ncols = n * ih * iw;
    check_lengths(&[
        (weight.len(), in_c * k),
        (x.len(), in_c * ncols),
        (bias.len(), out_c),
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
    col2im_gemm(level, weight, x, Some(bias), y.as_mut_slice(), dims, (ih, iw), spec, in_c);
    Ok(())
}

/// `dst = col2im(Wᵀ · src) (+ bias)`, where `weight` is `[rows, k]`, `src`
/// the channel-major `[rows, n*oh*ow]` and `dst` the `[n, c, h, w]` image,
/// one item window at a time: GEMM into a per-thread `[k, window]`
/// scratch, scatter into the window's image planes immediately. Lengths
/// are the caller's to check.
#[allow(clippy::too_many_arguments)]
fn col2im_gemm(
    level: KernelLevel,
    weight: &[f32],
    src: &[f32],
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
    // Items per GEMM window: enough that the window is at least KC columns.
    let group = KC.div_ceil(item_cols.max(1)).min(n).max(1);
    let windows = n.div_ceil(group);
    let plane = h * w;
    let dst_len = dst.len();
    let base = pool::SendPtr::new(dst.as_mut_ptr());
    // Wᵀ is read in place through swapped strides.
    let wt = MatRef::row_major(weight, rows, k).t();

    let run_window = move |t: usize| {
        let b0 = t * group;
        let items = group.min(n - b0);
        let win = items * item_cols;
        DCOLS_WINDOW.with(|cell| {
            let mut dcols = cell.borrow_mut();
            // Fully overwritten by the GEMM: no need to clear.
            dcols.resize(k * win, 0.0);
            // Items b0.. are consecutive columns of src, row stride ncols.
            let x_win = MatRef::new(&src[(b0 * item_cols).min(src.len())..], rows, win, ncols, 1);
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
    };

    if windows == 1 || k * rows * ncols < PARALLEL_THRESHOLD || pool::effective_threads() <= 1 {
        // On the caller thread, each window's GEMM can use the pool itself.
        for t in 0..windows {
            run_window(t);
        }
    } else {
        pool::parallel_for(windows, run_window);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SeedableRng};
    use crate::simd::{detect_level, with_level};
    use crate::{col2im, gemm};

    fn random_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = crate::rng::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// The unfused reference composition, exactly as Conv2d::backward ran
    /// before fusion.
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
        let dy = random_vec(out_c * ncols, seed + 1);
        let cols = random_vec(k * ncols, seed + 2);

        let (dw_ref, dx_ref) = unfused(&weight, &dy, &cols, &spec, dims, out_c, k, ncols);
        let mut dw = vec![f32::NAN; out_c * k];
        let mut dx = Tensor::full(&dims, f32::NAN);
        conv_backward_fused(&weight, &dy, &cols, &mut dw, &mut dx, &spec, out_c).unwrap();
        assert_eq!(dw, dw_ref, "dw fused vs unfused");
        assert_eq!(dx.as_slice(), dx_ref.as_slice(), "dx fused vs unfused");
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
        conv_transpose_fused(&[0.0; 6], &[1.0; 12], &[0.5, -1.5], &mut y, &spec, 3).unwrap();
        assert_eq!(y.as_slice(), &[0.5, 0.5, 0.5, 0.5, -1.5, -1.5, -1.5, -1.5]);
    }

    #[test]
    fn rejects_bad_lengths() {
        let spec = Im2ColSpec::square(3, 1, 1);
        let mut dx = Tensor::zeros(&[1, 1, 4, 4]);
        let mut dw = vec![0.0; 9];
        // dy too short for out_c=1, ncols=16.
        assert!(conv_backward_fused(
            &[0.0; 9],
            &[0.0; 8],
            &vec![0.0; 9 * 16],
            &mut dw,
            &mut dx,
            &spec,
            1
        )
        .is_err());
    }
}
