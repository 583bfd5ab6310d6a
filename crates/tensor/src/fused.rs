//! Fused convolution backward: weight-gradient GEMM and col2im consumed
//! while the column buffers are hot.
//!
//! The unfused backward (two GEMMs, then `col2im`) materialises the full
//! `dcols` matrix — ~20 MB at paper shapes (4×3×256×256) — and a second
//! pass re-reads it to scatter into the image. [`conv_backward_fused`]
//! avoids that round trip:
//!
//! * `dW = dy · colsᵀ` streams `dy` and `cols` directly in column blocks
//!   sized so the `out_c × k` accumulator tile plus both block windows
//!   stay cache-resident. Each `dW[oc][kk]` is still a single sequential
//!   fold over columns in ascending order, so the scalar level is
//!   bit-identical to the unfused GEMM.
//! * `dx` walks batch items: a per-thread `[k, oh*ow]` scratch receives
//!   `Wᵀ · dy_b` (one GEMM reading `Wᵀ` through swapped strides and `dy`'s
//!   column window for item `b` through its row stride) and is
//!   immediately scattered into image plane `b` while still hot —
//!   1/n of the unfused intermediate, consumed before it leaves cache.
//!   Per-plane accumulation order matches `col2im_into` exactly (rows
//!   `(ci, ky, kx)` outer, then `oy`), so results are bit-identical to the
//!   unfused composition at every kernel level.
//!
//! Parallelism: `dW` bands over disjoint `oc` rows, `dx` over disjoint
//! batch items — per-element fold order never depends on the executor,
//! preserving the crate's determinism contract.

use std::cell::RefCell;

use crate::im2col::{valid_range, Im2ColSpec};
use crate::matmul::MatRef;
use crate::pool;
use crate::simd::KernelLevel;
use crate::{Result, Tensor, TensorError};

/// Column-block width for the dW streaming GEMM: 256 f32 (1 KB per row
/// window) keeps `out_c` dy-rows + `k` cols-rows of window under typical
/// L2 sizes at paper shapes while amortising the loop overhead.
const COL_BLOCK: usize = 256;

/// Minimum multiply-accumulates before dW banding engages the pool.
const PARALLEL_THRESHOLD: usize = 1 << 17;

thread_local! {
    /// Per-thread `[k, oh*ow]` scratch for one batch item's `Wᵀ · dy_b`.
    static DCOLS_ITEM: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Fused convolution backward for the im2col-lowered Conv2d.
///
/// Inputs: `weight` is `[out_c, k]` (`k = c*kh*kw`), `dy` is
/// `[out_c, n*oh*ow]` (channel-major gradient), `cols` is the forward's
/// saved im2col matrix `[k, n*oh*ow]`. Outputs: `dw` (`[out_c, k]`) is
/// overwritten with `dy · colsᵀ`, and `dx` (`[n, c, h, w]`) with
/// `col2im(Wᵀ · dy)`. The bias gradient is left to the caller (a cheap
/// row-sum over `dy`).
///
/// Bit-identical to the unfused `dy · colsᵀ`, `Wᵀ · dy` GEMMs + `col2im`
/// composition at the scalar kernel level; at the AVX2 level the dW block
/// dots reduce lanes per block (epsilon tier), while dx stays exact versus
/// unfused AVX2.
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
    for (len, expect) in [
        (weight.len(), out_c * k),
        (dy.len(), out_c * ncols),
        (cols.len(), k * ncols),
        (dw.len(), out_c * k),
    ] {
        if len != expect {
            return Err(TensorError::LengthMismatch {
                expected: expect,
                actual: len,
            });
        }
    }
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

    dw_streaming(dy, cols, dw, out_c, k, ncols, level);
    dx_per_item(weight, dy, dx, spec, [n, c, h, w], (oh, ow), out_c, k, level);
    Ok(())
}

/// `dw = dy · colsᵀ` streamed in column blocks; bands over disjoint `oc`
/// rows on the pool. Every `dw` element is one ascending-column fold, so
/// banding and blocking never change the result.
fn dw_streaming(
    dy: &[f32],
    cols: &[f32],
    dw: &mut [f32],
    out_c: usize,
    k: usize,
    ncols: usize,
    level: KernelLevel,
) {
    let work = out_c * k * ncols;
    let threads = pool::effective_threads().min((work / PARALLEL_THRESHOLD).max(1));
    if work < PARALLEL_THRESHOLD || threads <= 1 || out_c < 2 {
        dw_band(dy, cols, dw, 0, out_c, k, ncols, level);
        return;
    }
    let bands = threads.min(out_c);
    let rows_per_band = out_c.div_ceil(bands);
    pool::parallel_for_chunks(dw, rows_per_band * k, |band_idx, chunk| {
        let oc0 = band_idx * rows_per_band;
        dw_band(dy, cols, chunk, oc0, chunk.len() / k, k, ncols, level);
    });
}

#[allow(clippy::too_many_arguments)]
fn dw_band(
    dy: &[f32],
    cols: &[f32],
    dw_chunk: &mut [f32],
    oc0: usize,
    rows: usize,
    k: usize,
    ncols: usize,
    level: KernelLevel,
) {
    dw_chunk.fill(0.0);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only produced after CPUID confirmed AVX2+FMA.
        KernelLevel::Avx2 => unsafe {
            avx2::dw_band(dy, cols, dw_chunk, oc0, rows, k, ncols)
        },
        _ => {
            let mut c0 = 0;
            while c0 < ncols {
                let c1 = (c0 + COL_BLOCK).min(ncols);
                for r in 0..rows {
                    let dy_seg = &dy[(oc0 + r) * ncols + c0..(oc0 + r) * ncols + c1];
                    for kk in 0..k {
                        let cols_seg = &cols[kk * ncols + c0..kk * ncols + c1];
                        // Ascending-column fold straight into the output —
                        // the same rounding sequence as the unfused GEMM's
                        // register accumulator.
                        let acc = &mut dw_chunk[r * k + kk];
                        for (&d, &cv) in dy_seg.iter().zip(cols_seg.iter()) {
                            *acc += d * cv;
                        }
                    }
                }
                c0 = c1;
            }
        }
    }
}

/// `dx = col2im(Wᵀ · dy)`, one batch item at a time: GEMM into a
/// per-thread `[k, oh*ow]` scratch, scatter into plane `b` immediately.
#[allow(clippy::too_many_arguments)]
fn dx_per_item(
    weight: &[f32],
    dy: &[f32],
    dx: &mut Tensor,
    spec: &Im2ColSpec,
    [n, c, h, w]: [usize; 4],
    (oh, ow): (usize, usize),
    out_c: usize,
    k: usize,
    level: KernelLevel,
) {
    let ncols = n * oh * ow;
    let item_cols = oh * ow;
    let dst = dx.as_mut_slice();
    let dst_len = dst.len();
    let base = pool::SendPtr::new(dst.as_mut_ptr());

    // Wᵀ is read in place through swapped strides; B is dy's column window
    // for item b, read in place with row stride `ncols`.
    let wt = MatRef::row_major(weight, out_c, k).t();
    let taps = spec.kernel_h * spec.kernel_w;

    let scatter_item = move |b: usize| {
        DCOLS_ITEM.with(|dc| {
            let mut dcols = dc.borrow_mut();
            // Fully overwritten by the GEMM: no need to clear.
            dcols.resize(k * item_cols, 0.0);
            let dy_b = MatRef::new(&dy[b * item_cols..], out_c, item_cols, ncols, 1);
            crate::matmul::gemm_at(level, wt, dy_b, &mut dcols, None);
            let plane = h * w;
            for ci in 0..c {
                let start = (b * c + ci) * plane;
                debug_assert!(start + plane <= dst_len);
                // SAFETY: item tasks touch disjoint `b` image planes;
                // the buffer outlives the blocking parallel_for call.
                let dst_plane =
                    unsafe { std::slice::from_raw_parts_mut(base.get().add(start), plane) };
                dst_plane.fill(0.0);
                for ky in 0..spec.kernel_h {
                    for kx in 0..spec.kernel_w {
                        let row = ci * taps + ky * spec.kernel_w + kx;
                        let row_base = row * item_cols;
                        let off_x = kx as isize - spec.pad_w as isize;
                        let (ox_lo, ox_hi) = valid_range(off_x, spec.stride_w, w, ow);
                        if ox_lo >= ox_hi {
                            continue;
                        }
                        for oy in 0..oh {
                            let iy = (oy * spec.stride_h + ky) as isize - spec.pad_h as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let col_base = row_base + oy * ow;
                            let dst_row = iy as usize * w;
                            let base_ix = ((ox_lo * spec.stride_w) as isize + off_x) as usize;
                            let seg = &dcols[col_base + ox_lo..col_base + ox_hi];
                            if spec.stride_w == 1 {
                                let out_seg = &mut dst_plane
                                    [dst_row + base_ix..dst_row + base_ix + seg.len()];
                                crate::simd::add_assign(level, out_seg, seg);
                            } else {
                                for (idx, &v) in seg.iter().enumerate() {
                                    dst_plane[dst_row + base_ix + idx * spec.stride_w] += v;
                                }
                            }
                        }
                    }
                }
            }
        });
    };

    let work = k * out_c * ncols;
    if work < PARALLEL_THRESHOLD || pool::effective_threads() <= 1 || n == 1 {
        for b in 0..n {
            scatter_item(b);
        }
    } else {
        pool::parallel_for(n, scatter_item);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2+FMA dW band: 8-lane FMA dot per `(oc, kk, block)` with a
    //! lane reduction per block (epsilon tier vs the scalar fold).
    use super::COL_BLOCK;
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// Host must support AVX2+FMA; slice geometry as in [`super::dw_band`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn dw_band(
        dy: &[f32],
        cols: &[f32],
        dw_chunk: &mut [f32],
        oc0: usize,
        rows: usize,
        k: usize,
        ncols: usize,
    ) {
        let mut c0 = 0;
        while c0 < ncols {
            let c1 = (c0 + COL_BLOCK).min(ncols);
            let blk = c1 - c0;
            for r in 0..rows {
                let dy_seg = dy.as_ptr().add((oc0 + r) * ncols + c0);
                for kk in 0..k {
                    let cols_seg = cols.as_ptr().add(kk * ncols + c0);
                    let mut acc = _mm256_setzero_ps();
                    let mut i = 0;
                    while i + 8 <= blk {
                        let d = _mm256_loadu_ps(dy_seg.add(i));
                        let cv = _mm256_loadu_ps(cols_seg.add(i));
                        acc = _mm256_fmadd_ps(d, cv, acc);
                        i += 8;
                    }
                    let mut lanes = [0.0f32; 8];
                    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
                    let mut partial = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
                        + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
                    while i < blk {
                        partial = (*dy_seg.add(i)).mul_add(*cols_seg.add(i), partial);
                        i += 1;
                    }
                    dw_chunk[r * k + kk] += partial;
                }
            }
            c0 = c1;
        }
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
        // dx's per-item GEMM + scatter keeps the exact unfused fold even at
        // the AVX2 level; dW reduces lanes per block, so compare it by tier.
        with_level(KernelLevel::Avx2, || {
            let spec = Im2ColSpec::square(3, 1, 1);
            let dims = [2, 3, 8, 8];
            let out_c = 4;
            let [n, c, h, w] = dims;
            let (oh, ow) = spec.output_size(h, w).unwrap();
            let k = c * spec.kernel_h * spec.kernel_w;
            let ncols = n * oh * ow;
            let weight = random_vec(out_c * k, 21);
            let dy = random_vec(out_c * ncols, 22);
            let cols = random_vec(k * ncols, 23);
            let (dw_ref, dx_ref) = unfused(&weight, &dy, &cols, &spec, dims, out_c, k, ncols);
            let mut dw = vec![f32::NAN; out_c * k];
            let mut dx = Tensor::full(&dims, f32::NAN);
            conv_backward_fused(&weight, &dy, &cols, &mut dw, &mut dx, &spec, out_c).unwrap();
            assert_eq!(dx.as_slice(), dx_ref.as_slice(), "dx exact at avx2");
            for (i, (&a, &b)) in dw.iter().zip(dw_ref.iter()).enumerate() {
                assert!((a - b).abs() <= 1e-4 + a.abs() * 1e-4, "dw[{i}]: {a} vs {b}");
            }
        });
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
