//! `ConvTranspose2d`'s forward runs the fused `col2im(Wᵀ · x) + bias`
//! kernel, grouping consecutive batch items into one GEMM window on small
//! maps. It must stay bit-identical to the unfused composition — one
//! `gemm` into the full `[out_c*kh*kw, n*ih*iw]` column matrix, then a
//! scatter into planes initialised to the bias — at both kernel levels and
//! at any pool width.
//!
//! Thread counts are process-global, so every case lives in one test.

use litho_nn::{ConvTranspose2d, Layer, Phase};
use litho_tensor::rng::{Rng, SeedableRng, StdRng};
use litho_tensor::{col2im, gemm, pool, with_level, Im2ColSpec, KernelLevel, MatRef, Tensor};

fn vals(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// `col2im` of `cols` into `[n, c, h, w]` planes that start at `bias[c]`,
/// in `col2im`'s per-plane order: rows `(ky, kx)`, then `oy`, then `ox`.
fn col2im_with_bias(
    cols: &[f32],
    spec: &Im2ColSpec,
    [n, c, h, w]: [usize; 4],
    bias: &[f32],
) -> Vec<f32> {
    let (oh, ow) = spec.output_size(h, w).unwrap();
    let ncols = n * oh * ow;
    let mut out = vec![0.0f32; n * c * h * w];
    for (plane, v) in out.chunks_mut(h * w).enumerate() {
        v.fill(bias[plane % c]);
    }
    for ci in 0..c {
        for ky in 0..spec.kernel_h {
            for kx in 0..spec.kernel_w {
                let row = (ci * spec.kernel_h + ky) * spec.kernel_w + kx;
                for b in 0..n {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let iy = (oy * spec.stride_h + ky) as isize - spec.pad_h as isize;
                            let ix = (ox * spec.stride_w + kx) as isize - spec.pad_w as isize;
                            if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                continue;
                            }
                            let at = ((b * c + ci) * h + iy as usize) * w + ix as usize;
                            out[at] += cols[row * ncols + (b * oh + oy) * ow + ox];
                        }
                    }
                }
            }
        }
    }
    out
}

/// The unfused forward: `x` to channel-major, one GEMM through `Wᵀ`, then
/// the bias-initialised scatter.
fn reference(
    weight: &[f32],
    bias: &[f32],
    x: &Tensor,
    spec: &Im2ColSpec,
    out_dims: [usize; 4],
) -> Vec<f32> {
    let [n, in_c, ih, iw] = x.shape().as_nchw().unwrap();
    let plane = ih * iw;
    let ncols = n * plane;
    let mut x_cm = vec![0.0f32; in_c * ncols];
    for b in 0..n {
        for ci in 0..in_c {
            let src = &x.as_slice()[(b * in_c + ci) * plane..][..plane];
            x_cm[ci * ncols + b * plane..][..plane].copy_from_slice(src);
        }
    }
    let taps = out_dims[1] * spec.kernel_h * spec.kernel_w;
    let mut cols = vec![0.0f32; taps * ncols];
    gemm(
        MatRef::row_major(weight, in_c, taps).t(),
        MatRef::row_major(&x_cm, in_c, ncols),
        &mut cols,
        None,
    );
    let zero_bias = vec![0.0f32; out_dims[1]];
    let unbiased = col2im_with_bias(&cols, spec, out_dims, &zero_bias);
    // Ties the local scatter to the library's col2im.
    let cols_t = Tensor::from_vec(cols.clone(), &[taps, ncols]).unwrap();
    let [n, c, h, w] = out_dims;
    assert_eq!(
        col2im(&cols_t, spec, n, c, h, w).unwrap().as_slice(),
        unbiased.as_slice(),
        "reference scatter disagrees with col2im"
    );
    col2im_with_bias(&cols, spec, out_dims, bias)
}

#[test]
fn deconv_forward_matches_unfused_at_every_level_and_width() {
    // (in_c, out_c, batch, input side). The paper geometry (5x5, stride 2,
    // pad 2, output pad 1) doubles the side. Inputs of 1x1, 2x2 and 4x4
    // group all items into one GEMM window; 5x5 groups 11 items, so a
    // batch of 13 leaves a short last window; 8x8 groups 4 of 6; 17x17 is
    // one item per window. out_c = 3 or 5 makes the GEMM's row count
    // (out_c * 25) leave a 6-row micro-tile tail, and window widths of
    // 25, 50, 64, 128, 275 and 289 columns leave 16-column tails.
    let cases = [
        (32, 16, 8, 1),
        (32, 16, 8, 2),
        (32, 16, 8, 4),
        (8, 3, 2, 5),
        (8, 3, 13, 5),
        (16, 3, 6, 8),
        (8, 5, 3, 17),
    ];
    let mut rng = StdRng::seed_from_u64(0xDEC0_0001);
    let mut checked = 0;
    for &(in_c, out_c, n, side) in &cases {
        let mut deconv = ConvTranspose2d::new(in_c, out_c, 5, 2, 2, 1, &mut rng);
        let (mut weight, mut bias) = (Vec::new(), Vec::new());
        deconv.visit_params(&mut |p| {
            let v = vals(&mut rng, p.value.len());
            p.value.as_mut_slice().copy_from_slice(&v);
            if p.value.len() == out_c {
                bias = v;
            } else {
                weight = v;
            }
        });
        let x = Tensor::from_vec(vals(&mut rng, n * in_c * side * side), &[n, in_c, side, side])
            .unwrap();
        let (oh, ow) = deconv.output_size(side, side);
        let spec = Im2ColSpec::square(5, 2, 2);
        for level in [KernelLevel::Scalar, KernelLevel::Avx2] {
            let want = with_level(level, || {
                reference(&weight, &bias, &x, &spec, [n, out_c, oh, ow])
            });
            for threads in [1, 2, 8] {
                pool::configure_threads(threads);
                let got = with_level(level, || deconv.forward(&x, Phase::Eval).unwrap());
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "{in_c}->{out_c} batch {n} at {side}x{side}, {level:?}, {threads} threads"
                );
                checked += 1;
            }
        }
    }
    pool::configure_threads(0);
    assert_eq!(checked, cases.len() * 6);
}
