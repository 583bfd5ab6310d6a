//! Exact oracles for the implicit-GEMM convolution.
//!
//! The layers never store an im2col matrix: the GEMM packs its
//! micro-panels straight from the NCHW image ([`MatRef::im2col`]) and the
//! convolution forward stores each item window's product straight into the
//! NCHW output ([`conv_forward_fused`]). Both must be bit-identical to the
//! materialised path they replace — packing `im2col()`'s stored matrix, and
//! one GEMM over it followed by the NCHW reorder — at both kernel levels,
//! at 1 and 2 threads, on shapes that cross the loop nest's `KC`, `MC` and
//! `NC` blocks, leave `MR`/`NR` tails, and reach the padding rows and
//! columns, for single-item and grouped item windows.

use litho_tensor::rng::{Rng, SeedableRng, StdRng};
use litho_tensor::{
    active_level, conv_forward_fused, gemm, im2col, packed_panels, pool, with_level, Im2ColSpec,
    KernelLevel, MatRef, Tensor,
};

// Block geometry of the GEMM's loop nest (crates/tensor/src/matmul.rs).
const MR: usize = 6;
const NR: usize = 16;
const KC: usize = 256;

/// One convolution geometry: `[n, c, h, w]` input, kernel/stride/pad, and
/// the output channel count.
struct Geometry {
    dims: [usize; 4],
    spec: Im2ColSpec,
    out_c: usize,
}

fn geometry(dims: [usize; 4], kernel: usize, stride: usize, pad: usize, out_c: usize) -> Geometry {
    Geometry {
        dims,
        spec: Im2ColSpec::square(kernel, stride, pad),
        out_c,
    }
}

/// Output maps of 1², 2², 8² and 64², single (64², 65×64) and grouped
/// item windows, a partial last window (8², n = 5: windows of 4 and 1),
/// `k` past `KC`, `out_c` past `MC`, and a single window past `NC`; and
/// the 1×1/s1/p0 spec at maps of 1², 2², 4² and 64².
fn geometries() -> Vec<Geometry> {
    vec![
        geometry([3, 30, 8, 8], 3, 1, 1, 7), // 8², k = 270, grouped window
        geometry([5, 11, 2, 2], 5, 2, 2, 145), // 1², k = 275, out_c past MC
        geometry([4, 2, 3, 3], 7, 2, 3, 13), // 2², all but one tap padding
        geometry([5, 6, 16, 16], 7, 2, 3, 16), // 8², k = 294, windows of 4 + 1
        geometry([2, 2, 64, 64], 3, 1, 1, 5), // 64², n·oh·ow = 8192 past NC
        geometry([1, 1, 65, 64], 5, 1, 2, 3), // one 4160-column window past NC
        geometry([2, 3, 128, 128], 5, 2, 2, 8), // 64² at stride 2
        // 1×1, stride 1, unpadded: the channel-major matrix the layers read
        // activations and gradients through. Its runs cross item planes.
        geometry([7, 300, 1, 1], 1, 1, 0, 4), // 1², k = 300 past KC
        geometry([9, 20, 2, 2], 1, 1, 0, 7), // 2², every run crosses items
        geometry([6, 260, 4, 4], 1, 1, 0, 5), // 4², k = 260 past KC
        geometry([3, 5, 64, 64], 1, 1, 0, 3), // 64², 12288 columns past NC
    ]
}

fn random_tensor(rng: &mut StdRng, dims: &[usize]) -> Tensor {
    let len = dims.iter().product();
    Tensor::from_vec(
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        dims,
    )
    .unwrap()
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} is {g}, want {w}"
        );
    }
}

/// Both levels, each as the level the host actually runs (an `Avx2` pin
/// on a host without AVX2+FMA resolves to `Scalar`).
fn levels() -> Vec<KernelLevel> {
    [KernelLevel::Scalar, KernelLevel::Avx2]
        .into_iter()
        .map(|l| with_level(l, active_level))
        .collect()
}

/// Blocks `(r0, rows, c0, cols)` of a `rows x cols` matrix the way the
/// loop nest cuts it: the whole matrix, a second reduction block, and an
/// interior window off every tile edge.
fn blocks(rows: usize, cols: usize) -> Vec<(usize, usize, usize, usize)> {
    let mut out = vec![(0, rows, 0, cols)];
    if rows > KC {
        out.push((KC, rows - KC, 0, cols));
    }
    if cols > KC {
        out.push((0, rows, KC, cols - KC));
    }
    if rows > 3 && cols > 5 {
        out.push((1, rows - 3, 3, cols - 5));
    }
    out
}

#[test]
fn view_packs_like_the_stored_matrix_in_both_orientations() {
    let mut rng = StdRng::seed_from_u64(0x1C01_0001);
    for g in geometries() {
        let x = random_tensor(&mut rng, &g.dims);
        let cols = im2col(&x, &g.spec).unwrap();
        let (k, ncols) = (cols.dims()[0], cols.dims()[1]);
        let stored = MatRef::row_major(cols.as_slice(), k, ncols);
        let view = MatRef::im2col(&x, &g.spec).unwrap();
        // cols is the forward's B (packed through its transpose) and colsᵀ
        // the weight gradient's B; both are packed at both panel widths.
        for transposed in [false, true] {
            let (view, stored, shape) = if transposed {
                (view.t(), stored.t(), (ncols, k))
            } else {
                (view, stored, (k, ncols))
            };
            for (r0, rows, c0, cols) in blocks(shape.0, shape.1) {
                let v = view.block(r0, rows, c0, cols);
                let s = stored.block(r0, rows, c0, cols);
                for width in [MR, NR] {
                    let what = format!(
                        "{:?} {:?} transposed {transposed}, block ({r0}, {rows}, {c0}, {cols}), \
                         width {width}",
                        g.dims, g.spec
                    );
                    assert_bits(&packed_panels(v, width), &packed_panels(s, width), &what);
                    assert_bits(
                        &packed_panels(v.t(), width),
                        &packed_panels(s.t(), width),
                        &what,
                    );
                }
            }
        }
    }
}

/// `gemm(W, im2col(x)) + bias` over the stored matrix, reordered from
/// `[out_c, (item, pos)]` to NCHW.
fn reference_forward(w: &[f32], x: &Tensor, bias: Option<&[f32]>, g: &Geometry) -> Vec<f32> {
    let cols = im2col(x, &g.spec).unwrap();
    let (k, ncols) = (cols.dims()[0], cols.dims()[1]);
    let mut y_mat = vec![f32::NAN; g.out_c * ncols];
    gemm(
        MatRef::row_major(w, g.out_c, k),
        MatRef::row_major(cols.as_slice(), k, ncols),
        &mut y_mat,
        bias,
    );
    let item_cols = ncols / g.dims[0];
    let mut y = vec![f32::NAN; y_mat.len()];
    for (b, item) in y.chunks_exact_mut(g.out_c * item_cols).enumerate() {
        for (oc, plane) in item.chunks_exact_mut(item_cols).enumerate() {
            let at = oc * ncols + b * item_cols;
            plane.copy_from_slice(&y_mat[at..at + item_cols]);
        }
    }
    y
}

#[test]
fn windowed_forward_matches_gemm_over_im2col() {
    let mut rng = StdRng::seed_from_u64(0x1C01_0002);
    for (idx, g) in geometries().iter().enumerate() {
        let x = random_tensor(&mut rng, &g.dims);
        let (oh, ow) = g.spec.output_size(g.dims[2], g.dims[3]).unwrap();
        let k = g.dims[1] * g.spec.kernel_h * g.spec.kernel_w;
        let w: Vec<f32> = (0..g.out_c * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let bias_vals: Vec<f32> = (0..g.out_c).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // Alternate the fused bias with a bias-free store.
        let bias = (idx % 2 == 0).then_some(bias_vals.as_slice());
        for level in levels() {
            pool::configure_threads(1);
            let want = with_level(level, || reference_forward(&w, &x, bias, g));
            for threads in [1, 2] {
                pool::configure_threads(threads);
                let mut y = Tensor::full(&[g.dims[0], g.out_c, oh, ow], f32::NAN);
                with_level(level, || {
                    conv_forward_fused(&w, &x, bias, &mut y, &g.spec).unwrap()
                });
                let what = format!(
                    "{:?} {:?} out_c {} at {level:?}, {threads} threads, bias {}",
                    g.dims,
                    g.spec,
                    g.out_c,
                    bias.is_some()
                );
                assert_bits(y.as_slice(), &want, &what);
            }
        }
    }
    pool::configure_threads(0);
}

#[test]
fn forward_rejects_mismatched_shapes() {
    let spec = Im2ColSpec::square(3, 1, 1);
    let x = Tensor::zeros(&[2, 3, 4, 4]);
    let w = vec![0.0; 5 * 27];
    // Output map, batch, weight and bias lengths must all agree.
    for (dims, w_len, bias_len) in [
        ([2, 5, 4, 3], 5 * 27, 5),
        ([1, 5, 4, 4], 5 * 27, 5),
        ([2, 5, 4, 4], 5 * 27 - 1, 5),
        ([2, 5, 4, 4], 5 * 27, 4),
    ] {
        let mut y = Tensor::zeros(&dims);
        let bias = vec![0.0; bias_len];
        assert!(conv_forward_fused(&w[..w_len], &x, Some(&bias), &mut y, &spec).is_err());
    }
    let mut y = Tensor::zeros(&[2, 5, 4, 4]);
    assert!(conv_forward_fused(&w, &x, None, &mut y, &spec).is_ok());
}
