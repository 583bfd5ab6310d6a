//! Cross-level epsilon-tier oracle for the runtime-dispatched SIMD kernels.
//!
//! Every level-dispatched kernel family is run at `KernelLevel::Scalar` and
//! `KernelLevel::Avx2` (clamped to host support — on a non-AVX2 host both
//! pins resolve to scalar and the comparisons become trivially exact) and
//! the results are held to the per-kernel epsilon tiers documented in
//! DESIGN.md §6:
//!
//! | family                    | tier                               |
//! |---------------------------|------------------------------------|
//! | GEMM (all variants)       | relative ~1e-5 (+ ~1e-6·k absolute |
//! |                           | for cancellation-heavy dots)       |
//! | conv-backward dW          | the GEMM's (one GEMM over colsᵀ);  |
//! |                           | checked here at relative ~1e-4     |
//! | conv-backward dx          | exact vs the unfused composition   |
//! | (`conv_transpose_fused`)  | at the same level; GEMM tier       |
//! |                           | across levels                      |
//! | im2col                    | exact (bitwise)                    |
//! | col2im (incl. stride-1)   | exact (bitwise)                    |
//! | batchnorm normalize/dx    | relative ~1e-6                     |
//! | batchnorm reductions      | absolute ~1e-4 · len               |
//! | FFT butterflies (f64)     | relative ~1e-12                    |
//!
//! Shapes deliberately hit the SIMD tails: n/k not a multiple of 8, m = 1,
//! k = 1, and slices taken at odd offsets so the lane loads are unaligned.
//! The thread sweep re-checks the policy at 1, 2 and 8 workers because the
//! level is read once per kernel entry and must survive pool fan-out.

use litho_tensor::rng::{Rng, SeedableRng, StdRng};
use litho_tensor::{
    col2im, conv_transpose_fused, detect_level, gemm, im2col, matmul, matmul_transpose_a,
    matmul_transpose_b, pool, simd, with_level, Im2ColSpec, KernelLevel, MatRef, Tensor,
};

const GEMM_REL: f32 = 1e-5;
/// A k-term FMA-vs-scalar fold can differ by O(k·ε) in absolute terms even
/// when cancellation leaves a tiny result, so the GEMM tier carries an
/// absolute component proportional to the fold length.
const GEMM_ABS_PER_K: f32 = 1e-6;
const FUSED_DW_REL: f32 = 1e-4;
const BN_ELEMENTWISE_REL: f32 = 1e-6;
const BN_REDUCTION_ABS_PER_ELEM: f32 = 1e-4;
const FFT_REL: f64 = 1e-12;

fn vals(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn tensor(rng: &mut StdRng, dims: &[usize]) -> Tensor {
    Tensor::from_vec(vals(rng, dims.iter().product()), dims).unwrap()
}

/// `|a - b| <= abs + rel * max(|a|, |b|)` — the epsilon-tier predicate.
fn within(a: f32, b: f32, rel: f32, abs: f32) -> bool {
    (a - b).abs() <= abs + rel * a.abs().max(b.abs())
}

fn assert_tier(got: &[f32], want: &[f32], rel: f32, abs: f32, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (&g, &w)) in got.iter().zip(want.iter()).enumerate() {
        assert!(
            within(g, w, rel, abs),
            "{what}: element {i} out of tier: got {g}, want {w} (rel {rel}, abs {abs})"
        );
    }
}

/// Both pins under test. On hosts without AVX2+FMA the second clamps back
/// to scalar, keeping the suite green (and vacuous) off x86_64.
fn levels() -> [KernelLevel; 2] {
    [KernelLevel::Scalar, KernelLevel::Avx2]
}

fn avx2_is_real() -> bool {
    detect_level() >= KernelLevel::Avx2
}

// ---------------------------------------------------------------------------
// GEMM: scalar is the reference; AVX2 folds with FMA across column lanes and
// must stay within the ~1e-5 relative tier on every tail shape.
// ---------------------------------------------------------------------------

#[test]
fn gemm_tiers_hold_on_tail_shapes() {
    let mut rng = StdRng::seed_from_u64(0x51D0_0001);
    // m = 1, k = 1, n = 1, and n/k ∈ {7, 9, 17, 23, 33} — none a lane
    // multiple — plus one square shape big enough to engage full tiles.
    let shapes = [
        (1usize, 17usize, 9usize),
        (3, 1, 13),
        (7, 8, 1),
        (1, 1, 1),
        (5, 23, 33),
        (9, 40, 7),
        (64, 64, 64),
    ];
    for &(m, k, n) in &shapes {
        let abs = GEMM_ABS_PER_K * k as f32;
        let a = tensor(&mut rng, &[m, k]);
        let b = tensor(&mut rng, &[k, n]);
        let scalar = with_level(KernelLevel::Scalar, || matmul(&a, &b).unwrap());
        let vector = with_level(KernelLevel::Avx2, || matmul(&a, &b).unwrap());
        assert_tier(
            vector.as_slice(),
            scalar.as_slice(),
            GEMM_REL,
            abs,
            &format!("matmul {m}x{k}x{n}"),
        );

        // Transpose variants share the inner microkernel and the tier.
        let at = tensor(&mut rng, &[k, m]);
        let s = with_level(KernelLevel::Scalar, || matmul_transpose_a(&at, &b).unwrap());
        let v = with_level(KernelLevel::Avx2, || matmul_transpose_a(&at, &b).unwrap());
        assert_tier(
            v.as_slice(),
            s.as_slice(),
            GEMM_REL,
            abs,
            &format!("matmul_transpose_a {m}x{k}x{n}"),
        );

        let bt = tensor(&mut rng, &[n, k]);
        let s = with_level(KernelLevel::Scalar, || matmul_transpose_b(&a, &bt).unwrap());
        let v = with_level(KernelLevel::Avx2, || matmul_transpose_b(&a, &bt).unwrap());
        assert_tier(
            v.as_slice(),
            s.as_slice(),
            GEMM_REL,
            abs,
            &format!("matmul_transpose_b {m}x{k}x{n}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Lowering: im2col is a gather/copy and col2im an elementwise scatter-add;
// both are in the exact tier at every level, including the stride-1
// interior that dispatches to the SIMD add_assign helper.
// ---------------------------------------------------------------------------

#[test]
fn lowering_is_bitwise_identical_across_levels() {
    let mut rng = StdRng::seed_from_u64(0x51D0_0002);
    let cases: [([usize; 4], Im2ColSpec); 3] = [
        // stride-1 with padding: the vectorized interior add path.
        ([2, 3, 9, 11], Im2ColSpec::square(3, 1, 1)),
        // strided: the scalar scatter path.
        ([1, 2, 8, 8], Im2ColSpec::square(5, 2, 2)),
        // asymmetric kernel and padding, odd widths (tail columns).
        (
            [2, 2, 7, 9],
            Im2ColSpec {
                kernel_h: 2,
                kernel_w: 3,
                stride_h: 1,
                stride_w: 1,
                pad_h: 1,
                pad_w: 0,
            },
        ),
    ];
    for (dims, spec) in &cases {
        let x = tensor(&mut rng, dims);
        let [scalar_cols, vector_cols] =
            levels().map(|l| with_level(l, || im2col(&x, spec).unwrap()));
        assert_eq!(scalar_cols, vector_cols, "im2col {dims:?} not exact");

        let [scalar_back, vector_back] = levels().map(|l| {
            with_level(l, || {
                col2im(&scalar_cols, spec, dims[0], dims[1], dims[2], dims[3]).unwrap()
            })
        });
        assert_eq!(scalar_back, vector_back, "col2im {dims:?} not exact");
    }
}

// ---------------------------------------------------------------------------
// Conv backward as the layer composes it — dW = gemm(dy, im2col(x)ᵀ) over
// the channel-major view of dy, dx = conv_transpose_fused(W, dy): at every
// level dx is bitwise identical to the unfused matmul_transpose_a → col2im
// composition (same rounding sequence). Across levels, dx and dW (one GEMM
// each) inherit the GEMM tier; dW is held to the looser ~1e-4 relative
// bound here.
// ---------------------------------------------------------------------------

fn fused_backward_at(
    level: KernelLevel,
    weight: &[f32],
    dy: &Tensor,
    input: &Tensor,
    spec: &Im2ColSpec,
) -> (Vec<f32>, Tensor) {
    let mut dw = vec![0.0f32; weight.len()];
    let mut dx = Tensor::zeros(input.dims());
    with_level(level, || {
        let dy_m = MatRef::im2col(dy, &Im2ColSpec::square(1, 1, 0)).unwrap();
        let cols = MatRef::im2col(input, spec).unwrap();
        gemm(dy_m, cols.t(), &mut dw, None);
        conv_transpose_fused(weight, dy, None, &mut dx, spec).unwrap();
    });
    (dw, dx)
}

/// The `[c, n*h*w]` channel-major copy of an NCHW tensor.
fn channel_major(t: &Tensor) -> Tensor {
    let [n, c, h, w] = t.shape().as_nchw().unwrap();
    let plane = h * w;
    let mut out = Vec::with_capacity(t.len());
    for ci in 0..c {
        for b in 0..n {
            let at = (b * c + ci) * plane;
            out.extend_from_slice(&t.as_slice()[at..at + plane]);
        }
    }
    Tensor::from_vec(out, &[c, n * plane]).unwrap()
}

#[test]
fn fused_conv_backward_tiers_hold() {
    let mut rng = StdRng::seed_from_u64(0x51D0_0003);
    let cases: [([usize; 4], Im2ColSpec, usize); 3] = [
        ([2, 3, 8, 8], Im2ColSpec::square(3, 1, 1), 4),
        ([1, 2, 11, 9], Im2ColSpec::square(5, 2, 2), 6),
        // 1x1 conv: k = c, the degenerate-tap tail.
        ([2, 5, 6, 6], Im2ColSpec::square(1, 1, 0), 3),
    ];
    for (dims, spec, out_c) in &cases {
        let [n, c, h, w] = *dims;
        let k = c * spec.kernel_h * spec.kernel_w;
        let (oh, ow) = spec.output_size(h, w).unwrap();

        let x = tensor(&mut rng, dims);
        let weight = vals(&mut rng, out_c * k);
        let dy = tensor(&mut rng, &[n, *out_c, oh, ow]);

        let (dw_s, dx_s) = fused_backward_at(KernelLevel::Scalar, &weight, &dy, &x, spec);
        let (dw_v, dx_v) = fused_backward_at(KernelLevel::Avx2, &weight, &dy, &x, spec);

        // Same-level determinism contract: fusion == the unfused
        // composition, bit for bit, at whichever level is pinned.
        let w_t = Tensor::from_vec(weight.clone(), &[*out_c, k]).unwrap();
        let dy_t = channel_major(&dy);
        for (level, dx_fused) in [(KernelLevel::Scalar, &dx_s), (KernelLevel::Avx2, &dx_v)] {
            let dx_unfused = with_level(level, || {
                let dcols = matmul_transpose_a(&w_t, &dy_t).unwrap();
                col2im(&dcols, spec, n, c, h, w).unwrap()
            });
            assert_eq!(
                dx_fused, &dx_unfused,
                "fused dx {dims:?} diverges from unfused composition at {level:?}"
            );
        }

        // Cross-level tiers: dx through the out_c-length GEMM fold, dW
        // through the ncols-length one.
        assert_tier(
            dx_v.as_slice(),
            dx_s.as_slice(),
            GEMM_REL,
            GEMM_ABS_PER_K * (*out_c * spec.kernel_h * spec.kernel_w) as f32,
            &format!("fused dx {dims:?} oc{out_c}"),
        );
        assert_tier(
            &dw_v,
            &dw_s,
            FUSED_DW_REL,
            FUSED_DW_REL,
            &format!("fused dW {dims:?} oc{out_c}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Shared elementwise helpers (col2im interior, batchnorm loops), probed at
// unaligned offsets and lengths off every lane multiple.
// ---------------------------------------------------------------------------

/// Tail lengths: below, at, and just past the 8-lane width, plus a long
/// run. Combined with odd slice offsets this covers unaligned loads.
const TAIL_LENS: [usize; 6] = [1, 7, 8, 9, 31, 100];

#[test]
fn add_assign_is_exact_at_unaligned_offsets() {
    let mut rng = StdRng::seed_from_u64(0x51D0_0004);
    for &len in &TAIL_LENS {
        for off in [0usize, 1, 3] {
            let src = vals(&mut rng, len + off);
            let base = vals(&mut rng, len + off);
            let [scalar, vector] = levels().map(|l| {
                let mut dst = base.clone();
                simd::add_assign(l, &mut dst[off..], &src[off..]);
                dst
            });
            assert_eq!(scalar, vector, "add_assign len {len} off {off} not exact");
        }
    }
}

#[test]
fn batchnorm_helpers_hold_their_tiers() {
    let mut rng = StdRng::seed_from_u64(0x51D0_0005);
    for &len in &TAIL_LENS {
        for off in [0usize, 1, 3] {
            let src = vals(&mut rng, len + off);
            let dy = vals(&mut rng, len + off);
            let (mean, inv_std, gamma, beta) = (0.125f32, 1.7f32, 0.9f32, -0.3f32);

            // normalize + affine: elementwise FMA, tight relative tier.
            let [(xh_s, out_s), (xh_v, out_v)] = levels().map(|l| {
                let mut xh = vec![0.0f32; len];
                let mut out = vec![0.0f32; len];
                simd::bn_normalize_affine(
                    l, &src[off..], &mut xh, &mut out, mean, inv_std, gamma, beta,
                );
                (xh, out)
            });
            let what = format!("bn_normalize_affine len {len} off {off}");
            assert_tier(&xh_v, &xh_s, BN_ELEMENTWISE_REL, f32::EPSILON, &what);
            assert_tier(&out_v, &out_s, BN_ELEMENTWISE_REL, f32::EPSILON, &what);

            // reductions: lane accumulators reorder the fold — absolute
            // tier scaled by length.
            let [(sum_s, dot_s), (sum_v, dot_v)] = levels().map(|l| {
                let (mut sum, mut dot) = (0.25f32, -0.5f32);
                simd::bn_sum_and_dot(l, &dy[off..], &xh_s, &mut sum, &mut dot);
                (sum, dot)
            });
            let tol = BN_REDUCTION_ABS_PER_ELEM * len as f32;
            assert!(
                (sum_s - sum_v).abs() <= tol && (dot_s - dot_v).abs() <= tol,
                "bn_sum_and_dot len {len} off {off} out of tier: \
                 sum {sum_s} vs {sum_v}, dot {dot_s} vs {dot_v}"
            );

            // backward dx: elementwise FMA, tight relative tier.
            let [bx_s, bx_v] = levels().map(|l| {
                let mut out = vec![0.0f32; len];
                simd::bn_backward_dx(l, &dy[off..], &xh_s, &mut out, 1.3, 0.02, -0.07);
                out
            });
            assert_tier(
                &bx_v,
                &bx_s,
                BN_ELEMENTWISE_REL,
                f32::EPSILON,
                &format!("bn_backward_dx len {len} off {off}"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// FFT: f64 butterflies, ~1e-12 relative tier across levels.
// ---------------------------------------------------------------------------

#[test]
fn fft_levels_agree_to_1e12() {
    use litho_tensor::fft::{fft2_in_place, FftDirection};
    use litho_tensor::Complex;

    let mut rng = StdRng::seed_from_u64(0x51D0_0006);
    for &n in &[8usize, 32] {
        let data: Vec<Complex> = (0..n * n)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let [scalar, vector] = levels().map(|l| {
            let mut buf = data.clone();
            with_level(l, || {
                fft2_in_place(&mut buf, n, n, FftDirection::Forward).unwrap();
            });
            buf
        });
        let scale = (n * n) as f64; // FFT magnitudes grow with the transform size.
        for (i, (s, v)) in scalar.iter().zip(vector.iter()).enumerate() {
            assert!(
                (s.re - v.re).abs() <= FFT_REL * scale && (s.im - v.im).abs() <= FFT_REL * scale,
                "fft2 {n}x{n} bin {i} out of tier: ({}, {}) vs ({}, {})",
                s.re,
                s.im,
                v.re,
                v.im
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Thread sweep: the level is resolved once at kernel entry on the caller
// thread, so the tier policy must be invariant under pool fan-out. This is
// the only test in the binary that touches the global thread config.
// ---------------------------------------------------------------------------

#[test]
fn tiers_hold_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(0x51D0_0007);
    // Big enough to cross the parallel thresholds; edges off lane multiples.
    let (m, k, n) = (33usize, 129usize, 257usize);
    let a = tensor(&mut rng, &[m, k]);
    let b = tensor(&mut rng, &[k, n]);

    let dims = [2usize, 3, 33, 33];
    let spec = Im2ColSpec::square(3, 1, 1);
    let out_c = 8usize;
    let kk = dims[1] * spec.kernel_h * spec.kernel_w;
    let (oh, ow) = spec.output_size(dims[2], dims[3]).unwrap();
    let x = tensor(&mut rng, &dims);
    let weight = vals(&mut rng, out_c * kk);
    let dy = tensor(&mut rng, &[dims[0], out_c, oh, ow]);

    let reference: Vec<(KernelLevel, Tensor, Vec<f32>, Tensor)> = levels()
        .iter()
        .map(|&l| {
            pool::configure_threads(1);
            let mm = with_level(l, || matmul(&a, &b).unwrap());
            let (dw, dx) = fused_backward_at(l, &weight, &dy, &x, &spec);
            (l, mm, dw, dx)
        })
        .collect();

    for &threads in &[2usize, 8] {
        pool::configure_threads(threads);
        for (l, mm_ref, dw_ref, dx_ref) in &reference {
            let mm = with_level(*l, || matmul(&a, &b).unwrap());
            assert_eq!(
                &mm, mm_ref,
                "matmul at {l:?} not thread-invariant ({threads} threads)"
            );
            let (dw, dx) = fused_backward_at(*l, &weight, &dy, &x, &spec);
            assert_eq!(
                &dx, dx_ref,
                "fused dx at {l:?} not thread-invariant ({threads} threads)"
            );
            assert_eq!(
                &dw, dw_ref,
                "fused dW at {l:?} not thread-invariant ({threads} threads)"
            );
        }
    }
    pool::configure_threads(0);

    // The two levels differ only within the GEMM tier even at full fan-out.
    if avx2_is_real() {
        let (_, mm_s, dw_s, _) = &reference[0];
        let (_, mm_v, dw_v, _) = &reference[1];
        assert_tier(
            mm_v.as_slice(),
            mm_s.as_slice(),
            GEMM_REL,
            GEMM_ABS_PER_K * k as f32,
            "matmul sweep",
        );
        assert_tier(dw_v, dw_s, FUSED_DW_REL, FUSED_DW_REL, "fused dW sweep");
    }
}
