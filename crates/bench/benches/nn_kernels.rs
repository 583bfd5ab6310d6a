//! Microbenches for the NN substrate: GEMM, im2col convolution
//! forward/backward, and the FFT used by the optical model.
//!
//! Flags: `--samples=N`, `--min-sample-ms=N`, `--quick`, `--trace`,
//! `--metrics-out FILE`, `--json-out FILE` (merge medians into a
//! `BENCH_KERNELS.json` for the `perf_gate` bin).

use std::process::ExitCode;

use litho_tensor::rng::{Rng, SeedableRng};

use litho_nn::{Conv2d, ConvTranspose2d, Layer, Phase};
use litho_tensor::fft::{fft2_in_place, FftDirection};
use litho_tensor::profile::KernelCost;
use litho_tensor::{matmul, Complex, Tensor};
use lithogan_bench::microbench::MicroBench;

fn random_tensor(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = litho_tensor::rng::StdRng::seed_from_u64(seed);
    let n: usize = dims.iter().product();
    Tensor::from_vec((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(), dims).unwrap()
}

fn bench_matmul(mb: &MicroBench) {
    for &n in &[64usize, 256, 512] {
        let a = random_tensor(&[n, n], 1);
        let b = random_tensor(&[n, n], 2);
        mb.run_costed(&format!("matmul_{n}"), KernelCost::gemm(n, n, n), || {
            matmul(&a, &b).unwrap()
        });
    }
}

/// Closed-form cost of one im2col convolution step on a `batch` of
/// `cin`-channel inputs producing `cout × out_hw × out_hw` outputs with
/// `ks × ks` filters: the lowering plus its GEMM, and for training steps
/// the full backward (input-gradient GEMM + col2im scatter, plus the
/// weight-gradient GEMM) on top of the forward the bench closure reruns.
fn conv_cost(batch: usize, cin: usize, cout: usize, out_hw: usize, ks: usize, train: bool) -> KernelCost {
    let k = cin * ks * ks;
    let cols = batch * out_hw * out_hw;
    let fwd = KernelCost::im2col(k, cols).plus(KernelCost::gemm(cout, cols, k));
    if !train {
        return fwd;
    }
    fwd.plus(KernelCost::gemm(k, cols, cout))
        .plus(KernelCost::col2im(k, cols))
        .plus(KernelCost::gemm(cout, k, cols))
}

fn bench_conv(mb: &MicroBench) {
    let mut rng = litho_tensor::rng::StdRng::seed_from_u64(3);
    // The paper's first generator layer at scaled resolution: 3->64, 5x5/2.
    let mut conv = Conv2d::new(3, 64, 5, 2, 2, &mut rng);
    let x = random_tensor(&[4, 3, 64, 64], 4);
    mb.run_costed("conv_fwd_4x3x64x64", conv_cost(4, 3, 64, 32, 5, false), || {
        conv.forward(&x, Phase::Eval).unwrap()
    });
    mb.run_costed(
        "conv_fwd_bwd_4x3x64x64",
        conv_cost(4, 3, 64, 32, 5, true),
        || {
            let y = conv.forward(&x, Phase::Train).unwrap();
            conv.zero_grad();
            conv.backward(&y).unwrap()
        },
    );

    let mut deconv = ConvTranspose2d::new(64, 32, 5, 2, 2, 1, &mut rng);
    let z = random_tensor(&[4, 64, 16, 16], 5);
    // Deconv forward = the Wᵀ·x GEMM and the col2im scatter, fused per
    // item window — costed so the gate tracks GFLOP/s.
    let taps = 32 * 5 * 5;
    let dcols = 4 * 16 * 16;
    mb.run_costed(
        "deconv_fwd_4x64x16x16",
        KernelCost::gemm(taps, dcols, 64).plus(KernelCost::col2im(taps, dcols)),
        || deconv.forward(&z, Phase::Eval).unwrap(),
    );
}

/// The generator's post-conv batchnorm at the paper's second feature map
/// scale: one full train-mode forward (moments + normalize/affine).
fn bench_batchnorm(mb: &MicroBench) {
    let mut bn = litho_nn::BatchNorm2d::new(64);
    let x = random_tensor(&[4, 64, 64, 64], 9);
    let elements = 4 * 64 * 64 * 64;
    mb.run_costed(
        "batchnorm_4x64x64x64",
        KernelCost::batchnorm(elements),
        || bn.forward(&x, Phase::Train).unwrap(),
    );
}

/// The paper's full-resolution first generator layer: 3->64, 5x5/2 on a
/// 256x256 mask batch — the headline shape of the perf-gate baseline.
fn bench_conv_paper(mb: &MicroBench) {
    let mut rng = litho_tensor::rng::StdRng::seed_from_u64(7);
    let mut conv = Conv2d::new(3, 64, 5, 2, 2, &mut rng);
    let x = random_tensor(&[4, 3, 256, 256], 8);
    mb.run_costed(
        "conv_fwd_4x3x256x256",
        conv_cost(4, 3, 64, 128, 5, false),
        || conv.forward(&x, Phase::Eval).unwrap(),
    );
    mb.run_costed(
        "conv_fwd_bwd_4x3x256x256",
        conv_cost(4, 3, 64, 128, 5, true),
        || {
            let y = conv.forward(&x, Phase::Train).unwrap();
            conv.zero_grad();
            conv.backward(&y).unwrap()
        },
    );
}

/// The two `predict_paper` layers that dominate its GEMM time, at the
/// batch of 8 it predicts: `G.enc1`'s forward GEMM (64->128 channels,
/// 5x5/2, 64x64 output: 128 x 32768 x 1600) and the whole `G.dec6`
/// deconv forward (128->64 channels on a 64x64 input); plus `G.dec2`
/// (512->512 channels on a 2x2 input), where the deconv groups all eight
/// items into one GEMM window instead of repacking Wᵀ per item.
fn bench_predict_paper_layers(mb: &MicroBench) {
    let (m, n, k) = (128, 8 * 64 * 64, 64 * 5 * 5);
    let a = random_tensor(&[m, k], 10);
    let b = random_tensor(&[k, n], 11);
    mb.run_costed(&format!("gemm_{m}x{n}x{k}"), KernelCost::gemm(m, n, k), || {
        matmul(&a, &b).unwrap()
    });
    drop((a, b));

    let mut rng = litho_tensor::rng::StdRng::seed_from_u64(12);
    let mut deconv = ConvTranspose2d::new(128, 64, 5, 2, 2, 1, &mut rng);
    let z = random_tensor(&[8, 128, 64, 64], 13);
    let (taps, dcols) = (64 * 5 * 5, 8 * 64 * 64);
    mb.run_costed(
        "deconv_fwd_8x128x64x64",
        KernelCost::gemm(taps, dcols, 128).plus(KernelCost::col2im(taps, dcols)),
        || deconv.forward(&z, Phase::Eval).unwrap(),
    );
    drop((deconv, z));

    let mut deconv = ConvTranspose2d::new(512, 512, 5, 2, 2, 1, &mut rng);
    let z = random_tensor(&[8, 512, 2, 2], 14);
    let (taps, dcols) = (512 * 5 * 5, 8 * 2 * 2);
    mb.run_costed(
        "deconv_fwd_8x512x2x2",
        KernelCost::gemm(taps, dcols, 512).plus(KernelCost::col2im(taps, dcols)),
        || deconv.forward(&z, Phase::Eval).unwrap(),
    );
}

fn bench_fft(mb: &MicroBench) {
    for &n in &[128usize, 256, 512] {
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(6);
        let data: Vec<Complex> = (0..n * n)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0))
            .collect();
        mb.run_costed(&format!("fft2_{n}"), KernelCost::fft2(n, n), || {
            let mut buf = data.clone();
            fft2_in_place(&mut buf, n, n, FftDirection::Forward).unwrap();
            buf
        });
    }
}

fn main() -> ExitCode {
    lithogan_bench::run_microbench("nn_kernels", bench)
}

fn bench(mb: &MicroBench) {
    bench_matmul(mb);
    bench_conv(mb);
    bench_conv_paper(mb);
    bench_predict_paper_layers(mb);
    bench_batchnorm(mb);
    bench_fft(mb);
    mb.flush_json().expect("writing --json-out");
}
