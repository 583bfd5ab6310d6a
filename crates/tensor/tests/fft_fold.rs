//! Exact oracle for the FFT.
//!
//! At each kernel level the plan-cached, column-tiled transform must be
//! bit-identical to the textbook radix-2 decimation-in-time FFT written
//! out below: bit reversal by swaps, each stage's twiddles from the
//! `w = w * wlen` recurrence restarted at one for every block, and the
//! butterfly `u ± v·w` with
//!
//! * `Scalar`: `v·w` as plain complex mul/sub/add, the multiply by one of
//!   every block's first butterfly included (it can flip a signed zero);
//! * `Avx2`: `v·w` as the `fmaddsub` the vector kernel issues,
//!   `w.re·v.re − w.im·v.im` and `w.re·v.im + w.im·v.re` each with one
//!   rounding (`f64::mul_add`), and a plain add/sub at length 2, whose
//!   twiddle is exactly one.
//!
//! The inverse scales by `1/n` after each 1-D transform, and a 2-D
//! transform is rows then columns. Shapes cover every power of two up to
//! 512 per side, square or not, including widths below the column tile;
//! inputs carry signed zeros so that a skipped multiply by one shows; and
//! the result must not depend on the worker count.

use litho_tensor::fft::{fft2_in_place, fft_in_place, FftDirection};
use litho_tensor::rng::{Rng, SeedableRng, StdRng};
use litho_tensor::{active_level, pool, with_level, Complex, KernelLevel};

const SIDES: [usize; 10] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512];
const DIRECTIONS: [FftDirection; 2] = [FftDirection::Forward, FftDirection::Inverse];

/// Both levels, each as the level the host actually runs (an `Avx2` pin
/// on a host without AVX2+FMA resolves to `Scalar`, and so does its fold).
fn levels() -> Vec<KernelLevel> {
    [KernelLevel::Scalar, KernelLevel::Avx2]
        .into_iter()
        .map(|l| with_level(l, active_level))
        .collect()
}

/// `v·w` as the butterfly at `level` computes it in a stage of length `len`.
fn twiddle_product(v: Complex, w: Complex, len: usize, level: KernelLevel) -> Complex {
    match level {
        KernelLevel::Scalar => Complex::new(v.re * w.re - v.im * w.im, v.re * w.im + v.im * w.re),
        KernelLevel::Avx2 if len == 2 => v,
        KernelLevel::Avx2 => Complex::new(
            w.re.mul_add(v.re, -(w.im * v.im)),
            w.re.mul_add(v.im, w.im * v.re),
        ),
    }
}

/// The textbook 1-D transform at `level`.
fn reference(x: &mut [Complex], direction: FftDirection, level: KernelLevel) {
    let n = x.len();
    if n == 1 {
        return;
    }
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            x.swap(i, j);
        }
    }
    let sign = match direction {
        FftDirection::Forward => -1.0,
        FftDirection::Inverse => 1.0,
    };
    let mut len = 2;
    while len <= n {
        let wlen = Complex::from_angle(sign * 2.0 * std::f64::consts::PI / len as f64);
        for i in (0..n).step_by(len) {
            let mut w = Complex::ONE;
            for j in 0..len / 2 {
                let u = x[i + j];
                let vw = twiddle_product(x[i + j + len / 2], w, len, level);
                x[i + j] = Complex::new(u.re + vw.re, u.im + vw.im);
                x[i + j + len / 2] = Complex::new(u.re - vw.re, u.im - vw.im);
                w = Complex::new(
                    w.re * wlen.re - w.im * wlen.im,
                    w.re * wlen.im + w.im * wlen.re,
                );
            }
        }
        len <<= 1;
    }
    if direction == FftDirection::Inverse {
        let s = 1.0 / n as f64;
        for c in x.iter_mut() {
            *c = Complex::new(c.re * s, c.im * s);
        }
    }
}

/// The textbook 2-D transform: every row, then every column.
fn reference2(x: &mut [Complex], h: usize, w: usize, direction: FftDirection, level: KernelLevel) {
    for row in x.chunks_exact_mut(w) {
        reference(row, direction, level);
    }
    let mut col = vec![Complex::ZERO; h];
    for c in 0..w {
        for r in 0..h {
            col[r] = x[r * w + c];
        }
        reference(&mut col, direction, level);
        for r in 0..h {
            x[r * w + c] = col[r];
        }
    }
}

/// Two inputs of `n` values: random parts in `[-1, 1)` with a quarter of
/// them signed zeros, and signed zeros only. Only an all-zero path keeps a
/// zero's sign to the output, so the second input is what shows a skipped
/// or reordered multiply by one.
fn inputs(rng: &mut StdRng, n: usize) -> [Vec<Complex>; 2] {
    let signed_zero = |rng: &mut StdRng| if rng.gen_range(0..2) == 0 { 0.0 } else { -0.0 };
    let part = |rng: &mut StdRng| {
        if rng.gen_range(0..4) == 0 {
            signed_zero(rng)
        } else {
            rng.gen_range(-1.0..1.0)
        }
    };
    [
        (0..n).map(|_| Complex::new(part(rng), part(rng))).collect(),
        (0..n)
            .map(|_| Complex::new(signed_zero(rng), signed_zero(rng)))
            .collect(),
    ]
}

fn assert_bits_eq(got: &[Complex], want: &[Complex], what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{what} element {i}: ({:e}, {:e}) vs reference ({:e}, {:e})",
            g.re,
            g.im,
            w.re,
            w.im
        );
    }
}

#[test]
fn fft_matches_reference_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xFF70_0001);
    for (n, x) in SIDES
        .iter()
        .flat_map(|&n| inputs(&mut rng, n).map(|x| (n, x)))
    {
        for level in levels() {
            for direction in DIRECTIONS {
                let mut want = x.clone();
                reference(&mut want, direction, level);
                let mut got = x.clone();
                with_level(level, || fft_in_place(&mut got, direction)).unwrap();
                assert_bits_eq(&got, &want, &format!("fft {n} {direction:?} {level:?}"));
            }
        }
    }
}

#[test]
fn fft2_matches_reference_bit_for_bit_at_any_thread_count() {
    let mut rng = StdRng::seed_from_u64(0xFF70_0002);
    for h in SIDES {
        for x in SIDES.iter().flat_map(|&w| inputs(&mut rng, h * w)) {
            let w = x.len() / h;
            for level in levels() {
                for direction in DIRECTIONS {
                    let mut want = x.clone();
                    reference2(&mut want, h, w, direction, level);
                    for threads in [1, 2] {
                        pool::configure_threads(threads);
                        let mut got = x.clone();
                        with_level(level, || fft2_in_place(&mut got, h, w, direction)).unwrap();
                        let what =
                            format!("fft2 {h}x{w} {direction:?} {level:?} threads {threads}");
                        assert_bits_eq(&got, &want, &what);
                    }
                }
            }
        }
    }
    pool::configure_threads(0);
}
