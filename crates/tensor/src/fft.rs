//! Radix-2 complex FFT, 1-D and 2-D.
//!
//! The partially coherent optical model in `litho-sim` computes aerial
//! images as sums of |mask ⊛ kernel|² terms; for 256×256 rasterised masks a
//! direct convolution is far too slow, so kernels are applied in the
//! frequency domain. The transform is an iterative radix-2 Cooley–Tukey
//! (decimation in time) with no external FFT dependency:
//!
//! * One plan per `(n, direction)` holds the bit-reversal table and every
//!   stage's twiddles, built once with the `w = w * wlen` recurrence and
//!   cached for the life of the process.
//! * A 2-D transform runs the rows, then the columns in tiles of four: a
//!   tile is gathered in bit-reversed row order into a small contiguous
//!   buffer that stays in L1, its butterflies run across the tile's
//!   columns under one twiddle, and it is scattered back. Each element
//!   sees the same arithmetic as in a 1-D transform of its column.
//!
//! Results therefore depend only on the kernel level (scalar mul/add or
//! AVX2 `fmaddsub` butterflies), never on the tiling or the thread count;
//! `tests/fft_fold.rs` holds a textbook reference that both levels match
//! bit for bit.

use std::sync::OnceLock;

use crate::pool::{self, SendPtr};
use crate::simd::{active_level, KernelLevel};
use crate::{Result, TensorError};

/// A complex number over `f64`.
///
/// Optics code runs in `f64`; only the final aerial image is narrowed to
/// `f32` for consumption by the NN stack. `repr(C)` pins the `(re, im)`
/// interleaved layout the AVX2 butterfly kernel views as f64 lanes.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates a complex number from rectangular parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{iθ}`.
    pub fn from_angle(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Squared magnitude `re² + im²`.
    pub fn norm_sqr(&self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(&self) -> f64 {
        self.norm_sqr().sqrt()
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl std::ops::Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FftDirection {
    /// Forward DFT (negative exponent).
    Forward,
    /// Inverse DFT (positive exponent, normalised by `1/n`).
    Inverse,
}

fn check_pow2(n: usize) -> Result<()> {
    if n == 0 || !n.is_power_of_two() {
        return Err(TensorError::FftLengthNotPowerOfTwo(n));
    }
    Ok(())
}

/// Columns per tile in the 2-D column pass: a 256-row tile is 16 KB, so it
/// stays in L1 through every stage.
const TILE: usize = 4;

/// Below this many points a 2-D transform runs on the calling thread; the
/// pool's wake-up would cost more than the transform.
const PARALLEL_THRESHOLD: usize = 1 << 16;

/// Everything about a length-`n` transform that does not depend on the
/// data, built once per `(n, direction)` and cached for the process.
struct Plan {
    /// `rev[i]` is `i` with its `log2 n` low bits reversed.
    rev: Vec<usize>,
    /// Every stage's twiddles, concatenated: the stage of half-length `h`
    /// reads `twiddles[h - 1..2 * h - 1]`. Each stage's run comes from the
    /// `w = w * wlen` recurrence starting at one.
    twiddles: Vec<Complex>,
    /// `1/n` on the inverse, `None` on the forward transform.
    scale: Option<f64>,
}

impl Plan {
    fn new(n: usize, direction: FftDirection) -> Plan {
        let bits = n.trailing_zeros();
        let rev = (0..n)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (usize::BITS - bits)
                }
            })
            .collect();
        let sign = match direction {
            FftDirection::Forward => -1.0,
            FftDirection::Inverse => 1.0,
        };
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut len = 2;
        while len <= n {
            let wlen = Complex::from_angle(sign * 2.0 * std::f64::consts::PI / len as f64);
            let mut w = Complex::ONE;
            for _ in 0..len / 2 {
                twiddles.push(w);
                w = w * wlen;
            }
            len <<= 1;
        }
        let scale = (direction == FftDirection::Inverse).then(|| 1.0 / n as f64);
        Plan {
            rev,
            twiddles,
            scale,
        }
    }

    /// The cached plan for a power-of-two `n`.
    fn get(n: usize, direction: FftDirection) -> &'static Plan {
        const BITS: usize = usize::BITS as usize;
        static PLANS: [[OnceLock<Plan>; 2]; BITS] =
            [const { [const { OnceLock::new() }; 2] }; BITS];
        PLANS[n.trailing_zeros() as usize][direction as usize]
            .get_or_init(|| Plan::new(n, direction))
    }

    /// The butterfly stages of a tile of `data.len() / cols` rows by `cols`
    /// columns, already in bit-reversed row order, transformed down each
    /// column. A contiguous 1-D buffer is the one-column tile.
    fn stages(&self, data: &mut [Complex], cols: usize, level: KernelLevel) {
        assert!(
            data.len() == self.rev.len() * cols && (cols == 1 || cols.is_multiple_of(2)),
            "a tile must hold the plan's rows, one or an even number of columns wide"
        );
        match level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Avx2 is only produced after CPUID confirmed AVX2+FMA;
            // the assert above gives the kernels the shape they require,
            // and the plan's row count is a power of two.
            KernelLevel::Avx2 => unsafe {
                if cols == 1 {
                    avx2::stages(data, &self.twiddles)
                } else {
                    avx2::stages_tiled(data, cols, &self.twiddles)
                }
            },
            _ => stages_scalar(data, cols, &self.twiddles),
        }
        if let Some(s) = self.scale {
            for x in data.iter_mut() {
                *x = *x * s;
            }
        }
    }

    /// Transforms a contiguous buffer in place.
    fn transform(&self, data: &mut [Complex], level: KernelLevel) {
        for (i, &j) in self.rev.iter().enumerate() {
            if j > i {
                data.swap(i, j);
            }
        }
        self.stages(data, 1, level);
    }
}

/// In-place 1-D FFT of a power-of-two-length buffer.
///
/// The inverse transform includes the `1/n` normalisation, so
/// `fft_in_place(x, Forward)` followed by `fft_in_place(x, Inverse)`
/// reproduces the input.
///
/// # Errors
///
/// Returns [`TensorError::FftLengthNotPowerOfTwo`] for invalid lengths.
pub fn fft_in_place(data: &mut [Complex], direction: FftDirection) -> Result<()> {
    let n = data.len();
    check_pow2(n)?;
    if n > 1 {
        Plan::get(n, direction).transform(data, active_level());
    }
    Ok(())
}

/// The scalar (reference) stage loop: per-stage twiddles from the plan,
/// butterflies as plain complex mul/add, the multiply by one at each
/// block's first butterfly included.
fn stages_scalar(data: &mut [Complex], cols: usize, twiddles: &[Complex]) {
    let rows = data.len() / cols;
    let shift = cols.trailing_zeros();
    let mut half = 1;
    while half < rows {
        let tw = &twiddles[half - 1..2 * half - 1];
        for block in data.chunks_exact_mut(2 * half * cols) {
            let (lo, hi) = block.split_at_mut(half * cols);
            // Element `k` of the block's first half sits in row `k / cols`.
            for (k, (a, b)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                let u = *a;
                let v = *b * tw[k >> shift];
                *a = u + v;
                *b = u - v;
            }
        }
        half <<= 1;
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2+FMA butterfly stages, two complex f64 butterflies per 256-bit
    //! vector. Twiddles come from the plan, so their values are those of
    //! the scalar level; only the product `v * w` differs, computed with
    //! `fmaddsub` (the FFT epsilon tier covers it). The length-2 stage's
    //! twiddle is exactly one, so it is a plain add/sub.
    //!
    //! Stages run two at a time: the four values a pair of radix-2 stages
    //! combines are loaded once, put through both stages' butterflies in
    //! registers and stored once. Each value sees the same operations in
    //! the same order as in two separate stages, so fusing changes no bit.
    use super::Complex;
    use std::arch::x86_64::*;

    /// `v * w` on interleaved `(re, im)` lanes, given `w.re` and `w.im`
    /// in their lanes: even lanes `w.re*v.re - w.im*v.im`, odd lanes
    /// `w.re*v.im + w.im*v.re`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn cmul(v: __m256d, (wr, wi): (__m256d, __m256d)) -> __m256d {
        let vs = _mm256_permute_pd(v, 0b0101);
        _mm256_fmaddsub_pd(wr, v, _mm256_mul_pd(wi, vs))
    }

    /// One radix-2 butterfly pair: `(u + v·w, u - v·w)`, or `(u + v, u - v)`
    /// for the length-2 stage (`w = None`).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn bfly(u: __m256d, v: __m256d, w: Option<(__m256d, __m256d)>) -> (__m256d, __m256d) {
        let vw = match w {
            Some(w) => cmul(v, w),
            None => v,
        };
        (_mm256_add_pd(u, vw), _mm256_sub_pd(u, vw))
    }

    /// Twiddles `k` and `k + 1`, each part duplicated across its
    /// butterfly's two lanes.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn pair(twiddles: *const Complex, k: usize) -> (__m256d, __m256d) {
        let w = _mm256_loadu_pd(twiddles.add(k).cast::<f64>());
        (_mm256_movedup_pd(w), _mm256_permute_pd(w, 0b1111))
    }

    /// Twiddle `w` broadcast across a vector.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn splat(w: Complex) -> (__m256d, __m256d) {
        (_mm256_set1_pd(w.re), _mm256_set1_pd(w.im))
    }

    /// The length-2 butterfly of the two values in one vector:
    /// `[x0, x1] -> [x0 + x1, x0 - x1]`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn bfly_in_lanes(x: __m256d) -> __m256d {
        let s = _mm256_permute2f128_pd(x, x, 0x01);
        _mm256_blend_pd(_mm256_add_pd(x, s), _mm256_sub_pd(s, x), 0b1100)
    }

    /// Stages of a contiguous buffer, two butterflies of one block per
    /// vector with their two twiddles loaded side by side.
    ///
    /// # Safety
    ///
    /// Host must support AVX2 and FMA; `data.len()` must be a power of two
    /// and `twiddles` a plan's table for that length.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn stages(data: &mut [Complex], twiddles: &[Complex]) {
        let n = data.len();
        debug_assert!(n.is_power_of_two() && twiddles.len() == n - 1);
        let p = data.as_mut_ptr().cast::<f64>();
        let tw = twiddles.as_ptr();
        if n < 4 {
            if n == 2 {
                let (u, v) = (_mm_loadu_pd(p), _mm_loadu_pd(p.add(2)));
                _mm_storeu_pd(p, _mm_add_pd(u, v));
                _mm_storeu_pd(p.add(2), _mm_sub_pd(u, v));
            }
            return;
        }
        // Stages of length 2 and 4: one block of four values per two vectors.
        let w = pair(tw, 1);
        for i in (0..n).step_by(4) {
            let (pu, pv) = (p.add(2 * i), p.add(2 * i + 4));
            let u = bfly_in_lanes(_mm256_loadu_pd(pu));
            let v = bfly_in_lanes(_mm256_loadu_pd(pv));
            let (a, b) = bfly(u, v, Some(w));
            _mm256_storeu_pd(pu, a);
            _mm256_storeu_pd(pv, b);
        }
        let mut half = 4;
        // Pairs of stages `half` and `2 * half`: values `j`, `j + half`,
        // `j + 2 * half` and `j + 3 * half` of each block of `4 * half`.
        while 4 * half <= n {
            for i in (0..n).step_by(4 * half) {
                for j in (0..half).step_by(2) {
                    let pa = p.add(2 * (i + j));
                    let [pb, pc, pd] = [1, 2, 3].map(|k| pa.add(2 * k * half));
                    let w1 = pair(tw, half - 1 + j);
                    let (a, b) = bfly(_mm256_loadu_pd(pa), _mm256_loadu_pd(pb), Some(w1));
                    let (c, d) = bfly(_mm256_loadu_pd(pc), _mm256_loadu_pd(pd), Some(w1));
                    let (a, c) = bfly(a, c, Some(pair(tw, 2 * half - 1 + j)));
                    let (b, d) = bfly(b, d, Some(pair(tw, 3 * half - 1 + j)));
                    _mm256_storeu_pd(pa, a);
                    _mm256_storeu_pd(pb, b);
                    _mm256_storeu_pd(pc, c);
                    _mm256_storeu_pd(pd, d);
                }
            }
            half <<= 2;
        }
        // An odd stage count leaves the last stage on its own.
        if half < n {
            for j in (0..half).step_by(2) {
                let (pu, pv) = (p.add(2 * j), p.add(2 * (j + half)));
                let (a, b) = bfly(
                    _mm256_loadu_pd(pu),
                    _mm256_loadu_pd(pv),
                    Some(pair(tw, half - 1 + j)),
                );
                _mm256_storeu_pd(pu, a);
                _mm256_storeu_pd(pv, b);
            }
        }
    }

    /// Stages of a `rows × cols` tile down its columns: each butterfly
    /// row pair shares one twiddle, broadcast across the tile's columns.
    ///
    /// # Safety
    ///
    /// Host must support AVX2 and FMA; `cols` must be even, `data.len()`
    /// a power-of-two multiple of `cols`, and `twiddles` a plan's table
    /// for that row count.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn stages_tiled(data: &mut [Complex], cols: usize, twiddles: &[Complex]) {
        let rows = data.len() / cols;
        debug_assert!(
            cols.is_multiple_of(2) && rows.is_power_of_two() && twiddles.len() == rows - 1
        );
        let p = data.as_mut_ptr().cast::<f64>();
        let row = |r: usize| p.add(2 * r * cols);
        // The stage of half-length `half`'s twiddle `j`; none at length 2.
        let tw = |half: usize, j: usize| (half > 1).then(|| splat(twiddles[half - 1 + j]));
        let mut half = 1;
        // Pairs of stages, as in `stages` but on whole rows.
        while 4 * half <= rows {
            for i in (0..rows).step_by(4 * half) {
                for j in 0..half {
                    let pa = row(i + j);
                    let [pb, pc, pd] = [1, 2, 3].map(|k| row(i + j + k * half));
                    let (w1, w2, w3) = (tw(half, j), tw(2 * half, j), tw(2 * half, j + half));
                    for c in (0..2 * cols).step_by(4) {
                        let (a, b) =
                            bfly(_mm256_loadu_pd(pa.add(c)), _mm256_loadu_pd(pb.add(c)), w1);
                        let (cc, d) =
                            bfly(_mm256_loadu_pd(pc.add(c)), _mm256_loadu_pd(pd.add(c)), w1);
                        let (a, cc) = bfly(a, cc, w2);
                        let (b, d) = bfly(b, d, w3);
                        _mm256_storeu_pd(pa.add(c), a);
                        _mm256_storeu_pd(pb.add(c), b);
                        _mm256_storeu_pd(pc.add(c), cc);
                        _mm256_storeu_pd(pd.add(c), d);
                    }
                }
            }
            half <<= 2;
        }
        if half < rows {
            for j in 0..half {
                let (pu, pv) = (row(j), row(j + half));
                let w = tw(half, j);
                for c in (0..2 * cols).step_by(4) {
                    let (a, b) = bfly(_mm256_loadu_pd(pu.add(c)), _mm256_loadu_pd(pv.add(c)), w);
                    _mm256_storeu_pd(pu.add(c), a);
                    _mm256_storeu_pd(pv.add(c), b);
                }
            }
        }
    }
}

/// In-place 2-D FFT of a row-major `h x w` buffer (both power-of-two).
///
/// Rows are transformed first, then columns in tiles of `TILE` columns
/// (see the module docs); each 1-D transform applies its own `1/n` on the
/// inverse. Transforms of at least `PARALLEL_THRESHOLD` points split their
/// rows, then their column tiles, over the worker pool; every element's
/// arithmetic is the same at any thread count.
///
/// # Errors
///
/// Returns [`TensorError::FftLengthNotPowerOfTwo`] if either extent is not
/// a power of two and [`TensorError::LengthMismatch`] if the buffer length
/// is not `h * w`.
pub fn fft2_in_place(
    data: &mut [Complex],
    h: usize,
    w: usize,
    direction: FftDirection,
) -> Result<()> {
    if data.len() != h * w {
        return Err(TensorError::LengthMismatch {
            expected: h * w,
            actual: data.len(),
        });
    }
    check_pow2(h)?;
    check_pow2(w)?;
    let _span = crate::profile::kernel_span(
        || format!("fft2[{h}x{w}]"),
        crate::profile::KernelCost::fft2(h, w),
    );
    let level = active_level();
    let tasks = if h * w >= PARALLEL_THRESHOLD {
        pool::effective_threads()
    } else {
        1
    };

    if w > 1 {
        let plan = Plan::get(w, direction);
        pool::parallel_for_chunks(data, h.div_ceil(tasks) * w, |_, rows| {
            for row in rows.chunks_exact_mut(w) {
                plan.transform(row, level);
            }
        });
    }
    if h > 1 {
        let plan = Plan::get(h, direction);
        match w {
            1 => columns::<1>(data, w, plan, level, tasks),
            2 => columns::<2>(data, w, plan, level, tasks),
            _ => columns::<TILE>(data, w, plan, level, tasks),
        }
    }
    Ok(())
}

/// The column pass of a row-major buffer `w` wide, in tiles of `C`
/// columns (`C` divides `w`), spread over `tasks` pool tasks: gather a
/// tile's rows in bit-reversed order, run the stages down its columns,
/// scatter it back.
fn columns<const C: usize>(
    data: &mut [Complex],
    w: usize,
    plan: &Plan,
    level: KernelLevel,
    tasks: usize,
) {
    let h = plan.rev.len();
    assert_eq!(data.len(), h * w, "buffer must hold the plan's rows");
    let tiles = w / C;
    let per_task = tiles.div_ceil(tasks);
    let base = SendPtr::new(data.as_mut_ptr());
    pool::parallel_for(tiles.div_ceil(per_task), |t| {
        let mut tile = vec![[Complex::ZERO; C]; h];
        for x0 in (t * per_task..((t + 1) * per_task).min(tiles)).map(|k| k * C) {
            for (dst, &src) in tile.iter_mut().zip(&plan.rev) {
                // SAFETY: `src < h` and `x0 + C <= w`, so the run is in
                // bounds of `data` (length asserted above); tasks own
                // disjoint column runs, and `data` outlives the blocking
                // `parallel_for`.
                *dst = unsafe { base.get().add(src * w + x0).cast::<[Complex; C]>().read() };
            }
            plan.stages(tile.as_flattened_mut(), C, level);
            for (r, out) in tile.iter().enumerate() {
                // SAFETY: as for the gather above, with `r < h`.
                unsafe {
                    base.get()
                        .add(r * w + x0)
                        .cast::<[Complex; C]>()
                        .write(*out)
                };
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(input: &[Complex]) -> Vec<Complex> {
        let n = input.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (t, &x) in input.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                    acc = acc + x * Complex::from_angle(ang);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut data = vec![Complex::ZERO; 6];
        assert!(fft_in_place(&mut data, FftDirection::Forward).is_err());
        let mut empty: Vec<Complex> = vec![];
        assert!(fft_in_place(&mut empty, FftDirection::Forward).is_err());
    }

    #[test]
    fn matches_naive_dft() {
        use crate::rng::{Rng, SeedableRng};
        let mut rng = crate::rng::StdRng::seed_from_u64(1);
        let mut data: Vec<Complex> = (0..32)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let expect = naive_dft(&data);
        fft_in_place(&mut data, FftDirection::Forward).unwrap();
        for (got, want) in data.iter().zip(&expect) {
            assert!((got.re - want.re).abs() < 1e-9);
            assert!((got.im - want.im).abs() < 1e-9);
        }
    }

    #[test]
    fn forward_inverse_round_trip() {
        use crate::rng::{Rng, SeedableRng};
        let mut rng = crate::rng::StdRng::seed_from_u64(2);
        let original: Vec<Complex> = (0..128)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let mut data = original.clone();
        fft_in_place(&mut data, FftDirection::Forward).unwrap();
        fft_in_place(&mut data, FftDirection::Inverse).unwrap();
        for (got, want) in data.iter().zip(&original) {
            assert!((got.re - want.re).abs() < 1e-10);
            assert!((got.im - want.im).abs() < 1e-10);
        }
    }

    #[test]
    fn fft2_round_trip() {
        use crate::rng::{Rng, SeedableRng};
        let mut rng = crate::rng::StdRng::seed_from_u64(3);
        let (h, w) = (16, 8);
        let original: Vec<Complex> = (0..h * w)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0))
            .collect();
        let mut data = original.clone();
        fft2_in_place(&mut data, h, w, FftDirection::Forward).unwrap();
        fft2_in_place(&mut data, h, w, FftDirection::Inverse).unwrap();
        for (got, want) in data.iter().zip(&original) {
            assert!((got.re - want.re).abs() < 1e-10);
        }
    }

    #[test]
    fn avx2_level_within_tier_of_scalar() {
        use crate::rng::{Rng, SeedableRng};
        use crate::simd::{detect_level, with_level, KernelLevel};
        if detect_level() < KernelLevel::Avx2 {
            return;
        }
        let mut rng = crate::rng::StdRng::seed_from_u64(9);
        for n in [2usize, 4, 8, 64, 512] {
            let original: Vec<Complex> = (0..n)
                .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            for dir in [FftDirection::Forward, FftDirection::Inverse] {
                let mut scalar = original.clone();
                let mut vectored = original.clone();
                with_level(KernelLevel::Scalar, || {
                    fft_in_place(&mut scalar, dir).unwrap();
                });
                with_level(KernelLevel::Avx2, || {
                    fft_in_place(&mut vectored, dir).unwrap();
                });
                for (s, v) in scalar.iter().zip(vectored.iter()) {
                    assert!((s.re - v.re).abs() <= 1e-12 + s.re.abs() * 1e-12, "n {n}");
                    assert!((s.im - v.im).abs() <= 1e-12 + s.im.abs() * 1e-12, "n {n}");
                }
            }
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        use crate::rng::{Rng, SeedableRng};
        let mut rng = crate::rng::StdRng::seed_from_u64(6);
        let original: Vec<Complex> = (0..64)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let spatial_energy: f64 = original.iter().map(|c| c.norm_sqr()).sum();
        let mut data = original;
        fft_in_place(&mut data, FftDirection::Forward).unwrap();
        let freq_energy: f64 = data.iter().map(|c| c.norm_sqr()).sum::<f64>() / 64.0;
        assert!((spatial_energy - freq_energy).abs() < 1e-9);
    }
}
