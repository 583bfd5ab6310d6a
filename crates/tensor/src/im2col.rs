//! im2col / col2im lowering for convolution layers.
//!
//! `im2col` unrolls each receptive field of an NCHW image into one column of
//! a matrix so that convolution becomes a single GEMM; `col2im` is its
//! adjoint (scatter-add). The layers store neither matrix: the GEMM packs
//! its panels straight from the image through [`Im2ColImage`] (the
//! [`crate::MatRef::im2col`] view), and `crate::fused` scatters in
//! `col2im`'s exact order from per-item windows. [`im2col`] and [`col2im`]
//! stay as the references both are checked against.
//!
//! Both directions run on the shared worker pool over disjoint regions —
//! matrix rows for `im2col`, image channels for `col2im` — and use a
//! branch-free interior fast path: for every output row the valid `ox`
//! range is computed once, padding is written as explicit zero fills, and
//! stride-1 interiors degenerate to `copy_from_slice`. Per-element order is
//! unchanged, so results are bit-identical to the naive per-element loops
//! at any thread count.
//!
//! Kernel levels: `im2col` is pure data movement (memcpy/memset interiors),
//! identical at every level. `col2im`'s stride-1 interior add dispatches on
//! [`crate::simd::KernelLevel`] — the AVX2 path is lane-parallel elementwise
//! adds with the same per-element order, so *both* directions stay in the
//! exact epsilon tier at every level.

use crate::pool;
use crate::simd::KernelLevel;
use crate::{Result, Tensor, TensorError};

/// Minimum matrix elements before the worker pool is engaged.
const PARALLEL_THRESHOLD: usize = 1 << 16;

/// Geometry of an im2col lowering.
///
/// The same spec drives the forward lowering ([`im2col`]) and its adjoint
/// ([`col2im`]); keeping it a value type makes layer code declarative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Im2ColSpec {
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
    /// Zero padding added to the top and bottom.
    pub pad_h: usize,
    /// Zero padding added to the left and right.
    pub pad_w: usize,
}

impl Im2ColSpec {
    /// A square kernel with equal stride and padding in both axes.
    pub fn square(kernel: usize, stride: usize, pad: usize) -> Self {
        Im2ColSpec {
            kernel_h: kernel,
            kernel_w: kernel,
            stride_h: stride,
            stride_w: stride,
            pad_h: pad,
            pad_w: pad,
        }
    }

    /// Output spatial size for an input of `h x w`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the stride is zero or the
    /// padded input is smaller than the kernel.
    pub fn output_size(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        if self.stride_h == 0 || self.stride_w == 0 {
            return Err(TensorError::InvalidArgument("stride must be nonzero".into()));
        }
        let ph = h + 2 * self.pad_h;
        let pw = w + 2 * self.pad_w;
        if ph < self.kernel_h || pw < self.kernel_w {
            return Err(TensorError::InvalidArgument(format!(
                "padded input {ph}x{pw} smaller than kernel {}x{}",
                self.kernel_h, self.kernel_w
            )));
        }
        Ok((
            (ph - self.kernel_h) / self.stride_h + 1,
            (pw - self.kernel_w) / self.stride_w + 1,
        ))
    }
}

/// The valid `ox` interval `[lo, hi)` for a kernel tap offset `off` (in
/// input pixels, may be negative) against an axis of length `len` with the
/// given stride: exactly the positions where `ox * stride + off` lands in
/// bounds.
pub(crate) fn valid_range(off: isize, stride: usize, len: usize, count: usize) -> (usize, usize) {
    let lo = if off >= 0 {
        0
    } else {
        ((-off) as usize).div_ceil(stride)
    };
    let last = len as isize - 1 - off;
    if last < 0 {
        return (0, 0);
    }
    let hi = (last as usize / stride + 1).min(count);
    (lo.min(hi), hi)
}

/// Lowers one NCHW image batch into a `[c*kh*kw, n*oh*ow]` matrix.
///
/// Row `(c, ky, kx)` and column `(b, oy, ox)` holds the input pixel at
/// channel `c`, position `(oy*stride - pad + ky, ox*stride - pad + kx)` of
/// batch item `b`, or zero when that position falls in the padding.
///
/// The layers never build this matrix: the GEMM packs its panels straight
/// from the image ([`crate::MatRef::im2col`]). It stays as the reference
/// those panels are checked against.
///
/// # Errors
///
/// Returns an error if `input` is not rank 4 or the geometry is invalid.
pub fn im2col(input: &Tensor, spec: &Im2ColSpec) -> Result<Tensor> {
    let image = Im2ColImage::new(input, spec)?;
    let mut out = Tensor::zeros(&[image.rows(), image.cols()]);
    im2col_into(input, spec, &mut out)?;
    Ok(out)
}

/// [`im2col`] into a caller-owned matrix. `out` must already have shape
/// `[c*kh*kw, n*oh*ow]`; every element (including padding zeros) is
/// overwritten, so a recycled buffer needs no clearing.
fn im2col_into(input: &Tensor, spec: &Im2ColSpec, out: &mut Tensor) -> Result<()> {
    let image = Im2ColImage::new(input, spec)?;
    let (rows, cols) = (image.rows(), image.cols());
    if out.dims() != [rows, cols] {
        return Err(TensorError::ShapeMismatch {
            left: out.dims().to_vec(),
            right: vec![rows, cols],
        });
    }
    let dst = out.as_mut_slice();
    if rows * cols == 0 {
        return Ok(());
    }
    let _span = crate::profile::kernel_span(
        || format!("im2col[{rows}x{cols}]"),
        crate::profile::KernelCost::im2col(rows, cols),
    );
    let first = image.position(0);
    let fill_row = |row: usize, dst: &mut [f32]| image.run(image.tap(row), first, cols, dst, 1);
    if rows * cols < PARALLEL_THRESHOLD || pool::effective_threads() <= 1 {
        for (row, dst_row) in dst.chunks_mut(cols).enumerate() {
            fill_row(row, dst_row);
        }
    } else {
        pool::parallel_for_chunks(dst, cols, fill_row);
    }
    Ok(())
}

/// An NCHW image read as its `[c*kh*kw, n*oh*ow]` im2col matrix, which is
/// never stored: [`Im2ColImage::run`] reads any run of one of its rows
/// straight from the image.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Im2ColImage<'a> {
    data: &'a [f32],
    /// `[n, c, h, w]` of the image.
    dims: [usize; 4],
    spec: Im2ColSpec,
    /// Output map size: the matrix has `n * oh * ow` columns.
    out_hw: (usize, usize),
}

/// A row of the im2col matrix: kernel tap `(ci, ky, kx)`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tap {
    ci: usize,
    ky: usize,
    kx: usize,
}

/// A column of the im2col matrix: output position `(item, oy, ox)`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Position {
    item: usize,
    oy: usize,
    ox: usize,
}

impl<'a> Im2ColImage<'a> {
    /// The im2col matrix of `image` under `spec`.
    ///
    /// # Errors
    ///
    /// Returns an error if `image` is not rank 4 or the geometry is invalid.
    pub(crate) fn new(image: &'a Tensor, spec: &Im2ColSpec) -> Result<Self> {
        let dims = image.shape().as_nchw()?;
        let out_hw = spec.output_size(dims[2], dims[3])?;
        Ok(Im2ColImage {
            data: image.as_slice(),
            dims,
            spec: *spec,
            out_hw,
        })
    }

    /// `[n, c, h, w]` of the image.
    pub(crate) fn dims(&self) -> [usize; 4] {
        self.dims
    }

    /// Output map size `(oh, ow)`.
    pub(crate) fn out_hw(&self) -> (usize, usize) {
        self.out_hw
    }

    /// Matrix rows: one per kernel tap, `c * kh * kw`.
    pub(crate) fn rows(&self) -> usize {
        self.dims[1] * self.spec.kernel_h * self.spec.kernel_w
    }

    /// Matrix columns: one per output position, `n * oh * ow`.
    pub(crate) fn cols(&self) -> usize {
        self.dims[0] * self.out_hw.0 * self.out_hw.1
    }

    /// Row `row`'s tap.
    pub(crate) fn tap(&self, row: usize) -> Tap {
        let (kh, kw) = (self.spec.kernel_h, self.spec.kernel_w);
        Tap {
            ci: row / (kh * kw),
            ky: row % (kh * kw) / kw,
            kx: row % kw,
        }
    }

    /// The tap of the row after `tap`'s, without a division.
    pub(crate) fn next_tap(&self, mut tap: Tap) -> Tap {
        tap.kx += 1;
        if tap.kx == self.spec.kernel_w {
            tap.kx = 0;
            tap.ky += 1;
            if tap.ky == self.spec.kernel_h {
                tap.ky = 0;
                tap.ci += 1;
            }
        }
        tap
    }

    /// Column `col`'s output position.
    pub(crate) fn position(&self, col: usize) -> Position {
        let (oh, ow) = self.out_hw;
        let (item, pos) = (col / (oh * ow), col % (oh * ow));
        Position {
            item,
            oy: pos / ow,
            ox: pos % ow,
        }
    }

    /// Writes `len` consecutive elements of `tap`'s row, starting at
    /// column `from`, to `dst[i * stride]`. The run is walked one output
    /// row `(item, oy)` at a time, with no division: rows in the vertical
    /// padding and the ends of a row in the horizontal padding are zero
    /// fills, the rest is a strided gather (a copy at unit strides). Under
    /// the 1×1, stride-1, unpadded spec the run is walked one item plane
    /// at a time instead. This is what packing a GEMM panel costs, in
    /// either orientation.
    ///
    /// # Panics
    ///
    /// Panics if the run leaves the matrix or `dst` is too short.
    pub(crate) fn run(&self, tap: Tap, from: Position, len: usize, dst: &mut [f32], stride: usize) {
        let [n, c, h, w] = self.dims;
        let (oh, ow) = self.out_hw;
        let spec = &self.spec;
        assert!(tap.ci < c, "im2col row outside the matrix");
        if *spec == Im2ColSpec::square(1, 1, 0) {
            // The channel-major matrix: row `ci` is the items' `ci` planes
            // end to end, so the run is one copy per plane it touches.
            let plane = h * w;
            let (mut item, mut pos, mut at) = (from.item, from.oy * ow + from.ox, 0);
            while at < len {
                assert!(item < n, "im2col run outside the matrix");
                let run = (plane - pos).min(len - at);
                let start = (item * c + tap.ci) * plane + pos;
                let src = &self.data[start..start + run];
                if stride == 1 {
                    dst[at..at + run].copy_from_slice(src);
                } else {
                    for (i, &v) in src.iter().enumerate() {
                        dst[(at + i) * stride] = v;
                    }
                }
                (item, pos, at) = (item + 1, 0, at + run);
            }
            return;
        }
        let off_x = tap.kx as isize - spec.pad_w as isize;
        let ix = |ox: usize| (ox * spec.stride_w) as isize + off_x;
        let zero = |dst: &mut [f32], at: usize, n: usize| {
            if stride == 1 {
                dst[at..at + n].fill(0.0);
            } else {
                (at..at + n).for_each(|i| dst[i * stride] = 0.0);
            }
        };
        let Position {
            mut item,
            mut oy,
            mut ox,
        } = from;
        let mut at = 0;
        while at < len {
            assert!(item < n, "im2col run outside the matrix");
            let run = (ow - ox).min(len - at);
            let iy = (oy * spec.stride_h + tap.ky) as isize - spec.pad_h as isize;
            // Valid columns of this output row: ox + [lo, hi). Trimming the
            // padding off both ends steps at most the padding's width.
            let (mut lo, mut hi) = (0, 0);
            if (0..h as isize).contains(&iy) {
                hi = run;
                while lo < hi && ix(ox + lo) < 0 {
                    lo += 1;
                }
                while hi > lo && ix(ox + hi - 1) >= w as isize {
                    hi -= 1;
                }
            }
            zero(dst, at, lo);
            if lo < hi {
                let row = ((item * c + tap.ci) * h + iy as usize) * w;
                let start = row + ix(ox + lo) as usize;
                let count = hi - lo;
                let src = &self.data[start..start + (count - 1) * spec.stride_w + 1];
                if stride == 1 && spec.stride_w == 1 {
                    dst[at + lo..at + hi].copy_from_slice(src);
                } else {
                    for (i, &v) in src.iter().step_by(spec.stride_w).enumerate() {
                        dst[(at + lo + i) * stride] = v;
                    }
                }
            }
            zero(dst, at + hi, run - hi);
            at += run;
            ox = 0;
            oy += 1;
            if oy == oh {
                oy = 0;
                item += 1;
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatter-adds a `[c*kh*kw, n*oh*ow]` matrix back
/// into an NCHW image of shape `[n, c, h, w]`.
///
/// Overlapping receptive fields accumulate, which is exactly the gradient
/// of the im2col gather (and the forward pass of transposed convolution).
///
/// Parallelises over image channels: each channel's planes are disjoint in
/// the output and keep the serial per-element accumulation order, so the
/// result is bit-identical to the naive loop at any thread count.
///
/// # Errors
///
/// Returns an error if `cols` does not have the shape implied by the image
/// dimensions and `spec`.
pub fn col2im(
    cols: &Tensor,
    spec: &Im2ColSpec,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
) -> Result<Tensor> {
    let (oh, ow) = spec.output_size(h, w)?;
    let rows = c * spec.kernel_h * spec.kernel_w;
    let ncols = n * oh * ow;
    if cols.dims() != [rows, ncols] {
        return Err(TensorError::ShapeMismatch {
            left: cols.dims().to_vec(),
            right: vec![rows, ncols],
        });
    }
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let src = cols.as_slice();
    let dst = out.as_mut_slice();
    if dst.is_empty() {
        return Ok(out);
    }
    let _span = crate::profile::kernel_span(
        || format!("col2im[{rows}x{ncols}]"),
        crate::profile::KernelCost::col2im(rows, ncols),
    );
    // Resolve the kernel level once on the caller thread; the stride-1
    // interior add is elementwise, so the AVX2 path stays bit-exact.
    let level = crate::simd::active_level();
    let plane = h * w;
    let base = pool::SendPtr::new(dst.as_mut_ptr());
    let dst_len = dst.len();

    let scatter_channel = move |ci: usize| {
        for b in 0..n {
            let start = (b * c + ci) * plane;
            debug_assert!(start + plane <= dst_len);
            // SAFETY: channel tasks touch disjoint `(b, ci)` planes; the
            // buffer outlives the blocking parallel_for call.
            let dst_plane =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(start), plane) };
            let item_cols = &src[b * oh * ow..];
            scatter_plane(level, item_cols, ncols, ci, dst_plane, spec, (h, w), (oh, ow));
        }
    };

    if dst_len.max(rows * ncols) < PARALLEL_THRESHOLD || pool::effective_threads() <= 1 || c == 1 {
        for ci in 0..c {
            scatter_channel(ci);
        }
    } else {
        pool::parallel_for(c, scatter_channel);
    }
    Ok(out)
}

/// Scatter-adds channel `ci`'s rows of one batch item's columns into its
/// image plane: rows `(ky, kx)` outer, then `oy` — the per-plane
/// accumulation order of [`col2im`] and of the fused convolution core.
/// `cols` starts at the item's first column and has row stride `ld`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scatter_plane(
    level: KernelLevel,
    cols: &[f32],
    ld: usize,
    ci: usize,
    dst_plane: &mut [f32],
    spec: &Im2ColSpec,
    (h, w): (usize, usize),
    (oh, ow): (usize, usize),
) {
    let taps = spec.kernel_h * spec.kernel_w;
    for ky in 0..spec.kernel_h {
        for kx in 0..spec.kernel_w {
            let row_base = (ci * taps + ky * spec.kernel_w + kx) * ld;
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
                let seg = &cols[col_base + ox_lo..col_base + ox_hi];
                if spec.stride_w == 1 {
                    let out_seg = &mut dst_plane[dst_row + base_ix..dst_row + base_ix + seg.len()];
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_size_basic() {
        let spec = Im2ColSpec::square(5, 2, 2);
        // The paper's conv layers: 256 -> 128 with 5x5 stride 2 pad 2.
        assert_eq!(spec.output_size(256, 256).unwrap(), (128, 128));
        assert_eq!(spec.output_size(2, 2).unwrap(), (1, 1));
    }

    #[test]
    fn output_size_rejects_zero_stride() {
        let spec = Im2ColSpec::square(3, 0, 1);
        assert!(spec.output_size(8, 8).is_err());
    }

    #[test]
    fn identity_kernel() {
        // 1x1 kernel, stride 1, no pad: im2col is a reshape.
        let input =
            Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[1, 3, 2, 2]).unwrap();
        let spec = Im2ColSpec::square(1, 1, 0);
        let cols = im2col(&input, &spec).unwrap();
        assert_eq!(cols.dims(), &[3, 4]);
        assert_eq!(cols.as_slice(), input.as_slice());
    }

    #[test]
    fn gather_positions() {
        // Single channel 3x3 image, 2x2 kernel stride 1: 4 output positions.
        let input =
            Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let spec = Im2ColSpec::square(2, 1, 0);
        let cols = im2col(&input, &spec).unwrap();
        assert_eq!(cols.dims(), &[4, 4]);
        // Row 0 = kernel position (0,0): the top-left pixel of each window.
        assert_eq!(&cols.as_slice()[0..4], &[1.0, 2.0, 4.0, 5.0]);
        // Row 3 = kernel position (1,1): the bottom-right pixel of each window.
        assert_eq!(&cols.as_slice()[12..16], &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn padding_zeros() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let spec = Im2ColSpec::square(3, 1, 1);
        let cols = im2col(&input, &spec).unwrap();
        // Center kernel tap never touches padding; corner taps often do.
        let center_row = 4; // (ky=1, kx=1)
        let sums: Vec<f32> = (0..9)
            .map(|r| cols.as_slice()[r * 4..r * 4 + 4].iter().sum())
            .collect();
        assert_eq!(sums[center_row], 4.0);
        assert!(sums[0] < 4.0);
    }

    #[test]
    fn into_variants_reuse_dirty_buffers() {
        // A recycled, garbage-filled workspace must give the same answer as
        // a fresh allocation — _into must overwrite everything it owns.
        use crate::rng::{Rng, SeedableRng};
        let mut rng = crate::rng::StdRng::seed_from_u64(9);
        let (n, c, h, w) = (2, 3, 7, 6);
        let spec = Im2ColSpec {
            kernel_h: 3,
            kernel_w: 2,
            stride_h: 2,
            stride_w: 3, // stride > kernel leaves gaps in the scatter
            pad_h: 2,
            pad_w: 1,
        };
        let x = Tensor::from_vec(
            (0..n * c * h * w).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            &[n, c, h, w],
        )
        .unwrap();
        let fresh = im2col(&x, &spec).unwrap();
        let mut dirty = Tensor::full(fresh.dims(), f32::NAN);
        im2col_into(&x, &spec, &mut dirty).unwrap();
        assert_eq!(dirty.as_slice(), fresh.as_slice());

    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of an adjoint pair, which is exactly what backprop needs.
        use crate::rng::{Rng, SeedableRng};
        let mut rng = crate::rng::StdRng::seed_from_u64(42);
        let (n, c, h, w) = (2, 3, 6, 5);
        let spec = Im2ColSpec {
            kernel_h: 3,
            kernel_w: 2,
            stride_h: 2,
            stride_w: 1,
            pad_h: 1,
            pad_w: 0,
        };
        let x = Tensor::from_vec(
            (0..n * c * h * w).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            &[n, c, h, w],
        )
        .unwrap();
        let cols = im2col(&x, &spec).unwrap();
        let y = Tensor::from_vec(
            (0..cols.len()).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            cols.dims(),
        )
        .unwrap();
        let lhs: f32 = cols
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let back = col2im(&y, &spec, n, c, h, w).unwrap();
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn col2im_shape_check() {
        let spec = Im2ColSpec::square(2, 1, 0);
        let bad = Tensor::zeros(&[3, 3]);
        assert!(col2im(&bad, &spec, 1, 1, 3, 3).is_err());
    }
}
