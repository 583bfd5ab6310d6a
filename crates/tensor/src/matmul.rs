//! One packed, cache-blocked GEMM over strided operands, BLIS style (Van
//! Zee & van de Geijn, TOMS 2015).
//!
//! The NN stack lowers convolutions onto GEMM via im2col, so this is the
//! hottest kernel in the reproduction. Operands are [`MatRef`] descriptors
//! `(data, rows, cols, row_stride, col_stride)`: a transpose is swapped
//! strides and a column window of a wider matrix is a row stride larger
//! than its width, so no caller ever materialises a transposed copy.
//!
//! Loop nest (`jc / pc / ic / jr / ir`):
//!
//! * `jc` walks `NC`-column blocks of B and C, `pc` walks `KC`-deep blocks
//!   of the reduction. Each `KC x NC` block of B is packed once into
//!   zero-padded `NR`-column micro-panels (4 MB, resident in L3).
//! * `ic` walks `MC`-row blocks of A, each packed into zero-padded
//!   `MR`-row micro-panels (`MC x KC` = 144 KB, resident in L2).
//! * `jr / ir` walk `MR x NR` tiles. The micro-kernel streams one `KC x MR`
//!   A panel (6 KB) against one `KC x NR` B panel (16 KB), both L1
//!   resident, into a 6×16 register tile (12 `__m256` accumulators at
//!   [`KernelLevel::Avx2`], a scalar twin at [`KernelLevel::Scalar`]).
//!   A partial tile runs the same micro-kernel into a stack tile and only
//!   its valid part is copied out.
//!
//! Determinism contract: every output element is one ascending fold over
//! `p = 0..k` starting at 0.0 — `acc += a*b` at Scalar, a fused
//! multiply-add at Avx2 — followed by `+ bias` (or `+ 0.0`). A `KC` block
//! stores the raw f32 accumulator to C and the next block reloads it and
//! continues the same fold, so blocking never reassociates anything: the
//! result is bit-identical to the naive sequential fold for any block or
//! tile position and any thread count. The level is resolved once per
//! public entry on the caller thread and passed into pool closures.

use std::cell::RefCell;

use crate::pool;
use crate::simd::KernelLevel;
use crate::{Result, Tensor, TensorError};

/// Micro-tile rows.
const MR: usize = 6;
/// Micro-tile columns: two 8-lane vectors, so the 6×16 tile is 12 of the
/// 16 `ymm` registers, leaving room for two B vectors and one A broadcast.
const NR: usize = 16;
/// Reduction block depth: one `KC x NR` B micro-panel is 16 KB (L1).
pub(crate) const KC: usize = 256;
/// Row block (a multiple of `MR`): one packed `MC x KC` A block is 144 KB
/// (L2), re-read once per B micro-panel.
const MC: usize = 144;
/// Column block (a multiple of `NR`): one packed `KC x NC` B block is 4 MB
/// (L3), re-read once per A block.
const NC: usize = 4096;

/// Minimum number of multiply-accumulates before the worker pool is used.
const PARALLEL_THRESHOLD: usize = 1 << 17;

/// Multiply-accumulates each pool task should own, at minimum — waking
/// eight workers for a 256k-MAC product costs more than it saves.
const WORK_PER_TASK: usize = 1 << 17;

thread_local! {
    /// Per-thread packed A block and B block, grown on demand and reused.
    static PANELS: RefCell<[Vec<f32>; 2]> = const { RefCell::new([Vec::new(), Vec::new()]) };
}

/// A read-only strided matrix view: element `(i, j)` is
/// `data[i * row_stride + j * col_stride]`.
///
/// # Example
///
/// ```
/// use litho_tensor::{gemm, MatRef};
///
/// // [2, 3] row-major, used as its [3, 2] transpose.
/// let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
/// let mut out = [0.0; 4];
/// gemm(MatRef::row_major(&x, 2, 3), MatRef::row_major(&x, 2, 3).t(), &mut out, None);
/// assert_eq!(out, [14.0, 32.0, 32.0, 77.0]);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct MatRef<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

impl<'a> MatRef<'a> {
    /// A `rows x cols` view with explicit strides.
    ///
    /// # Panics
    ///
    /// Panics if the view reaches past the end of `data`.
    pub fn new(
        data: &'a [f32],
        rows: usize,
        cols: usize,
        row_stride: usize,
        col_stride: usize,
    ) -> Self {
        if rows > 0 && cols > 0 {
            let last = (rows - 1) * row_stride + (cols - 1) * col_stride;
            assert!(last < data.len(), "matrix view exceeds its data");
        }
        MatRef {
            data,
            rows,
            cols,
            row_stride,
            col_stride,
        }
    }

    /// A dense row-major `rows x cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn row_major(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major matrix length");
        MatRef::new(data, rows, cols, cols, 1)
    }

    /// The transpose: swapped dimensions and strides, no copy.
    pub fn t(self) -> Self {
        MatRef {
            rows: self.cols,
            cols: self.rows,
            row_stride: self.col_stride,
            col_stride: self.row_stride,
            ..self
        }
    }

    /// The `rows x cols` sub-block starting at `(r0, c0)`.
    fn block(self, r0: usize, rows: usize, c0: usize, cols: usize) -> Self {
        let data = if rows == 0 || cols == 0 {
            &[]
        } else {
            &self.data[r0 * self.row_stride + c0 * self.col_stride..]
        };
        MatRef {
            data,
            rows,
            cols,
            ..self
        }
    }
}

fn dims_2d(t: &Tensor) -> Result<[usize; 2]> {
    let d = t.dims();
    if d.len() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: d.len(),
        });
    }
    Ok([d[0], d[1]])
}

/// Tensor-level product with optional operand transposes.
fn tensor_gemm(a: &Tensor, b: &Tensor, ta: bool, tb: bool) -> Result<Tensor> {
    let (left, right) = (dims_2d(a)?, dims_2d(b)?);
    let mut av = MatRef::row_major(a.as_slice(), left[0], left[1]);
    let mut bv = MatRef::row_major(b.as_slice(), right[0], right[1]);
    if ta {
        av = av.t();
    }
    if tb {
        bv = bv.t();
    }
    if av.cols != bv.rows {
        return Err(TensorError::MatmulDimMismatch { left, right });
    }
    let mut out = Tensor::zeros(&[av.rows, bv.cols]);
    gemm(av, bv, out.as_mut_slice(), None);
    Ok(out)
}

/// Computes `c = a * b` for 2-D tensors.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either input is not rank 2 and
/// [`TensorError::MatmulDimMismatch`] if the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use litho_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let id = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
/// assert_eq!(matmul(&a, &id)?, a);
/// # Ok::<(), litho_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    tensor_gemm(a, b, false, false)
}

/// Computes `c = aᵀ * b` where `a` is `[k, m]` and `b` is `[k, n]`.
///
/// Used for weight gradients (`dW = xᵀ · dy` style products).
///
/// # Errors
///
/// Same conditions as [`matmul`].
pub fn matmul_transpose_a(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    tensor_gemm(a, b, true, false)
}

/// Computes `c = a * bᵀ` where `a` is `[m, k]` and `b` is `[n, k]`.
///
/// Used for input gradients (`dx = dy · Wᵀ` style products).
///
/// # Errors
///
/// Same conditions as [`matmul`].
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    tensor_gemm(a, b, false, true)
}

/// `c[m x n] = a[m x k] * b[k x n] (+ bias)`, with `c` dense row-major and
/// fully overwritten.
///
/// When `bias` is `Some`, `bias[i]` joins every element of row `i` after
/// its `k` reduction, as the last block's tiles are stored — bit-identical
/// to a separate sweep after the GEMM, without the extra pass. Runs on the
/// shared worker pool above an internal work threshold and emits one
/// `gemm[{m}x{n}x{k}]` kernel span.
///
/// # Panics
///
/// Panics if the inner dimensions disagree, `c.len() != m * n`, or the
/// bias length is not `m`.
pub fn gemm(a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32], bias: Option<&[f32]>) {
    let (m, n, k) = (a.rows, b.cols, a.cols);
    let _span = (m > 0 && n > 0).then(|| {
        crate::profile::kernel_span(
            || format!("gemm[{m}x{n}x{k}]"),
            crate::profile::KernelCost::gemm(m, n, k),
        )
    });
    // Resolve the kernel level once, on the caller thread, so pool workers
    // inherit it and a single GEMM never mixes implementations.
    gemm_at(crate::simd::active_level(), a, b, c, bias);
}

/// [`gemm`] at an explicit level and without a span, for kernels that
/// resolved the level themselves and carry their own span. Called from
/// inside a pool task, its own pool split runs inline.
pub(crate) fn gemm_at(
    level: KernelLevel,
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: &mut [f32],
    bias: Option<&[f32]>,
) {
    let (m, n, k) = (a.rows, b.cols, a.cols);
    assert_eq!(k, b.rows, "inner dimensions");
    assert_eq!(c.len(), m * n, "output length");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), m, "bias length");
    }
    if m == 0 || n == 0 {
        return;
    }
    let c_ptr = pool::SendPtr::new(c.as_mut_ptr());
    let work = m * n * k.max(1);
    let threads = pool::effective_threads().min((work / WORK_PER_TASK).max(1));
    let (m_tiles, n_tiles) = (m.div_ceil(MR), n.div_ceil(NR));
    if work < PARALLEL_THRESHOLD || threads <= 1 {
        // SAFETY: `c` is exactly the m x n window with row stride n.
        unsafe { gemm_nest(level, a, b, c_ptr.get(), n, bias) };
    } else if m_tiles >= n_tiles {
        // Row bands of whole tiles: each task owns disjoint rows of C.
        let band = m_tiles.div_ceil(threads.min(m_tiles)) * MR;
        pool::parallel_for(m.div_ceil(band), |t| {
            let (r0, rows) = (t * band, band.min(m - t * band));
            let band_bias = bias.map(|bias| &bias[r0..r0 + rows]);
            // SAFETY: row band `t` of C is disjoint from every other band's.
            unsafe {
                gemm_nest(
                    level,
                    a.block(r0, rows, 0, k),
                    b,
                    c_ptr.get().add(r0 * n),
                    n,
                    band_bias,
                )
            };
        });
    } else {
        // Column bands of whole tiles: each task packs only its own B.
        let band = n_tiles.div_ceil(threads.min(n_tiles)) * NR;
        pool::parallel_for(n.div_ceil(band), |t| {
            let (c0, cols) = (t * band, band.min(n - t * band));
            // SAFETY: column band `t` of C is disjoint from every other's.
            unsafe {
                gemm_nest(
                    level,
                    a,
                    b.block(0, k, c0, cols),
                    c_ptr.get().add(c0),
                    n,
                    bias,
                )
            };
        });
    }
}

/// The serial `jc / pc / ic / jr / ir` loop nest on the calling thread.
///
/// # Safety
///
/// `c` must be valid for reads and writes of the `a.rows x b.cols` window
/// with row stride `ldc`, and nothing else may access that window while
/// the call runs.
unsafe fn gemm_nest(
    level: KernelLevel,
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: *mut f32,
    ldc: usize,
    bias: Option<&[f32]>,
) {
    let (m, n, k) = (a.rows, b.cols, a.cols);
    PANELS.with(|cell| {
        let [a_pack, b_pack] = &mut *cell.borrow_mut();
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            // At least one reduction block, so k == 0 still stores the bias.
            for pc in (0..k.max(1)).step_by(KC) {
                let kc = KC.min(k - pc);
                let (first, last) = (pc == 0, pc + kc == k);
                pack(b.block(pc, kc, jc, nc).t(), NR, b_pack);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    pack(a.block(ic, mc, pc, kc), MR, a_pack);
                    for jr in (0..nc).step_by(NR) {
                        let b_panel = &b_pack[jr * kc..(jr + NR) * kc];
                        for ir in (0..mc).step_by(MR) {
                            let a_panel = &a_pack[ir * kc..(ir + MR) * kc];
                            let rows = ic + ir..(ic + ir + MR).min(m);
                            let mut tile_bias = [0.0f32; MR];
                            if let Some(bias) = bias {
                                tile_bias[..rows.len()].copy_from_slice(&bias[rows.clone()]);
                            }
                            let tile = Tile {
                                ptr: c.add(rows.start * ldc + jc + jr),
                                ldc,
                                rows: rows.len(),
                                cols: NR.min(nc - jr),
                            };
                            let store = Store {
                                first,
                                bias: last.then_some(&tile_bias),
                            };
                            tile.run(level, a_panel, b_panel, store);
                        }
                    }
                }
            }
        }
    });
}

/// Packs the rows of `src` into `width`-row micro-panels laid out
/// `[panel][col][row]`, zero-padding the last panel. A micro-panel is what
/// one micro-kernel step reads contiguously: `width` values per reduction
/// index. B blocks are packed through their transpose, so both operands
/// share this routine.
fn pack(src: MatRef<'_>, width: usize, dst: &mut Vec<f32>) {
    let (rows, depth) = (src.rows, src.cols);
    let len = rows.div_ceil(width) * width * depth;
    if dst.len() < len {
        dst.resize(len, 0.0);
    }
    if depth == 0 {
        return;
    }
    for (i, panel) in dst[..len].chunks_exact_mut(width * depth).enumerate() {
        let (r0, valid) = (i * width, width.min(rows - i * width));
        if src.row_stride == 1 {
            // Panel rows are adjacent in memory: copy `valid` per column.
            for (p, dst) in panel.chunks_exact_mut(width).enumerate() {
                let at = r0 + p * src.col_stride;
                dst[..valid].copy_from_slice(&src.data[at..at + valid]);
                dst[valid..].fill(0.0);
            }
        } else {
            for r in 0..width {
                if r < valid {
                    let row = (r0 + r) * src.row_stride;
                    for p in 0..depth {
                        panel[p * width + r] = src.data[row + p * src.col_stride];
                    }
                } else {
                    for p in 0..depth {
                        panel[p * width + r] = 0.0;
                    }
                }
            }
        }
    }
}

/// One `rows x cols` (at most `MR x NR`) window of C.
struct Tile {
    ptr: *mut f32,
    ldc: usize,
    rows: usize,
    cols: usize,
}

/// How a micro-kernel call enters and leaves its accumulators.
#[derive(Clone, Copy)]
struct Store<'a> {
    /// First reduction block: start from 0.0 instead of reloading C.
    first: bool,
    /// Last reduction block: add this per-row bias as the tile is stored.
    bias: Option<&'a [f32; MR]>,
}

impl Tile {
    /// Runs the micro-kernel for this tile. A partial tile goes through a
    /// full `MR x NR` stack tile so both levels need only one kernel.
    ///
    /// # Safety
    ///
    /// `ptr` must address a `rows x cols` window of C with row stride
    /// `ldc`, valid and exclusively owned for the call.
    unsafe fn run(&self, level: KernelLevel, a: &[f32], b: &[f32], store: Store<'_>) {
        if self.rows == MR && self.cols == NR {
            kernel(level, a, b, self.ptr, self.ldc, store);
            return;
        }
        let mut stack = [0.0f32; MR * NR];
        let row = |r: usize| std::slice::from_raw_parts_mut(self.ptr.add(r * self.ldc), self.cols);
        if !store.first {
            for r in 0..self.rows {
                stack[r * NR..r * NR + self.cols].copy_from_slice(row(r));
            }
        }
        kernel(level, a, b, stack.as_mut_ptr(), NR, store);
        for r in 0..self.rows {
            row(r).copy_from_slice(&stack[r * NR..r * NR + self.cols]);
        }
    }
}

/// Level dispatch for the micro-kernel.
///
/// # Safety
///
/// `c` must address a full `MR x NR` window with row stride `ldc`.
#[inline]
unsafe fn kernel(
    level: KernelLevel,
    a: &[f32],
    b: &[f32],
    c: *mut f32,
    ldc: usize,
    store: Store<'_>,
) {
    // The AVX2 body reads both panels through raw pointers.
    assert_eq!(a.len() / MR, b.len() / NR, "panel depths");
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `KernelLevel::Avx2` is only ever produced by
        // `simd::clamp_to_host`, which checked AVX2+FMA via CPUID.
        KernelLevel::Avx2 => avx2::kernel(a, b, c, ldc, store),
        _ => kernel_scalar(a, b, c, ldc, store),
    }
}

/// Scalar micro-kernel: `acc += a*b` per reduction step, exactly the
/// naive fold's rounding sequence.
///
/// # Safety
///
/// As [`kernel`].
unsafe fn kernel_scalar(a: &[f32], b: &[f32], c: *mut f32, ldc: usize, store: Store<'_>) {
    let mut acc = [[0.0f32; NR]; MR];
    if !store.first {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            acc_row.copy_from_slice(std::slice::from_raw_parts(c.add(r * ldc), NR));
        }
    }
    for (ap, bp) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
        let ap: &[f32; MR] = ap.try_into().expect("MR-wide A step");
        let bp: &[f32; NR] = bp.try_into().expect("NR-wide B step");
        for r in 0..MR {
            for j in 0..NR {
                acc[r][j] += ap[r] * bp[j];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let row = std::slice::from_raw_parts_mut(c.add(r * ldc), NR);
        match store.bias {
            Some(bias) => {
                for (dst, &v) in row.iter_mut().zip(acc_row) {
                    *dst = v + bias[r];
                }
            }
            None => row.copy_from_slice(acc_row),
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2+FMA micro-kernel. Lanes run across output *columns*; the `k`
    //! reduction stays a sequential per-element FMA fold.
    use super::{Store, MR, NR};
    use std::arch::x86_64::*;

    /// 6×16 tile in 12 `__m256` accumulators, broadcast-A + FMA.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and FMA, `b` must hold `a.len() / MR`
    /// steps of `NR` values, and `c` is as in [`super::kernel`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn kernel(a: &[f32], b: &[f32], c: *mut f32, ldc: usize, store: Store<'_>) {
        let steps = a.len() / MR;
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        if !store.first {
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let row = c.add(r * ldc);
                *acc_r = [_mm256_loadu_ps(row), _mm256_loadu_ps(row.add(8))];
            }
        }
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        for p in 0..steps {
            let b0 = _mm256_loadu_ps(bp.add(p * NR));
            let b1 = _mm256_loadu_ps(bp.add(p * NR + 8));
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = _mm256_broadcast_ss(&*ap.add(p * MR + r));
                acc_r[0] = _mm256_fmadd_ps(av, b0, acc_r[0]);
                acc_r[1] = _mm256_fmadd_ps(av, b1, acc_r[1]);
            }
        }
        for (r, &[v0, v1]) in acc.iter().enumerate() {
            let (v0, v1) = match store.bias {
                Some(bias) => {
                    let br = _mm256_set1_ps(bias[r]);
                    (_mm256_add_ps(v0, br), _mm256_add_ps(v1, br))
                }
                None => (v0, v1),
            };
            let row = c.add(r * ldc);
            _mm256_storeu_ps(row, v0);
            _mm256_storeu_ps(row.add(8), v1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn random_vec(len: usize, seed: u64) -> Vec<f32> {
        use crate::rng::{Rng, SeedableRng};
        let mut rng = crate::rng::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn dense(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, bias: Option<&[f32]>) -> Vec<f32> {
        let mut out = vec![f32::NAN; m * n];
        gemm(
            MatRef::row_major(a, m, k),
            MatRef::row_major(b, k, n),
            &mut out,
            bias,
        );
        out
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_dim_check() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_rank_check() {
        let a = Tensor::zeros(&[2, 3, 1]);
        let b = Tensor::zeros(&[3, 2]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_bit_identical_to_naive() {
        // Full tiles, row/column remainders, degenerate m=1 / k=1, and a
        // reduction crossing two KC blocks. Exact at the scalar level; the
        // AVX2 level is held to its own FMA fold in tests/gemm_fold.rs.
        crate::simd::with_level(KernelLevel::Scalar, || {
            for (case, (m, k, n)) in [
                (0, (33, 47, 29)),
                (1, (1, 16, 8)),
                (2, (4, 1, 9)),
                (3, (5, 3, 1)),
                (4, (8, 32, 24)),
                (5, (7, 2 * KC + 3, 17)),
            ]
            .into_iter()
            {
                let a = random_vec(m * k, 7 + case);
                let b = random_vec(k * n, 100 + case);
                let expect = naive(&a, &b, m, k, n);
                let ta = Tensor::from_vec(a, &[m, k]).unwrap();
                let tb = Tensor::from_vec(b, &[k, n]).unwrap();
                let c = matmul(&ta, &tb).unwrap();
                assert_eq!(c.as_slice(), expect.as_slice(), "case {case}");
            }
        });
    }

    #[test]
    fn parallel_path_matches_serial() {
        // Big enough to cross PARALLEL_THRESHOLD (128^3 = 2M MACs).
        crate::simd::with_level(KernelLevel::Scalar, || {
            let (m, k, n) = (128, 128, 128);
            let a = random_vec(m * k, 11);
            let b = random_vec(k * n, 12);
            assert_eq!(dense(&a, &b, m, k, n, None), naive(&a, &b, m, k, n));
        });
    }

    #[test]
    fn fused_bias_matches_separate_sweep() {
        crate::simd::with_level(KernelLevel::Scalar, || {
            let (m, k, n) = (7, 13, 21);
            let a = random_vec(m * k, 21);
            let b = random_vec(k * n, 22);
            let bias = random_vec(m, 23);
            let mut expect = naive(&a, &b, m, k, n);
            for i in 0..m {
                for j in 0..n {
                    expect[i * n + j] += bias[i];
                }
            }
            assert_eq!(dense(&a, &b, m, k, n, Some(&bias)), expect);
        });
    }

    #[test]
    fn transpose_a_variant() {
        crate::simd::with_level(KernelLevel::Scalar, || {
            let (k, m, n) = (13, 7, 9);
            let a = random_vec(k * m, 3);
            let b = random_vec(k * n, 4);
            // Explicit transpose as the oracle.
            let mut at = vec![0.0; m * k];
            for r in 0..k {
                for c in 0..m {
                    at[c * k + r] = a[r * m + c];
                }
            }
            let expect = naive(&at, &b, m, k, n);
            let got = matmul_transpose_a(
                &Tensor::from_vec(a, &[k, m]).unwrap(),
                &Tensor::from_vec(b, &[k, n]).unwrap(),
            )
            .unwrap();
            assert_eq!(got.as_slice(), expect.as_slice());
        });
    }

    #[test]
    fn transpose_b_variant() {
        crate::simd::with_level(KernelLevel::Scalar, || {
            let (m, k, n) = (6, 11, 8);
            let a = random_vec(m * k, 5);
            let b = random_vec(n * k, 6);
            let mut bt = vec![0.0; k * n];
            for r in 0..n {
                for c in 0..k {
                    bt[c * n + r] = b[r * k + c];
                }
            }
            let expect = naive(&a, &bt, m, k, n);
            let got = matmul_transpose_b(
                &Tensor::from_vec(a, &[m, k]).unwrap(),
                &Tensor::from_vec(b, &[n, k]).unwrap(),
            )
            .unwrap();
            assert_eq!(got.as_slice(), expect.as_slice());
        });
    }

    #[test]
    fn avx2_level_within_relative_tier_of_scalar() {
        if crate::simd::detect_level() < KernelLevel::Avx2 {
            return; // host cannot exercise the AVX2 path
        }
        // FMA keeps *more* precision than mul-then-add, so the two levels
        // agree to a tight relative tier but not bit-for-bit.
        let (m, k, n) = (33, 47, 29);
        let a = random_vec(m * k, 41);
        let b = random_vec(k * n, 42);
        let scalar = crate::simd::with_level(KernelLevel::Scalar, || dense(&a, &b, m, k, n, None));
        let vectored = crate::simd::with_level(KernelLevel::Avx2, || dense(&a, &b, m, k, n, None));
        for (i, (&s, &v)) in scalar.iter().zip(vectored.iter()).enumerate() {
            let tol = 1e-5f32.max(s.abs() * 1e-5);
            assert!((s - v).abs() <= tol, "element {i}: scalar {s} vs avx2 {v}");
        }
    }
}
