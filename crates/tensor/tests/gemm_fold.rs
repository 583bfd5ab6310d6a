//! Exact-fold oracle for the packed GEMM.
//!
//! At each kernel level the GEMM must be bit-identical to the naive
//! sequential fold it documents: every element starts at 0.0, folds
//! `p = 0..k` in ascending order — `acc += a*b` at `Scalar`,
//! `f32::mul_add` at `Avx2` — and then adds its row's bias (or 0.0). The
//! shapes sit on every block and tile edge of the loop nest (k around one
//! and two reduction blocks, m and n around the micro-tile and the row
//! block), every operand is read through dense, transposed and
//! row-windowed descriptors, and the result must not depend on the worker
//! count. An exact oracle is what lets a kernel change prove "no numeric
//! change" instead of arguing about an epsilon.

use litho_tensor::rng::{Rng, SeedableRng, StdRng};
use litho_tensor::{active_level, gemm, pool, with_level, KernelLevel, MatRef};

// Block geometry of the GEMM's loop nest (crates/tensor/src/matmul.rs).
const MR: usize = 6;
const NR: usize = 16;
const KC: usize = 256;
const MC: usize = 144;

const KS: [usize; 6] = [0, 1, KC - 1, KC, KC + 1, 2 * KC + 3];
const DIMS: [usize; 6] = [1, MR - 1, MR + 1, NR - 1, NR + 1, MC + 1];

/// How an operand sits in memory.
#[derive(Clone, Copy, Debug)]
enum Layout {
    /// Row-major, rows packed back to back.
    Dense,
    /// Stored as its row-major transpose, read through swapped strides.
    Transposed,
    /// A column window of a wider row-major matrix whose other columns are
    /// NaN, so a read outside the window poisons the result.
    Window,
}

const LAYOUTS: [Layout; 3] = [Layout::Dense, Layout::Transposed, Layout::Window];

/// A logical `rows x cols` matrix stored in a given layout.
struct Stored {
    data: Vec<f32>,
    offset: usize,
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

impl Stored {
    fn new(vals: &[f32], rows: usize, cols: usize, layout: Layout) -> Stored {
        let (mut data, offset, row_stride, col_stride) = match layout {
            Layout::Dense => (vec![0.0; rows * cols], 0, cols, 1),
            Layout::Transposed => (vec![0.0; rows * cols], 0, 1, rows),
            Layout::Window => (vec![f32::NAN; rows * (cols + 3) + 2], 2, cols + 3, 1),
        };
        for i in 0..rows {
            for j in 0..cols {
                data[offset + i * row_stride + j * col_stride] = vals[i * cols + j];
            }
        }
        Stored {
            data,
            offset,
            rows,
            cols,
            row_stride,
            col_stride,
        }
    }

    fn view(&self) -> MatRef<'_> {
        MatRef::new(
            &self.data[self.offset..],
            self.rows,
            self.cols,
            self.row_stride,
            self.col_stride,
        )
    }
}

/// The documented fold, element by element.
fn oracle(
    level: KernelLevel,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    (m, k, n): (usize, usize, usize),
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                let (x, y) = (a[i * k + p], b[p * n + j]);
                match level {
                    KernelLevel::Scalar => acc += x * y,
                    KernelLevel::Avx2 => acc = x.mul_add(y, acc),
                }
            }
            out[i * n + j] = acc + bias.map_or(0.0, |bias| bias[i]);
        }
    }
    out
}

struct Case {
    m: usize,
    k: usize,
    n: usize,
    a: Vec<f32>,
    b: Vec<f32>,
    bias: Option<Vec<f32>>,
}

impl Case {
    fn new(rng: &mut StdRng, m: usize, k: usize, n: usize, with_bias: bool) -> Case {
        let mut vals = |len: usize| {
            (0..len)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect::<Vec<_>>()
        };
        Case {
            m,
            k,
            n,
            a: vals(m * k),
            b: vals(k * n),
            bias: with_bias.then(|| vals(m)),
        }
    }

    /// Runs the GEMM at `level` with the given operand layouts and checks
    /// every output bit against the oracle.
    fn check(&self, level: KernelLevel, a_layout: Layout, b_layout: Layout, want: &[f32]) {
        let (m, k, n) = (self.m, self.k, self.n);
        let a = Stored::new(&self.a, m, k, a_layout);
        let b = Stored::new(&self.b, k, n, b_layout);
        let mut got = vec![f32::NAN; m * n];
        with_level(level, || {
            gemm(a.view(), b.view(), &mut got, self.bias.as_deref())
        });
        for (idx, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{m}x{k}x{n} at {level:?}, A {a_layout:?}, B {b_layout:?}, bias {}: element \
                 ({}, {}) is {g}, the fold gives {w}",
                self.bias.is_some(),
                idx / n,
                idx % n
            );
        }
    }

    fn want(&self, level: KernelLevel) -> Vec<f32> {
        oracle(
            level,
            &self.a,
            &self.b,
            self.bias.as_deref(),
            (self.m, self.k, self.n),
        )
    }
}

/// Both levels, each as the level the host actually runs (an `Avx2` pin
/// on a host without AVX2+FMA resolves to `Scalar`, and so does its fold).
fn levels() -> Vec<KernelLevel> {
    [KernelLevel::Scalar, KernelLevel::Avx2]
        .into_iter()
        .map(|l| with_level(l, active_level))
        .collect()
}

#[test]
fn fold_is_exact_on_block_and_tile_edges() {
    let mut rng = StdRng::seed_from_u64(0x6E33_F01D);
    for (idx, (&k, &m, &n)) in KS
        .iter()
        .flat_map(|k| {
            DIMS.iter()
                .flat_map(move |m| DIMS.iter().map(move |n| (k, m, n)))
        })
        .enumerate()
    {
        // One row block by one row block is the costliest shape; the
        // other 35 pairs already reach every edge of m and n.
        if m == MC + 1 && n == MC + 1 {
            continue;
        }
        let case = Case::new(&mut rng, m, k, n, idx % 2 == 1);
        // The layouts rotate over the shapes so that every shape edge is
        // met by each of them without paying for the full product.
        let a_layout = LAYOUTS[idx % 3];
        let b_layout = LAYOUTS[(idx / 3) % 3];
        for level in levels() {
            case.check(level, a_layout, b_layout, &case.want(level));
        }
    }
}

#[test]
fn fold_is_exact_at_any_thread_count() {
    let mut rng = StdRng::seed_from_u64(0x6E33_F02D);
    // Large enough to engage the pool: the first splits the rows, the
    // second the columns, the third crosses the row block and a reduction
    // block at once.
    let cases = [
        Case::new(&mut rng, MC + 1, 2 * KC + 3, NR + 1, true),
        Case::new(&mut rng, MR + 1, 2 * KC + 3, MC + 1, false),
        Case::new(&mut rng, MC + 1, KC + 1, MC + 1, true),
    ];
    for case in &cases {
        for level in levels() {
            let want = case.want(level);
            for threads in [1, 2, 8] {
                pool::configure_threads(threads);
                for a_layout in LAYOUTS {
                    for b_layout in LAYOUTS {
                        case.check(level, a_layout, b_layout, &want);
                    }
                }
            }
        }
    }
    pool::configure_threads(0);
}
