//! Dense `f32` tensor kernels for the LithoGAN reproduction.
//!
//! This crate is the numerical substrate shared by the neural-network stack
//! ([`litho-nn`]) and the lithography simulator ([`litho-sim`]):
//!
//! * [`Tensor`] — a dense, row-major, NCHW-friendly `f32` tensor with shape
//!   arithmetic, element-wise operations and reductions.
//! * [`gemm`] — one packed, cache-blocked GEMM over strided [`MatRef`]
//!   operands (plus the [`matmul`] tensor wrappers), parallelised on the
//!   persistent [`pool`] worker pool.
//! * [`pool`] — the process-wide worker pool shared by every parallel
//!   kernel (`--threads` / `LITHO_THREADS` control its size).
//! * [`im2col`] — the im2col/col2im lowering behind convolution and
//!   transposed convolution; the layers read im2col as a [`MatRef::im2col`]
//!   view that the GEMM packs straight from the image.
//! * [`fft`] — radix-2 complex FFT (1-D and 2-D) used by the partially
//!   coherent optical model for fast kernel convolution.
//! * [`ops`] — spatial helpers (pad, crop, shift, flip, bilinear resize).
//! * [`simd`] — runtime kernel-level dispatch (`LITHO_SIMD` / `--simd`):
//!   scalar reference vs AVX2+FMA inner kernels, resolved once per call.
//! * [`profile`] — static FLOPs/bytes cost models and the roofline
//!   classification behind the kernel profiling telemetry.
//! * [`Fnv1a`] — the incremental 64-bit FNV-1a behind every stable
//!   fingerprint (datasets, clips, alert dedup keys).
//! * [`rng`] — vendored deterministic PRNGs (SplitMix64, xoshiro256++) so
//!   the workspace builds with no external dependencies.
//!
//! # Example
//!
//! ```
//! use litho_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::ones(&[2, 2]);
//! let c = a.add(&b)?;
//! assert_eq!(c.as_slice(), &[2.0, 3.0, 4.0, 5.0]);
//! # Ok::<(), litho_tensor::TensorError>(())
//! ```
//!
//! [`litho-nn`]: https://docs.rs/litho-nn
//! [`litho-sim`]: https://docs.rs/litho-sim

pub mod alloc;
mod error;
pub mod fft;
mod fnv;
mod fused;
mod im2col;
mod matmul;
pub mod ops;
pub mod pool;
pub mod profile;
pub mod rng;
mod shape;
pub mod simd;
mod tensor;

pub use alloc::{allocated_bytes, note_workspace_bytes, peak_workspace_bytes, reset_allocated_bytes};
pub use error::TensorError;
pub use fft::Complex;
pub use fnv::Fnv1a;
pub use fused::{conv_forward_fused, conv_transpose_fused};
pub use im2col::{col2im, im2col, Im2ColSpec};
pub use matmul::{gemm, matmul, matmul_transpose_a, matmul_transpose_b, packed_panels, MatRef};
pub use shape::Shape;
pub use simd::{active_level, configure_simd, detect_level, parse_level, with_level, KernelLevel};
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
