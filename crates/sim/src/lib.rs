//! Lithography simulation substrate: partially coherent optical imaging and
//! a variable-threshold resist (VTR) model.
//!
//! This crate stands in for the commercial tools the LithoGAN paper relied
//! on (Synopsys Sentaurus Lithography for golden resist contours, and the
//! optical-simulation stage of Mentor Calibre). The flow mirrors Figure 1
//! of the paper:
//!
//! ```text
//! mask grid --OpticalModel--> aerial image --ResistModel--> thresholds
//!           --develop/contour--> resist pattern
//! ```
//!
//! * [`MaskGrid`] — a rasterised mask transmission function on a physical
//!   (nm-pitch) pixel grid.
//! * [`OpticalModel`] — a sum-of-coherent-systems (SOCS) imaging model:
//!   the partially coherent transmission-cross-coefficient operator is
//!   approximated by a rank-K set of Hermite–Gaussian kernels whose width
//!   is set by the Rayleigh resolution `k₁ λ / NA`. Images are computed by
//!   FFT convolution.
//! * [`ResistModel`] — a VTR model (paper reference \[9\]): the local
//!   development threshold varies with the local intensity envelope and
//!   image slope; acid diffusion is a Gaussian blur of the aerial image.
//! * [`contour`] — marching-squares contour extraction.
//! * [`RigorousSim`] — the "golden" simulator facade: focus-stack imaging
//!   at higher kernel rank on the full clip, substituting for rigorous
//!   physical simulation.
//!
//! # Example
//!
//! ```
//! use litho_sim::{MaskGrid, OpticalModel, ProcessConfig};
//!
//! let process = ProcessConfig::n10();
//! let mut mask = MaskGrid::new(128, 16.0);
//! mask.fill_rect_nm(960.0, 960.0, 1088.0, 1088.0, 1.0);
//! let optical = OpticalModel::new(&process, 128, 16.0)?;
//! let aerial = optical.aerial_image(&mask)?;
//! assert!(aerial.max_intensity() > 0.0);
//! # Ok::<(), litho_tensor::TensorError>(())
//! ```

mod aerial;
pub mod contour;
mod grid;
mod kernels;
mod optical;
mod process;
mod resist;
mod rigorous;

pub use aerial::AerialImage;
pub use contour::{extract_contours, Contour};
pub use grid::MaskGrid;
pub use kernels::{hermite, OpticalKernel};
pub use optical::OpticalModel;
pub use process::{ProcessConfig, ResistParams};
pub use resist::{ResistModel, ResistPattern};
pub use rigorous::{RigorousSim, SimReport};

pub use litho_tensor::{Result, TensorError};
