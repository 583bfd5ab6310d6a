//! Mask layout substrate: clip geometry, contact-array generation, SRAF
//! insertion, model-based OPC and rasterisation.
//!
//! This crate substitutes for the Mentor Calibre flow the paper's dataset
//! was prepared with: it generates contact-layer mask clips, applies
//! resolution enhancement (rule-based sub-resolution assist features and
//! model-based OPC driven by the [`litho-sim`] compact model), and renders
//! the result into the paper's RGB encoding — target contact in the green
//! channel, neighbouring contacts in red, SRAFs in blue (paper §3.1,
//! Figure 3).
//!
//! # Example
//!
//! ```
//! use litho_layout::{ClipFamily, ClipGenerator};
//! use litho_sim::ProcessConfig;
//! use litho_tensor::rng::SeedableRng;
//!
//! let process = ProcessConfig::n10();
//! let mut rng = litho_tensor::rng::StdRng::seed_from_u64(7);
//! let clip = ClipGenerator::new(&process).generate(ClipFamily::Array2d, &mut rng);
//! assert!(!clip.neighbors.is_empty());
//! ```
//!
//! [`litho-sim`]: https://docs.rs/litho-sim

mod clip;
mod geometry;
pub mod image;
mod opc;
mod patterns;
mod raster;
mod sraf;

pub use clip::Clip;
pub use geometry::Rect;
pub use opc::{OpcConfig, OpcEngine, OpcResult};
pub use patterns::{ClipFamily, ClipGenerator};
pub use raster::{rasterize_clip, RasterConfig};
pub use sraf::{insert_srafs, SrafRules};

pub use litho_tensor::{Result, TensorError};
