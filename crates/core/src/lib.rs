//! LithoGAN: end-to-end lithography modeling with conditional GANs.
//!
//! A from-scratch Rust reproduction of *LithoGAN: End-to-End Lithography
//! Modeling with Generative Adversarial Networks* (Ye, Alawieh, Lin, Pan —
//! DAC 2019). The crate assembles the paper's three networks on the
//! [`litho-nn`] training stack and ties them to the data pipeline of
//! [`litho-dataset`]:
//!
//! * [`Cgan`] — the pix2pix-style conditional GAN of Table 1 (encoder–
//!   decoder generator + convolutional discriminator) trained with the
//!   minimax objective of Eq. 1–3 (ℓ1 weight λ = 100, Adam lr 2e-4,
//!   β = (0.5, 0.999), batch 4).
//! * [`CenterCnn`] — the centre-regression CNN of Table 2.
//! * [`LithoGan`] — the dual-learning framework of Figure 5: the CGAN
//!   predicts the re-centred resist *shape*; the CNN predicts the resist
//!   *centre*; inference shifts the generated shape to the predicted
//!   centre ("post-adjustment").
//! * [`ThresholdBaseline`] — the comparison flow of Ref. \[12\] (Lin et
//!   al., TCAD'18): compact optical simulation + a CNN that predicts four
//!   slicing thresholds + contour processing.
//!
//! # Example
//!
//! ```no_run
//! use litho_dataset::{generate, DatasetConfig};
//! use litho_sim::ProcessConfig;
//! use lithogan::{LithoGan, NetConfig, TrainConfig};
//!
//! let config = DatasetConfig::scaled(ProcessConfig::n10(), 24, 32);
//! let (dataset, _) = generate(&config)?;
//! let (train, test) = dataset.split();
//!
//! let mut model = LithoGan::new(&NetConfig::scaled(32), 0);
//! model.train(&train, &TrainConfig { epochs: 4, ..TrainConfig::paper() }, |_, _| {})?;
//! let prediction = model.predict(&test[0].mask)?;
//! # Ok::<(), litho_tensor::TensorError>(())
//! ```
//!
//! [`litho-nn`]: https://docs.rs/litho-nn
//! [`litho-dataset`]: https://docs.rs/litho-dataset

mod baseline;
mod cgan;
mod center;
pub mod dash;
mod health;
pub mod incident;
mod lithogan;
mod netconfig;

pub use baseline::{BaselinePrediction, ThresholdBaseline};
pub use cgan::{Cgan, ReconLoss, TrainConfig, TrainHistory, TrainPair};
pub use center::CenterCnn;
pub use dash::{run_dash, DashConfig};
pub use health::{HealthConfig, HealthMonitor};
pub use lithogan::{LithoGan, LithoGanPrediction};
pub use netconfig::NetConfig;

pub use litho_health::AbortCondition;
pub use litho_tensor::{Result, Tensor, TensorError};
