//! Neural-network building blocks with manual backpropagation.
//!
//! The LithoGAN reproduction cannot rely on an external deep-learning
//! framework, so this crate implements the full training stack used by the
//! paper's networks (Table 1 and Table 2):
//!
//! * [`Conv2d`] / [`ConvTranspose2d`] — 5×5 stride-2 (de)convolutions via
//!   im2col GEMM lowering.
//! * [`BatchNorm2d`], [`Dropout`], [`MaxPool2d`], [`Linear`], [`Flatten`].
//! * Activations: [`Relu`], [`LeakyRelu`], [`Tanh`], [`Sigmoid`].
//! * Losses: [`bce_with_logits`], [`l1_loss`], [`mse_loss`].
//! * Optimizers: [`Sgd`], [`Adam`] (the paper trains with Adam,
//!   lr = 2e-4, β = (0.5, 0.999)).
//!
//! Every layer implements [`Layer`]: `forward` caches whatever the backward
//! pass needs, `backward` consumes the cache and accumulates parameter
//! gradients, and `visit_params` exposes parameters to optimizers and the
//! weight serializer.
//!
//! # Example
//!
//! ```
//! use litho_nn::{Layer, Linear, Phase, Relu, Sequential};
//! use litho_tensor::Tensor;
//! use litho_tensor::rng::SeedableRng;
//!
//! let mut rng = litho_tensor::rng::StdRng::seed_from_u64(0);
//! let mut net = Sequential::new();
//! net.push(Linear::new(4, 8, &mut rng));
//! net.push(Relu::new());
//! net.push(Linear::new(8, 2, &mut rng));
//!
//! let x = Tensor::ones(&[3, 4]);
//! let y = net.forward(&x, Phase::Eval)?;
//! assert_eq!(y.dims(), &[3, 2]);
//! # Ok::<(), litho_tensor::TensorError>(())
//! ```

mod activation;
mod batchnorm;
mod conv;
mod deconv;
mod dropout;
pub mod gradcheck;
mod init;
mod layer;
mod linear;
mod loss;
mod optim;
mod pool;
mod sequential;
pub mod serialize;
mod stats;
pub(crate) mod util;

pub use activation::{LeakyRelu, Relu, Sigmoid, Tanh};
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use deconv::ConvTranspose2d;
pub use dropout::Dropout;
pub use init::WeightInit;
pub use layer::{Flatten, Layer, Param, Phase};
pub use linear::Linear;
pub use loss::{bce_with_logits, l1_loss, mse_loss, LossValue};
pub use optim::{Adam, Optimizer, Sgd, UpdateStat};
pub use pool::MaxPool2d;
pub use sequential::Sequential;
pub use stats::{RecordingHook, StatsHook, TensorStats};

pub use litho_tensor::{Result, Tensor, TensorError};
