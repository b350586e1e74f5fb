#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! Neural-network substrate for the class-aware pruning reproduction:
//! layers with explicit forward/backward passes, the paper's modified
//! training cost (Eq. 1–2), SGD with momentum, and training loops.
//!
//! The design intentionally avoids a taped autograd: every layer caches
//! what its own backward pass needs, and [`Network::backward`] walks the
//! stack in reverse. This keeps the structure of a model transparent to
//! the pruning machinery, which must pattern-match on layers to propagate
//! channel removals, and makes it trivial to capture the activation
//! gradients the paper's Taylor importance score (Eq. 4) requires — see
//! [`layer::Conv2d::set_record_activations`].
//!
//! # Example
//!
//! ```
//! use cap_nn::layer::{Conv2d, GlobalAvgPool, Linear, Relu};
//! use cap_nn::{fit, Network, RegularizerConfig, TrainConfig};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), cap_nn::NnError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = Network::new();
//! net.push(Conv2d::new(1, 4, 3, 1, 1, true, &mut rng)?);
//! net.push(Relu::new());
//! net.push(GlobalAvgPool::new());
//! net.push(Linear::new(4, 2, &mut rng)?);
//!
//! let images = cap_tensor::randn(&[8, 1, 6, 6], 0.0, 1.0, &mut rng);
//! let labels = vec![0, 1, 0, 1, 0, 1, 0, 1];
//! let cfg = TrainConfig { epochs: 1, ..TrainConfig::default() };
//! let history = fit(&mut net, &images, &labels, &cfg)?;
//! assert_eq!(history.len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod checkpoint;
mod error;
mod gradcheck;
pub mod heartbeat;
pub mod layer;
mod loss;
mod metrics;
mod network;
mod optimizer;
mod regularizer;
pub mod rundir;
mod train;

pub use error::NnError;
pub use gradcheck::{check_gradients, GradCheckReport};
pub use loss::{CrossEntropyLoss, LossOutput, Reduction};
pub use metrics::{accuracy, ConfusionMatrix};
pub use network::Network;
pub use optimizer::Sgd;
pub use regularizer::{kernel_gram_residual_grad, kernel_gram_residual_sq, RegularizerConfig};
pub use rundir::{RunDir, RunDirError};
pub use train::{evaluate, fit, gather_batch, predict_all, EpochStats, FaultPolicy, TrainConfig};
