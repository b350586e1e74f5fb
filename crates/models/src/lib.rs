#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! Model builders for the three architectures the paper evaluates:
//! VGG16, VGG19 (13/16 convolutions + classifier) and ResNet56
//! (3 stages × 9 basic blocks).
//!
//! Every builder takes a [`ModelConfig`] whose `width` multiplier scales
//! channel counts so the exact topologies remain trainable on a CPU.
//! `width = 1.0` reproduces the canonical channel counts (64…512 for VGG,
//! 16/32/64 for ResNet56).
//!
//! # Example
//!
//! ```
//! use cap_models::{vgg16, ModelConfig};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), cap_nn::NnError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let cfg = ModelConfig::new(10).with_width(0.125).with_image_size(16);
//! let mut net = vgg16(&cfg, &mut rng)?;
//! let x = cap_tensor::Tensor::zeros(&[1, 3, 16, 16]);
//! let logits = net.forward(&x, false)?;
//! assert_eq!(logits.shape(), &[1, 10]);
//! # Ok(())
//! # }
//! ```

mod config;
mod resnet;
mod vgg;

pub use config::ModelConfig;
pub use resnet::{resnet20, resnet56, resnet_cifar};
pub use vgg::{vgg11, vgg16, vgg19, vgg_from_plan, PlanEntry};
