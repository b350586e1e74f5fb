#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! Synthetic class-structured image datasets.
//!
//! The paper evaluates on CIFAR-10/100, which are not available in this
//! environment. This crate generates a deterministic substitute that
//! preserves the property the class-aware criterion exploits: *images of
//! different classes activate different filter paths*. Each class is a
//! smooth low-frequency prototype pattern (a class-seeded mixture of 2-D
//! sinusoids per channel); samples are the prototype under per-sample
//! geometric jitter, amplitude variation and pixel noise. Classes are
//! therefore separable but non-trivially so, and per-class activation
//! statistics differ across filters — which is exactly what Eq. 3–7 of
//! the paper measure.
//!
//! # Example
//!
//! ```
//! use cap_data::{DatasetSpec, SyntheticDataset};
//!
//! # fn main() -> Result<(), cap_data::DataError> {
//! let spec = DatasetSpec::cifar10_like().with_image_size(8).with_counts(4, 2);
//! let data = SyntheticDataset::generate(&spec)?;
//! assert_eq!(data.train().len(), 40);
//! assert_eq!(data.test().len(), 20);
//! # Ok(())
//! # }
//! ```

mod augment;
mod dataset;
mod error;
mod synthetic;

pub use augment::{random_crop_shift, random_horizontal_flip};
pub use dataset::Dataset;
pub use error::DataError;
pub use synthetic::{DatasetSpec, SyntheticDataset};
