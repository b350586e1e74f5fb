#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

//! Dense `f32` tensors and the linear-algebra kernels that back the
//! class-aware pruning reproduction.
//!
//! The crate provides exactly the substrate the paper's experiments rest
//! on when they run on PyTorch: an NCHW tensor type ([`Tensor`]), matrix
//! multiplication ([`matmul`]), convolution ([`conv_forward`],
//! [`conv_input_grad`]: direct kernels over zero-padded windows on small
//! stride-1 shapes, and elsewhere the im2col/col2im lowering to matmul,
//! [`im2col`], [`col2im`]), and the doubly-blocked
//! Toeplitz construction from Fig. 2 of the paper that rewrites a
//! convolution kernel as a sparse matrix ([`toeplitz::toeplitz_matrix`]).
//!
//! # Example
//!
//! ```
//! use cap_tensor::Tensor;
//!
//! # fn main() -> Result<(), cap_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
//! let b = Tensor::ones(&[3, 2]);
//! let c = cap_tensor::matmul(&a, &b)?;
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.data()[0], 6.0);
//! # Ok(())
//! # }
//! ```

mod conv;
mod error;
mod gemm;
mod init;
mod matmul;
mod reduce;
mod select;
mod simd;
mod tensor;
pub mod toeplitz;

pub use conv::{col2im, conv_forward, conv_input_grad, conv_output_size, im2col, Conv2dGeometry};
pub use error::TensorError;
pub use init::{kaiming_normal, randn, uniform};
pub use matmul::{matmul, matmul_transpose_a, matmul_transpose_b, transpose2d};
pub use reduce::{argmax_rows, max_all, mean_all, softmax_rows, sum_all};
pub use select::gemm_plan_summary;
pub use simd::{avx2_available, run_pass, set_simd_mode, simd_mode, ElementPass, SimdMode};
pub use tensor::Tensor;
