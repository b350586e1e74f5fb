//! The weight-reshaping construction of Fig. 2 of the paper: a convolution
//! kernel is unrolled into a (sparse, here densely stored) matrix `𝒦` such
//! that multiplying `𝒦` with the flattened input reproduces the
//! convolution output.
//!
//! The paper uses this matrix to define the orthogonality regulariser
//! `‖𝒦𝒦ᵀ − I‖` (Eq. 2). The training loop in `cap-nn` uses the cheaper
//! kernel-gram relaxation (see `cap_nn::regularizer`), while this module
//! provides the exact construction for validation and analysis.

use crate::{Conv2dGeometry, Tensor, TensorError};

/// Builds the doubly-blocked Toeplitz matrix of a full convolution layer.
///
/// `weight` has shape `[out_channels, in_channels, k, k]`. The result has
/// shape `[out_channels * out_h * out_w, in_channels * in_h * in_w]`; row
/// `(f * out_h + oh) * out_w + ow` contains filter `f` shifted to output
/// position `(oh, ow)`, so that
/// `toeplitz · flatten(x) == conv2d(x, weight)` for a single sample `x`.
///
/// Positions that fall into the zero padding contribute no entry, exactly
/// as in the paper's Fig. 2 (stride-offset sparse rows).
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if `weight` is not 4-D or does
/// not match `geom`.
///
/// # Example
///
/// ```
/// use cap_tensor::{toeplitz::toeplitz_matrix, Conv2dGeometry, Tensor};
/// # fn main() -> Result<(), cap_tensor::TensorError> {
/// // The paper's Fig. 2: one 1x2x2 filter over a 3x3 input, stride 1.
/// let w = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let g = Conv2dGeometry::new(1, 1, 2, 1, 0, 3, 3)?;
/// let m = toeplitz_matrix(&w, &g)?;
/// assert_eq!(m.shape(), &[4, 9]); // 4 output positions x 9 input values
/// # Ok(())
/// # }
/// ```
pub fn toeplitz_matrix(weight: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    let _span = cap_obs::span!("tensor.toeplitz");
    check_weight(weight, geom)?;
    let k = geom.kernel;
    let rows = geom.out_channels * geom.out_h * geom.out_w;
    let cols = geom.in_channels * geom.in_h * geom.in_w;
    let mut m = Tensor::zeros(&[rows, cols]);
    let wdata = weight.data();
    let mdata = m.data_mut();
    for f in 0..geom.out_channels {
        for oh in 0..geom.out_h {
            for ow in 0..geom.out_w {
                let row = (f * geom.out_h + oh) * geom.out_w + ow;
                for c in 0..geom.in_channels {
                    for kh in 0..k {
                        let ih = (oh * geom.stride + kh) as isize - geom.padding as isize;
                        if ih < 0 || ih >= geom.in_h as isize {
                            continue;
                        }
                        for kw in 0..k {
                            let iw = (ow * geom.stride + kw) as isize - geom.padding as isize;
                            if iw < 0 || iw >= geom.in_w as isize {
                                continue;
                            }
                            let col = (c * geom.in_h + ih as usize) * geom.in_w + iw as usize;
                            let widx = ((f * geom.in_channels + c) * k + kh) * k + kw;
                            mdata[row * cols + col] = wdata[widx];
                        }
                    }
                }
            }
        }
    }
    Ok(m)
}

/// Convolves a single sample through the Toeplitz matrix:
/// `out = 𝒦 · flatten(x)`, reshaped to `[1, out_channels, out_h, out_w]`.
///
/// This is the reference implementation used to validate the im2col path.
///
/// # Errors
///
/// Propagates shape errors from the matrix construction or if `input` is
/// not a single NCHW sample matching `geom`.
pub fn conv2d_via_toeplitz(
    input: &Tensor,
    weight: &Tensor,
    geom: &Conv2dGeometry,
) -> Result<Tensor, TensorError> {
    if input.ndim() != 4
        || input.dim(0) != 1
        || input.dim(1) != geom.in_channels
        || input.dim(2) != geom.in_h
        || input.dim(3) != geom.in_w
    {
        return Err(TensorError::InvalidShape {
            shape: input.shape().to_vec(),
            expected: "single NCHW sample matching geometry",
        });
    }
    let m = toeplitz_matrix(weight, geom)?;
    let x = input.reshape(&[geom.in_channels * geom.in_h * geom.in_w, 1])?;
    let y = crate::matmul(&m, &x)?;
    y.reshape(&[1, geom.out_channels, geom.out_h, geom.out_w])
}

/// Computes the orthogonality residual `𝒦𝒦ᵀ − I` of the Toeplitz matrix
/// and returns its Frobenius norm, i.e. the paper's `‖𝒦𝒦ᵀ − I‖₂` term for
/// one layer evaluated exactly.
///
/// # Errors
///
/// Propagates shape errors from the matrix construction.
pub fn orthogonality_residual_norm(
    weight: &Tensor,
    geom: &Conv2dGeometry,
) -> Result<f64, TensorError> {
    let m = toeplitz_matrix(weight, geom)?;
    let gram = crate::matmul_transpose_b(&m, &m)?;
    let n = gram.dim(0);
    let mut acc = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            let target = if i == j { 1.0 } else { 0.0 };
            let d = f64::from(gram.at2(i, j)) - target;
            acc += d * d;
        }
    }
    Ok(acc.sqrt())
}

fn check_weight(weight: &Tensor, geom: &Conv2dGeometry) -> Result<(), TensorError> {
    if weight.ndim() != 4
        || weight.dim(0) != geom.out_channels
        || weight.dim(1) != geom.in_channels
        || weight.dim(2) != geom.kernel
        || weight.dim(3) != geom.kernel
    {
        return Err(TensorError::InvalidShape {
            shape: weight.shape().to_vec(),
            expected: "weight [out, in, k, k] matching geometry",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_example_matches_paper() {
        // Fig. 2: filter [[1,2],[3,4]] over 3x3 input, stride 1, no padding.
        let w = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let g = Conv2dGeometry::new(1, 1, 2, 1, 0, 3, 3).unwrap();
        let m = toeplitz_matrix(&w, &g).unwrap();
        assert_eq!(m.shape(), &[4, 9]);
        // Row 0: kernel anchored at (0,0) -> entries at inputs 0,1,3,4.
        assert_eq!(
            m.data()[0..9],
            [1.0, 2.0, 0.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]
        );
        // Row 1 is row 0 shifted by one column (stride-1 offset, as in Fig. 2).
        assert_eq!(
            m.data()[9..18],
            [0.0, 1.0, 2.0, 0.0, 3.0, 4.0, 0.0, 0.0, 0.0]
        );
        // Row 2: anchored at (1,0), offset by one full input row.
        assert_eq!(
            m.data()[18..27],
            [0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 4.0, 0.0]
        );
    }

    #[test]
    fn toeplitz_conv_equals_direct_conv() {
        // Direct (nested-loop) convolution as the ground truth.
        let g = Conv2dGeometry::new(2, 3, 3, 1, 1, 5, 5).unwrap();
        let w = Tensor::from_fn(&[3, 2, 3, 3], |i| ((i * 31 % 13) as f32 - 6.0) * 0.1);
        let x = Tensor::from_fn(&[1, 2, 5, 5], |i| ((i * 7 % 9) as f32 - 4.0) * 0.25);
        let via_toeplitz = conv2d_via_toeplitz(&x, &w, &g).unwrap();

        let mut direct = Tensor::zeros(&[1, 3, 5, 5]);
        for f in 0..3 {
            for oh in 0..5usize {
                for ow in 0..5usize {
                    let mut acc = 0.0f32;
                    for c in 0..2 {
                        for kh in 0..3usize {
                            for kw in 0..3usize {
                                let ih = oh as isize + kh as isize - 1;
                                let iw = ow as isize + kw as isize - 1;
                                if !(0..5).contains(&ih) || !(0..5).contains(&iw) {
                                    continue;
                                }
                                acc += w.at4(f, c, kh, kw) * x.at4(0, c, ih as usize, iw as usize);
                            }
                        }
                    }
                    direct.set4(0, f, oh, ow, acc);
                }
            }
        }
        for (a, b) in via_toeplitz.data().iter().zip(direct.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn residual_norm_zero_iff_rows_orthonormal() {
        // A 1x1 conv with a single filter of unit norm over a 1x1 input is
        // trivially orthonormal.
        let w = Tensor::from_vec(vec![1, 1, 1, 1], vec![1.0]).unwrap();
        let g = Conv2dGeometry::new(1, 1, 1, 1, 0, 1, 1).unwrap();
        assert!(orthogonality_residual_norm(&w, &g).unwrap() < 1e-6);

        let w2 = Tensor::from_vec(vec![1, 1, 1, 1], vec![2.0]).unwrap();
        assert!(orthogonality_residual_norm(&w2, &g).unwrap() > 1.0);
    }

    #[test]
    fn weight_shape_validated() {
        let g = Conv2dGeometry::new(2, 3, 3, 1, 1, 5, 5).unwrap();
        let bad = Tensor::zeros(&[3, 2, 2, 2]);
        assert!(toeplitz_matrix(&bad, &g).is_err());
    }
}
