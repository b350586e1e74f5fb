use crate::{Tensor, TensorError};

/// Spatial output size of a convolution along one axis.
///
/// # Errors
///
/// Returns [`TensorError::InvalidGeometry`] when the kernel does not fit
/// the padded input or the stride is zero.
pub fn conv_output_size(
    input: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Result<usize, TensorError> {
    if stride == 0 {
        return Err(TensorError::InvalidGeometry {
            reason: "stride must be non-zero".to_string(),
        });
    }
    let padded = input + 2 * padding;
    if kernel == 0 || kernel > padded {
        return Err(TensorError::InvalidGeometry {
            reason: format!("kernel {kernel} does not fit padded input {padded}"),
        });
    }
    Ok((padded - kernel) / stride + 1)
}

/// Geometry of a 2-D convolution: channel counts, kernel size, stride and
/// padding, plus the derived output size.
///
/// # Example
///
/// ```
/// use cap_tensor::Conv2dGeometry;
/// # fn main() -> Result<(), cap_tensor::TensorError> {
/// let g = Conv2dGeometry::new(3, 8, 3, 1, 1, 16, 16)?;
/// assert_eq!((g.out_h, g.out_w), (16, 16));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel (filter) count.
    pub out_channels: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding in both spatial dimensions.
    pub padding: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Conv2dGeometry {
    /// Validates and constructs a convolution geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if any dimension is zero or
    /// the kernel does not fit the padded input.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        in_h: usize,
        in_w: usize,
    ) -> Result<Self, TensorError> {
        if in_channels == 0 || out_channels == 0 {
            return Err(TensorError::InvalidGeometry {
                reason: "channel counts must be non-zero".to_string(),
            });
        }
        let out_h = conv_output_size(in_h, kernel, stride, padding)?;
        let out_w = conv_output_size(in_w, kernel, stride, padding)?;
        Ok(Conv2dGeometry {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            in_h,
            in_w,
            out_h,
            out_w,
        })
    }

    /// Number of rows of the im2col matrix: `in_channels * kernel²`.
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Number of columns of the im2col matrix: `out_h * out_w`.
    pub fn col_cols(&self) -> usize {
        self.out_h * self.out_w
    }
}

/// One contiguous run of the im2col lowering: row `row` of the column
/// matrix holds, at columns `col .. col + len` (one output row), the
/// input elements at `offset + j · stride` for `j in 0..len`, where
/// `offset` indexes one sample's `[in_channels, in_h, in_w]` slice.
struct Run {
    row: usize,
    col: usize,
    len: usize,
    offset: usize,
}

/// Output positions `lo..hi` along one axis whose kernel tap `t` lands
/// inside the input: `0 ≤ o · stride + t − padding < input`.
fn valid_range(
    out: usize,
    input: usize,
    t: usize,
    stride: usize,
    padding: usize,
) -> (usize, usize) {
    let lo = padding.saturating_sub(t).div_ceil(stride);
    let hi = (input + padding)
        .saturating_sub(t)
        .div_ceil(stride)
        .min(out);
    (lo, hi.max(lo))
}

/// Visits every non-empty [`Run`] of `geom` in `(c, kh, kw, oh)` order,
/// the loop order of the element-wise lowering, so an accumulating
/// scatter adds into each input element in the same sequence. Padding
/// taps form no run.
fn for_each_run(geom: &Conv2dGeometry, mut f: impl FnMut(Run)) {
    let (k, s, p) = (geom.kernel, geom.stride, geom.padding);
    // The valid ranges depend only on the tap, not the channel.
    let oh_ranges: Vec<(usize, usize)> = (0..k)
        .map(|kh| valid_range(geom.out_h, geom.in_h, kh, s, p))
        .collect();
    let ow_ranges: Vec<(usize, usize)> = (0..k)
        .map(|kw| valid_range(geom.out_w, geom.in_w, kw, s, p))
        .collect();
    for c in 0..geom.in_channels {
        for (kh, &(oh_lo, oh_hi)) in oh_ranges.iter().enumerate() {
            for (kw, &(ow_lo, ow_hi)) in ow_ranges.iter().enumerate() {
                if ow_lo == ow_hi {
                    continue;
                }
                let row = (c * k + kh) * k + kw;
                let iw = ow_lo * s + kw - p;
                for oh in oh_lo..oh_hi {
                    let ih = oh * s + kh - p;
                    f(Run {
                        row,
                        col: oh * geom.out_w + ow_lo,
                        len: ow_hi - ow_lo,
                        offset: (c * geom.in_h + ih) * geom.in_w + iw,
                    });
                }
            }
        }
    }
}

/// Lowers one input sample `[in_channels, in_h, in_w]` (given as the
/// `n`-th sample of a 4-D batch) into the im2col matrix
/// `[in_channels * k * k, out_h * out_w]`.
///
/// Column `(oh * out_w + ow)` holds the receptive field of output position
/// `(oh, ow)`; row `((c * k + kh) * k + kw)` holds input channel `c`,
/// kernel offset `(kh, kw)`. Out-of-bounds (padding) positions are zero.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if `input` is not 4-D or the
/// sample index / channel count disagrees with `geom`.
pub fn im2col(input: &Tensor, n: usize, geom: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    let _span = cap_obs::span!("tensor.im2col");
    if input.ndim() != 4 {
        return Err(TensorError::InvalidShape {
            shape: input.shape().to_vec(),
            expected: "4-D NCHW input",
        });
    }
    if n >= input.dim(0)
        || input.dim(1) != geom.in_channels
        || input.dim(2) != geom.in_h
        || input.dim(3) != geom.in_w
    {
        return Err(TensorError::InvalidShape {
            shape: input.shape().to_vec(),
            expected: "input matching convolution geometry",
        });
    }
    let mut cols = Tensor::zeros(&[geom.col_rows(), geom.col_cols()]);
    let ncols = geom.col_cols();
    let per_sample = geom.in_channels * geom.in_h * geom.in_w;
    let sample = &input.data()[n * per_sample..(n + 1) * per_sample];
    let cols_data = cols.data_mut();
    let stride = geom.stride;
    for_each_run(geom, |run| {
        let dst = &mut cols_data[run.row * ncols + run.col..][..run.len];
        let src = &sample[run.offset..];
        if stride == 1 {
            dst.copy_from_slice(&src[..run.len]);
        } else {
            for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                *d = v;
            }
        }
    });
    Ok(cols)
}

/// Adjoint of [`im2col`]: scatters a column matrix
/// `[in_channels * k * k, out_h * out_w]` back into the `n`-th sample of
/// `output` (shape `[N, in_channels, in_h, in_w]`), *accumulating* into
/// whatever is already stored there.
///
/// Together the pair satisfies `⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩`, which is
/// what makes it the correct backward operation for convolution inputs.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if shapes disagree with `geom`.
pub fn col2im(
    cols: &Tensor,
    output: &mut Tensor,
    n: usize,
    geom: &Conv2dGeometry,
) -> Result<(), TensorError> {
    let _span = cap_obs::span!("tensor.col2im");
    if cols.ndim() != 2 || cols.dim(0) != geom.col_rows() || cols.dim(1) != geom.col_cols() {
        return Err(TensorError::InvalidShape {
            shape: cols.shape().to_vec(),
            expected: "im2col matrix matching geometry",
        });
    }
    if output.ndim() != 4
        || n >= output.dim(0)
        || output.dim(1) != geom.in_channels
        || output.dim(2) != geom.in_h
        || output.dim(3) != geom.in_w
    {
        return Err(TensorError::InvalidShape {
            shape: output.shape().to_vec(),
            expected: "4-D output matching convolution geometry",
        });
    }
    let per_sample = geom.in_channels * geom.in_h * geom.in_w;
    let sample = &mut output.data_mut()[n * per_sample..(n + 1) * per_sample];
    col2im_sample(cols.data(), geom.col_cols(), sample, geom);
    Ok(())
}

/// Scatter core of [`col2im`] for a single sample given as a flat
/// `[in_channels * in_h * in_w]` slice, accumulating into it.
///
/// The sample's column matrix is read out of `cols`, a row-major matrix
/// `row_len` columns wide: row `r` is `cols[r * row_len ..][.. out_h *
/// out_w]`. A plain im2col matrix has `row_len = out_h * out_w`; a
/// matrix holding several samples side by side passes its full width
/// and a slice starting at the sample's first column.
///
/// This is the building block the data-parallel convolution backward
/// uses: each task owns its samples' slices of the input-gradient batch,
/// so concurrent scatters never alias.
///
/// # Panics
///
/// Panics if `cols` is too short for `geom` and `row_len`, and in debug
/// builds if `sample` disagrees with `geom`; use [`col2im`] for the
/// validated entry point.
pub fn col2im_sample(cols: &[f32], row_len: usize, sample: &mut [f32], geom: &Conv2dGeometry) {
    debug_assert!(row_len >= geom.col_cols());
    debug_assert_eq!(sample.len(), geom.in_channels * geom.in_h * geom.in_w);
    let stride = geom.stride;
    for_each_run(geom, |run| {
        let src = &cols[run.row * row_len + run.col..][..run.len];
        if stride == 1 {
            let dst = &mut sample[run.offset..][..run.len];
            for (d, &v) in dst.iter_mut().zip(src) {
                *d += v;
            }
        } else {
            for (d, &v) in sample[run.offset..].iter_mut().step_by(stride).zip(src) {
                *d += v;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_size_formula() {
        assert_eq!(conv_output_size(32, 3, 1, 1).unwrap(), 32);
        assert_eq!(conv_output_size(32, 3, 2, 1).unwrap(), 16);
        assert_eq!(conv_output_size(5, 2, 1, 0).unwrap(), 4);
        assert!(conv_output_size(3, 9, 1, 0).is_err());
        assert!(conv_output_size(3, 1, 0, 0).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: cols == flattened input.
        let x = Tensor::from_fn(&[1, 2, 3, 3], |i| i as f32);
        let g = Conv2dGeometry::new(2, 1, 1, 1, 0, 3, 3).unwrap();
        let cols = im2col(&x, 0, &g).unwrap();
        assert_eq!(cols.shape(), &[2, 9]);
        assert_eq!(cols.data(), x.data());
    }

    #[test]
    fn im2col_padding_zeroes_border() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let g = Conv2dGeometry::new(1, 1, 3, 1, 1, 2, 2).unwrap();
        let cols = im2col(&x, 0, &g).unwrap();
        // Column 0 is output position (0,0); its (kh=0, kw=0) row reads the
        // padded corner and must be zero.
        assert_eq!(cols.at2(0, 0), 0.0);
        // Centre tap (kh=1, kw=1) of output (0,0) reads input (0,0) = 1.
        assert_eq!(cols.at2(4, 0), 1.0);
    }

    /// The element-wise lowering the run-wise [`im2col`] replaced: one
    /// bounds check and one index computation per element.
    fn im2col_reference(input: &Tensor, n: usize, geom: &Conv2dGeometry) -> Tensor {
        let k = geom.kernel;
        let mut cols = Tensor::zeros(&[geom.col_rows(), geom.col_cols()]);
        let ncols = geom.col_cols();
        let data = input.data();
        let cols_data = cols.data_mut();
        for c in 0..geom.in_channels {
            for kh in 0..k {
                for kw in 0..k {
                    let base = ((c * k + kh) * k + kw) * ncols;
                    for oh in 0..geom.out_h {
                        let ih = (oh * geom.stride + kh) as isize - geom.padding as isize;
                        if ih < 0 || ih >= geom.in_h as isize {
                            continue;
                        }
                        let in_row_base =
                            ((n * geom.in_channels + c) * geom.in_h + ih as usize) * geom.in_w;
                        for ow in 0..geom.out_w {
                            let iw = (ow * geom.stride + kw) as isize - geom.padding as isize;
                            if iw < 0 || iw >= geom.in_w as isize {
                                continue;
                            }
                            cols_data[base + oh * geom.out_w + ow] =
                                data[in_row_base + iw as usize];
                        }
                    }
                }
            }
        }
        cols
    }

    /// The element-wise scatter the run-wise [`col2im_sample`] replaced.
    fn col2im_reference(cols: &Tensor, sample: &mut [f32], geom: &Conv2dGeometry) {
        let k = geom.kernel;
        let ncols = geom.col_cols();
        let cols_data = cols.data();
        let (in_h, in_w) = (geom.in_h, geom.in_w);
        for c in 0..geom.in_channels {
            for kh in 0..k {
                for kw in 0..k {
                    let base = ((c * k + kh) * k + kw) * ncols;
                    for oh in 0..geom.out_h {
                        let ih = (oh * geom.stride + kh) as isize - geom.padding as isize;
                        if ih < 0 || ih >= in_h as isize {
                            continue;
                        }
                        let out_row_base = (c * in_h + ih as usize) * in_w;
                        for ow in 0..geom.out_w {
                            let iw = (ow * geom.stride + kw) as isize - geom.padding as isize;
                            if iw < 0 || iw >= in_w as isize {
                                continue;
                            }
                            sample[out_row_base + iw as usize] +=
                                cols_data[base + oh * geom.out_w + ow];
                        }
                    }
                }
            }
        }
    }

    /// Kernels 1–5, strides 1–3 and paddings 0–2 over non-square inputs,
    /// including padding ≥ kernel, where whole runs fall in the padding.
    fn geometry_table() -> Vec<Conv2dGeometry> {
        let mut table = Vec::new();
        for k in 1..=5 {
            for s in 1..=3 {
                for p in 0..=2 {
                    for (h, w) in [(5, 7), (6, 3), (1, 4)] {
                        if let Ok(g) = Conv2dGeometry::new(2, 1, k, s, p, h, w) {
                            table.push(g);
                        }
                    }
                }
            }
        }
        assert!(table.len() > 100, "table too small: {}", table.len());
        table
    }

    fn assert_bits(got: &[f32], want: &[f32], what: &str, g: &Conv2dGeometry) {
        assert_eq!(got.len(), want.len(), "{what} {g:?}");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what} {g:?} element {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn run_wise_lowering_matches_element_wise_reference_bit_for_bit() {
        for g in geometry_table() {
            let x = Tensor::from_fn(&[2, g.in_channels, g.in_h, g.in_w], |i| {
                ((i as f32) * 0.37).sin()
            });
            for n in 0..2 {
                let got = im2col(&x, n, &g).unwrap();
                assert_bits(got.data(), im2col_reference(&x, n, &g).data(), "im2col", &g);
            }
            // col2im accumulates, so start from a non-zero sample and mix
            // magnitudes: any change in the order of the additions into
            // one element would change its rounding.
            let (rows, ncols) = (g.col_rows(), g.col_cols());
            let y = Tensor::from_fn(&[rows, ncols], |i| {
                ((i as f32) * 0.71).cos() * (1.0 + (i % 7) as f32 * 97.0)
            });
            let init: Vec<f32> = (0..g.in_channels * g.in_h * g.in_w)
                .map(|i| ((i as f32) * 0.13).sin())
                .collect();
            let mut want = init.clone();
            col2im_reference(&y, &mut want, &g);
            let mut got = init.clone();
            col2im_sample(y.data(), ncols, &mut got, &g);
            assert_bits(&got, &want, "col2im", &g);
            // The same columns read out of a wider matrix at a column
            // offset; the NaN padding proves no other column is read.
            let (offset, width) = (3, ncols + 5);
            let wide: Vec<f32> = (0..rows * width)
                .map(|i| {
                    let (r, c) = (i / width, i % width);
                    if (offset..offset + ncols).contains(&c) {
                        y.at2(r, c - offset)
                    } else {
                        f32::NAN
                    }
                })
                .collect();
            let mut strided = init.clone();
            col2im_sample(&wide[offset..], width, &mut strided, &g);
            assert_bits(&strided, &want, "col2im from a wide matrix", &g);
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        for g in geometry_table() {
            let shape = [1, g.in_channels, g.in_h, g.in_w];
            let x = Tensor::from_fn(&shape, |i| ((i * 37 % 11) as f32) - 5.0);
            let y = Tensor::from_fn(&[g.col_rows(), g.col_cols()], |i| {
                ((i * 17 % 7) as f32) - 3.0
            });
            let cols = im2col(&x, 0, &g).unwrap();
            let lhs: f64 = cols
                .data()
                .iter()
                .zip(y.data())
                .map(|(&a, &b)| f64::from(a) * f64::from(b))
                .sum();
            let mut xgrad = Tensor::zeros(&shape);
            col2im(&y, &mut xgrad, 0, &g).unwrap();
            let rhs: f64 = x
                .data()
                .iter()
                .zip(xgrad.data())
                .map(|(&a, &b)| f64::from(a) * f64::from(b))
                .sum();
            assert!((lhs - rhs).abs() < 1e-6, "{g:?}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn shape_validation() {
        let g = Conv2dGeometry::new(1, 1, 3, 1, 1, 4, 4).unwrap();
        let bad = Tensor::zeros(&[1, 2, 4, 4]);
        assert!(im2col(&bad, 0, &g).is_err());
        let cols = Tensor::zeros(&[9, 16]);
        let mut out = Tensor::zeros(&[1, 2, 4, 4]);
        assert!(col2im(&cols, &mut out, 0, &g).is_err());
    }
}
