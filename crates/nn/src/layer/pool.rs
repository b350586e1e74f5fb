use crate::NnError;
use cap_tensor::{conv_output_size, Tensor};

/// Max pooling with a square window.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    cached_argmax: Vec<usize>,
    cached_in_shape: Vec<usize>,
    cached_out_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pool layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Result<Self, NnError> {
        if kernel == 0 || stride == 0 {
            return Err(NnError::InvalidConfig {
                reason: "max-pool kernel and stride must be non-zero".to_string(),
            });
        }
        Ok(MaxPool2d {
            kernel,
            stride,
            cached_argmax: Vec::new(),
            cached_in_shape: Vec::new(),
            cached_out_shape: Vec::new(),
        })
    }

    /// Window side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Forward pass over `[N, C, H, W]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for non-4-D input or a window larger
    /// than the input.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        if x.ndim() != 4 {
            return Err(NnError::BadInput {
                layer: "MaxPool2d",
                expected: "[N, C, H, W]".to_string(),
                got: x.shape().to_vec(),
            });
        }
        let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let oh = conv_output_size(h, self.kernel, self.stride, 0).map_err(NnError::Tensor)?;
        let ow = conv_output_size(w, self.kernel, self.stride, 0).map_err(NnError::Tensor)?;
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        self.cached_argmax = vec![0; n * c * oh * ow];
        cap_tensor::run_pass(MaxPoolWindows {
            x: x.data(),
            out: out.data_mut(),
            argmax: &mut self.cached_argmax,
            hw: (h, w),
            ohw: (oh, ow),
            kernel: self.kernel,
            stride: self.stride,
        });
        self.cached_in_shape = x.shape().to_vec();
        self.cached_out_shape = out.shape().to_vec();
        Ok(out)
    }

    /// Drops the argmax positions and shapes `backward` reads.
    pub(crate) fn clear_cache(&mut self) {
        self.cached_argmax = Vec::new();
        self.cached_in_shape = Vec::new();
        self.cached_out_shape = Vec::new();
    }

    /// Backward pass: routes each gradient to the argmax position.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingCache`] before `forward`, or
    /// [`NnError::BadInput`] on shape mismatch.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        if self.cached_in_shape.is_empty() {
            return Err(NnError::MissingCache { layer: "MaxPool2d" });
        }
        if grad_out.shape() != self.cached_out_shape.as_slice() {
            return Err(NnError::BadInput {
                layer: "MaxPool2d backward",
                expected: format!("{:?}", self.cached_out_shape),
                got: grad_out.shape().to_vec(),
            });
        }
        let mut grad_in = Tensor::zeros(&self.cached_in_shape);
        cap_tensor::run_pass(ScatterToArgmax {
            grad_in: grad_in.data_mut(),
            grad_out: grad_out.data(),
            argmax: &self.cached_argmax,
        });
        Ok(grad_in)
    }
}

/// Each window's maximum and the index of its first maximal element.
struct MaxPoolWindows<'a> {
    x: &'a [f32],
    out: &'a mut [f32],
    argmax: &'a mut [usize],
    hw: (usize, usize),
    ohw: (usize, usize),
    kernel: usize,
    stride: usize,
}

impl cap_tensor::ElementPass for MaxPoolWindows<'_> {
    #[inline(always)]
    fn run(self) {
        let ((h, w), (oh, ow), stride) = (self.hw, self.ohw, self.stride);
        let data = self.x;
        // One pass over the input decides whether the NaN rule below can
        // fire; without a NaN the window test stays a single compare.
        let input_has_nan = data.iter().fold(false, |any, v| any | v.is_nan());
        let outs = self
            .out
            .chunks_mut(oh * ow)
            .zip(self.argmax.chunks_mut(oh * ow));
        for (p, (out, argmax)) in outs.enumerate() {
            for ph in 0..oh {
                for pw in 0..ow {
                    // The argmax starts at the window's own first
                    // element, and the first NaN wins, as in torch's
                    // max_pool2d: an all-NaN or all −∞ window keeps its
                    // gradient in its own sample, and a NaN reaches the
                    // loss.
                    let first = (p * h + ph * stride) * w + pw * stride;
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = first;
                    for kh in 0..self.kernel {
                        for kw in 0..self.kernel {
                            let idx = first + kh * w + kw;
                            let v = data[idx];
                            if v > best || (input_has_nan && v.is_nan() && !best.is_nan()) {
                                best = v;
                                best_idx = idx;
                            }
                        }
                    }
                    out[ph * ow + pw] = best;
                    argmax[ph * ow + pw] = best_idx;
                }
            }
        }
    }
}

/// `grad_in[argmax[o]] += grad_out[o]`, ascending `o`.
struct ScatterToArgmax<'a> {
    grad_in: &'a mut [f32],
    grad_out: &'a [f32],
    argmax: &'a [usize],
}

impl cap_tensor::ElementPass for ScatterToArgmax<'_> {
    #[inline(always)]
    fn run(self) {
        for (&g, &i) in self.grad_out.iter().zip(self.argmax) {
            self.grad_in[i] += g;
        }
    }
}

/// Global average pooling: `[N, C, H, W] → [N, C]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    cached_in_shape: Vec<usize>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool::default()
    }

    /// Forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for non-4-D input.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        if x.ndim() != 4 {
            return Err(NnError::BadInput {
                layer: "GlobalAvgPool",
                expected: "[N, C, H, W]".to_string(),
                got: x.shape().to_vec(),
            });
        }
        let (n, c) = (x.dim(0), x.dim(1));
        let mut out = Tensor::zeros(&[n, c]);
        cap_tensor::run_pass(PlaneMeans {
            x: x.data(),
            out: out.data_mut(),
        });
        self.cached_in_shape = x.shape().to_vec();
        Ok(out)
    }

    /// Backward pass: spreads each gradient uniformly over the plane.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingCache`] before `forward`, or
    /// [`NnError::BadInput`] on shape mismatch.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        if self.cached_in_shape.is_empty() {
            return Err(NnError::MissingCache {
                layer: "GlobalAvgPool",
            });
        }
        let (n, c, h, w) = (
            self.cached_in_shape[0],
            self.cached_in_shape[1],
            self.cached_in_shape[2],
            self.cached_in_shape[3],
        );
        if grad_out.shape() != [n, c] {
            return Err(NnError::BadInput {
                layer: "GlobalAvgPool backward",
                expected: format!("[{n}, {c}]"),
                got: grad_out.shape().to_vec(),
            });
        }
        let mut grad_in = Tensor::zeros(&self.cached_in_shape);
        cap_tensor::run_pass(SpreadOverPlanes {
            grad_in: grad_in.data_mut(),
            grad_out: grad_out.data(),
            scale: 1.0 / (h * w) as f32,
        });
        Ok(grad_in)
    }
}

/// `out[p]` is the mean of plane `p` of `x`, summed in f64 in ascending
/// order.
struct PlaneMeans<'a> {
    x: &'a [f32],
    out: &'a mut [f32],
}

impl cap_tensor::ElementPass for PlaneMeans<'_> {
    #[inline(always)]
    fn run(self) {
        let plane = self.x.len().checked_div(self.out.len()).unwrap_or(0);
        for (p, out) in self.out.iter_mut().enumerate() {
            let sum: f64 = self.x[p * plane..(p + 1) * plane]
                .iter()
                .map(|&v| f64::from(v))
                .sum();
            *out = (sum / plane as f64) as f32;
        }
    }
}

/// Fills plane `p` of `grad_in` with `grad_out[p] · scale`.
struct SpreadOverPlanes<'a> {
    grad_in: &'a mut [f32],
    grad_out: &'a [f32],
    scale: f32,
}

impl cap_tensor::ElementPass for SpreadOverPlanes<'_> {
    #[inline(always)]
    fn run(self) {
        let plane = self
            .grad_in
            .len()
            .checked_div(self.grad_out.len())
            .unwrap_or(0);
        for (p, &g) in self.grad_out.iter().enumerate() {
            self.grad_in[p * plane..(p + 1) * plane].fill(g * self.scale);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_window_maxima() {
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        let x = Tensor::from_vec(
            vec![1, 1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        )
        .unwrap();
        let y = pool.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 9.0, 2.0, 3.0]).unwrap();
        pool.forward(&x).unwrap();
        let g = Tensor::from_vec(vec![1, 1, 1, 1], vec![5.0]).unwrap();
        let gin = pool.backward(&g).unwrap();
        assert_eq!(gin.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_keeps_an_all_nan_window_in_its_own_sample() {
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        let nan = f32::NAN;
        let x = Tensor::from_vec(
            vec![2, 1, 2, 2],
            vec![1.0, 2.0, 3.0, 4.0, nan, nan, nan, nan],
        )
        .unwrap();
        let y = pool.forward(&x).unwrap();
        assert_eq!(y.data()[0], 4.0);
        assert!(y.data()[1].is_nan(), "{:?}", y.data());
        let g = Tensor::from_vec(vec![2, 1, 1, 1], vec![10.0, 7.0]).unwrap();
        let gin = pool.backward(&g).unwrap();
        assert_eq!(gin.data(), &[0.0, 0.0, 0.0, 10.0, 7.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_first_nan_wins_and_neg_infinity_stays_local() {
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        // Sample 0: a NaN next to finite values (second NaN later);
        // sample 1: all −∞.
        let x = Tensor::from_vec(
            vec![2, 1, 2, 2],
            vec![5.0, nan, 9.0, nan, ninf, ninf, ninf, ninf],
        )
        .unwrap();
        let y = pool.forward(&x).unwrap();
        assert!(y.data()[0].is_nan());
        assert_eq!(y.data()[1], ninf);
        let g = Tensor::from_vec(vec![2, 1, 1, 1], vec![3.0, 2.0]).unwrap();
        let gin = pool.backward(&g).unwrap();
        assert_eq!(gin.data(), &[0.0, 3.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn gap_averages_and_spreads() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::from_vec(
            vec![1, 2, 2, 2],
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
        )
        .unwrap();
        let y = gap.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[2.5, 10.0]);
        let g = Tensor::from_vec(vec![1, 2], vec![4.0, 8.0]).unwrap();
        let gin = gap.backward(&g).unwrap();
        assert_eq!(gin.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn errors_on_misuse() {
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        assert!(pool.backward(&Tensor::ones(&[1, 1, 1, 1])).is_err());
        assert!(pool.forward(&Tensor::ones(&[2, 2])).is_err());
        assert!(MaxPool2d::new(0, 1).is_err());
        let mut gap = GlobalAvgPool::new();
        assert!(gap.backward(&Tensor::ones(&[1, 2])).is_err());
    }
}
