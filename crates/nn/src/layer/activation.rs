use crate::NnError;
use cap_tensor::Tensor;

/// Rectified linear unit, applied element-wise.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }

    /// Forward pass: `max(x, 0)` element-wise, in place over an input
    /// taken by value, caching the active mask. Every inactive input
    /// (`x ≤ 0`, `−0.0` and NaN included) maps to `+0.0`.
    pub fn forward(&mut self, mut x: Tensor) -> Tensor {
        let mask = self.cached_mask.get_or_insert_with(Vec::new);
        mask.clear();
        mask.resize(x.numel(), false);
        cap_tensor::run_pass(ReluForward {
            x: x.data_mut(),
            mask,
        });
        x
    }

    /// Backward pass, in place over a gradient taken by value: the
    /// gradient passes where the input was positive.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingCache`] before `forward` or
    /// [`NnError::BadInput`] if the gradient size differs from the cached
    /// input.
    pub fn backward(&mut self, mut grad_out: Tensor) -> Result<Tensor, NnError> {
        let mask = self
            .cached_mask
            .as_deref()
            .ok_or(NnError::MissingCache { layer: "Relu" })?;
        if mask.len() != grad_out.numel() {
            return Err(NnError::BadInput {
                layer: "Relu backward",
                expected: format!("{} elements", mask.len()),
                got: grad_out.shape().to_vec(),
            });
        }
        cap_tensor::run_pass(ReluBackward {
            g: grad_out.data_mut(),
            mask,
        });
        Ok(grad_out)
    }
}

/// `x = x > 0 ? x : +0`, recording `x > 0` in `mask`.
struct ReluForward<'a> {
    x: &'a mut [f32],
    mask: &'a mut [bool],
}

impl cap_tensor::ElementPass for ReluForward<'_> {
    #[inline(always)]
    fn run(self) {
        // A select, not `f32::max`, which leaves the sign of a zero
        // result unspecified.
        for (v, m) in self.x.iter_mut().zip(self.mask) {
            let on = *v > 0.0;
            *m = on;
            *v = if on { *v } else { 0.0 };
        }
    }
}

/// `g = mask ? g : +0`.
struct ReluBackward<'a> {
    g: &'a mut [f32],
    mask: &'a [bool],
}

impl cap_tensor::ElementPass for ReluBackward<'_> {
    #[inline(always)]
    fn run(self) {
        // A select per element: a branch on the data-dependent mask
        // mispredicts.
        for (g, &m) in self.g.iter_mut().zip(self.mask) {
            *g = if m { *g } else { 0.0 };
        }
    }
}

/// Reshapes `[N, C, H, W]` into `[N, C*H*W]`.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_in_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }

    /// Forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for inputs with fewer than 2 dims.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        if x.ndim() < 2 {
            return Err(NnError::BadInput {
                layer: "Flatten",
                expected: "at least 2-D".to_string(),
                got: x.shape().to_vec(),
            });
        }
        self.cached_in_shape = x.shape().to_vec();
        let n = x.dim(0);
        let rest: usize = x.shape()[1..].iter().product();
        Ok(x.reshape(&[n, rest])?)
    }

    /// Backward pass: reshapes the gradient back.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingCache`] before `forward`.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        if self.cached_in_shape.is_empty() {
            return Err(NnError::MissingCache { layer: "Flatten" });
        }
        Ok(grad_out.reshape(&self.cached_in_shape)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Relu::backward` as it was before it became one select: copy the
    /// gradient, then zero it where the mask is off.
    fn copy_then_zero_backward(relu: &Relu, grad_out: &Tensor) -> Tensor {
        let mask = relu.cached_mask.as_ref().unwrap();
        let mut g = grad_out.clone();
        for (v, &m) in g.data_mut().iter_mut().zip(mask.iter()) {
            if !m {
                *v = 0.0;
            }
        }
        g
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    const SPECIALS: [f32; 10] = [
        f32::NAN,
        0.0,
        -0.0,
        f32::INFINITY,
        1e-40,
        f32::NEG_INFINITY,
        -1e-40,
        1.5,
        f32::MIN_POSITIVE,
        -2.25,
    ];

    #[test]
    fn backward_select_matches_copy_then_zero_bit_for_bit() {
        // Every pairing of an input with a gradient from the list, over
        // n ∈ {1, 3} samples of planes of 1 and 7 elements.
        for n in [1, 3] {
            for w in [1, 7] {
                for shift in 0..SPECIALS.len() {
                    let shape = [n, 1, 1, w];
                    let x = Tensor::from_fn(&shape, |i| SPECIALS[i % SPECIALS.len()]);
                    let g = Tensor::from_fn(&shape, |i| SPECIALS[(i + shift) % SPECIALS.len()]);
                    let mut relu = Relu::new();
                    relu.forward(x);
                    let got = relu.backward(g.clone()).unwrap();
                    assert_eq!(got.shape(), g.shape());
                    assert_eq!(
                        bits(&got),
                        bits(&copy_then_zero_backward(&relu, &g)),
                        "n={n} w={w}"
                    );
                }
            }
        }
    }

    #[test]
    fn nan_and_zero_inputs_are_inactive() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![4], vec![f32::NAN, -f32::NAN, 0.0, -0.0]).unwrap();
        let y = relu.forward(x);
        assert_eq!(relu.cached_mask.as_deref(), Some(&[false; 4][..]));
        // NaN maps to +0.0; a zero input stays a zero.
        assert_eq!(bits(&y)[..2], [0.0f32.to_bits(); 2]);
        assert!(y.data().iter().all(|&v| v == 0.0));
        let g = relu.backward(Tensor::full(&[4], f32::NAN)).unwrap();
        assert_eq!(bits(&g), [0.0f32.to_bits(); 4]);
    }

    #[test]
    fn relu_clamps_and_masks() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![4], vec![-1.0, 0.0, 2.0, -3.0]).unwrap();
        let y = relu.forward(x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let gin = relu.backward(Tensor::ones(&[4])).unwrap();
        assert_eq!(gin.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut fl = Flatten::new();
        let x = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32);
        let y = fl.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 12]);
        let back = fl.backward(&y).unwrap();
        assert_eq!(back.shape(), x.shape());
        assert_eq!(back.data(), x.data());
    }

    #[test]
    fn misuse_errors() {
        let mut relu = Relu::new();
        assert!(relu.backward(Tensor::ones(&[1])).is_err());
        let mut fl = Flatten::new();
        assert!(fl.backward(&Tensor::ones(&[1, 1])).is_err());
    }
}
