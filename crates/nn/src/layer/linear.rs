use crate::layer::conv::validate_keep;
use crate::layer::Grads;
use crate::NnError;
use cap_tensor::{kaiming_normal, matmul, matmul_transpose_a, matmul_transpose_b, Tensor};
use rand::Rng;

/// A fully-connected layer: `y = x · Wᵀ + b` over a `[N, in]` batch.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Tensor, // [out, in]
    bias: Tensor,   // [out]
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with Kaiming-normal weights and zero bias.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if either dimension is zero.
    pub fn new(
        in_features: usize,
        out_features: usize,
        rng: &mut impl Rng,
    ) -> Result<Self, NnError> {
        if in_features == 0 || out_features == 0 {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "linear dimensions must be non-zero: in={in_features} out={out_features}"
                ),
            });
        }
        Ok(Linear {
            weight: kaiming_normal(&[out_features, in_features], rng),
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
        })
    }

    /// Reconstructs a linear layer from raw parts (used by checkpoint
    /// loading).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for a non-matrix weight or a
    /// bias length mismatch.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Result<Self, NnError> {
        if weight.ndim() != 2 || bias.numel() != weight.dim(0) {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "linear parts mismatch: weight {:?}, bias {:?}",
                    weight.shape(),
                    bias.shape()
                ),
            });
        }
        let grad_weight = Tensor::zeros(weight.shape());
        let grad_bias = Tensor::zeros(bias.shape());
        Ok(Linear {
            weight,
            bias,
            grad_weight,
            grad_bias,
            cached_input: None,
        })
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.dim(1)
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.dim(0)
    }

    /// The weight matrix `[out, in]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable access to the weight matrix.
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    /// Forward pass over `[N, in]`, taken by value: it moves into the
    /// cache the weight gradient reads.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] on shape mismatch.
    pub fn forward(&mut self, x: Tensor) -> Result<Tensor, NnError> {
        if x.ndim() != 2 || x.dim(1) != self.in_features() {
            return Err(NnError::BadInput {
                layer: "Linear",
                expected: format!("[N, {}]", self.in_features()),
                got: x.shape().to_vec(),
            });
        }
        let mut y = matmul_transpose_b(&x, &self.weight)?; // [N, out]
        let n = y.dim(0);
        let out = y.dim(1);
        for s in 0..n {
            for (j, &b) in self.bias.data().iter().enumerate() {
                y.data_mut()[s * out + j] += b;
            }
        }
        self.cached_input = Some(x);
        Ok(y)
    }

    /// Backward pass: returns `dL/dx` and, under [`Grads::Full`],
    /// accumulates the weight and bias gradients.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingCache`] before `forward`, or
    /// [`NnError::BadInput`] on shape mismatch.
    pub fn backward(&mut self, grad_out: Tensor, grads: Grads) -> Result<Tensor, NnError> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or(NnError::MissingCache { layer: "Linear" })?;
        if grad_out.ndim() != 2
            || grad_out.dim(0) != x.dim(0)
            || grad_out.dim(1) != self.out_features()
        {
            return Err(NnError::BadInput {
                layer: "Linear backward",
                expected: format!("[{}, {}]", x.dim(0), self.out_features()),
                got: grad_out.shape().to_vec(),
            });
        }
        // dW = gᵀ x ; db = column sums of g ; dx = g W.
        if grads == Grads::Full {
            let gw = matmul_transpose_a(&grad_out, x)?;
            self.grad_weight.axpy(1.0, &gw)?;
            let (n, out) = (grad_out.dim(0), grad_out.dim(1));
            for s in 0..n {
                for j in 0..out {
                    self.grad_bias.data_mut()[j] += grad_out.data()[s * out + j];
                }
            }
        }
        Ok(matmul(&grad_out, &self.weight)?)
    }

    /// Keeps only the listed input features (used when the preceding
    /// feature extractor is pruned).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for an invalid keep-set.
    pub fn retain_input_features(&mut self, keep: &[usize]) -> Result<(), NnError> {
        validate_keep(keep, self.in_features(), "linear input features")?;
        let out = self.out_features();
        let in_f = self.in_features();
        let mut w = Vec::with_capacity(out * keep.len());
        for r in 0..out {
            for &c in keep {
                w.push(self.weight.data()[r * in_f + c]);
            }
        }
        self.weight = Tensor::from_vec(vec![out, keep.len()], w)?;
        self.grad_weight = Tensor::zeros(self.weight.shape());
        self.clear_cache();
        Ok(())
    }

    /// Drops the cached forward input `backward` reads.
    pub(crate) fn clear_cache(&mut self) {
        self.cached_input = None;
    }

    /// Number of learnable parameters.
    pub fn num_params(&self) -> usize {
        self.weight.numel() + self.bias.numel()
    }

    pub(crate) fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    #[test]
    fn forward_computes_affine_map() {
        let mut lin = Linear::new(2, 2, &mut rng()).unwrap();
        lin.weight_mut()
            .data_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]).unwrap();
        let y = lin.forward(x).unwrap();
        assert_eq!(y.data(), &[3.0, 7.0]);
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        let mut lin = Linear::new(3, 2, &mut rng()).unwrap();
        let x = cap_tensor::randn(&[4, 3], 0.0, 1.0, &mut rng());
        let y = lin.forward(x.clone()).unwrap();
        lin.zero_grad();
        let gin = lin.backward(Tensor::ones(y.shape()), Grads::Full).unwrap();

        let eps = 1e-3f32;
        for idx in [0usize, 2, 5] {
            let orig = lin.weight().data()[idx];
            lin.weight_mut().data_mut()[idx] = orig + eps;
            let l1 = cap_tensor::sum_all(&lin.forward(x.clone()).unwrap());
            lin.weight_mut().data_mut()[idx] = orig - eps;
            let l2 = cap_tensor::sum_all(&lin.forward(x.clone()).unwrap());
            lin.weight_mut().data_mut()[idx] = orig;
            let fd = ((l1 - l2) / (2.0 * f64::from(eps))) as f32;
            let an = lin.grad_weight.data()[idx];
            assert!((fd - an).abs() < 1e-2 * (1.0 + an.abs()));
        }
        // dL/dx for L = sum(y) is the column sums of W.
        for j in 0..3 {
            let expect: f32 = (0..2).map(|r| lin.weight().at2(r, j)).sum();
            assert!((gin.at2(0, j) - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn retain_input_features_slices_columns() {
        let mut lin = Linear::new(3, 2, &mut rng()).unwrap();
        lin.weight_mut()
            .data_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        lin.retain_input_features(&[0, 2]).unwrap();
        assert_eq!(lin.weight().data(), &[1.0, 3.0, 4.0, 6.0]);
        assert!(lin.retain_input_features(&[9]).is_err());
    }

    #[test]
    fn shape_validation() {
        let mut lin = Linear::new(3, 2, &mut rng()).unwrap();
        assert!(lin.forward(Tensor::ones(&[1, 4])).is_err());
        assert!(lin.backward(Tensor::ones(&[1, 2]), Grads::Full).is_err());
        assert!(Linear::new(0, 2, &mut rng()).is_err());
    }
}
