use crate::layer::{Conv2d, Grads, Layer};
use crate::NnError;
use cap_tensor::{argmax_rows, Tensor};

/// A feed-forward network: an ordered stack of [`Layer`]s.
///
/// # Example
///
/// ```
/// use cap_nn::layer::{Conv2d, GlobalAvgPool, Linear, Relu};
/// use cap_nn::Network;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), cap_nn::NnError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Network::new();
/// net.push(Conv2d::new(3, 8, 3, 1, 1, true, &mut rng)?);
/// net.push(Relu::new());
/// net.push(GlobalAvgPool::new());
/// net.push(Linear::new(8, 10, &mut rng)?);
/// let x = cap_tensor::Tensor::zeros(&[2, 3, 8, 8]);
/// let logits = net.forward(&x, false)?;
/// assert_eq!(logits.shape(), &[2, 10]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Network {
    layers: Vec<Layer>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Into<Layer>) {
        self.layers.push(layer.into());
    }

    /// The layer stack.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layer stack (used by pruning surgery).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Forward pass through all layers.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Result<Tensor, NnError> {
        // One copy of the input; each layer then takes its input by value.
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward_owned(h, training)?;
        }
        Ok(h)
    }

    /// Backward pass through all layers in reverse, accumulating parameter
    /// gradients; returns the gradient w.r.t. the network input.
    ///
    /// # Errors
    ///
    /// Propagates layer cache/shape errors.
    pub fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        self.backward_pass(grad, Grads::Full)
    }

    /// Backward pass that returns the gradient w.r.t. the network input
    /// and neither reads nor writes any parameter gradient. Input and
    /// recorded activation gradients are bit-identical to
    /// [`Network::backward`]'s; this is the pass importance scoring
    /// needs, since Eq. 3–7 read only activations and their gradients.
    ///
    /// # Errors
    ///
    /// Propagates layer cache/shape errors.
    pub fn backward_input_only(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        self.backward_pass(grad, Grads::InputOnly)
    }

    fn backward_pass(&mut self, grad: &Tensor, grads: Grads) -> Result<Tensor, NnError> {
        let mut g = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward_owned(g, grads)?;
        }
        Ok(g)
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Drops every layer's forward caches (conv and other cached
    /// inputs, batch-norm x̂, ReLU masks), which after a forward pass can
    /// outweigh the parameters many times over. Clear before cloning a
    /// replica, so the clone copies parameters only. Until the next forward,
    /// `backward` fails with [`NnError::MissingCache`] instead of
    /// reading stale caches.
    pub fn clear_caches(&mut self) {
        for layer in &mut self.layers {
            layer.clear_cache();
        }
    }

    /// Total learnable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Layer::num_params).sum()
    }

    /// Visits all `(param, grad)` pairs in a stable order; the order is
    /// only invalidated by structural edits (pushing layers or pruning).
    pub fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params_mut(f);
        }
    }

    /// Enables or disables activation recording on every convolution.
    pub fn set_record_activations(&mut self, on: bool) {
        for layer in &mut self.layers {
            layer.set_record_activations(on);
        }
    }

    /// Visits every convolution in the network immutably, in execution
    /// order (for residual blocks: conv1, conv2, shortcut conv).
    pub fn visit_convs(&self, f: &mut dyn FnMut(&Conv2d)) {
        for layer in &self.layers {
            match layer {
                Layer::Conv(c) => f(c),
                Layer::Residual(r) => r.visit_convs(f),
                _ => {}
            }
        }
    }

    /// Visits every convolution in the network mutably.
    pub fn visit_convs_mut(&mut self, f: &mut dyn FnMut(&mut Conv2d)) {
        for layer in &mut self.layers {
            match layer {
                Layer::Conv(c) => f(c),
                Layer::Residual(r) => r.visit_convs_mut(f),
                _ => {}
            }
        }
    }

    /// Number of convolutions (counting residual sub-convolutions).
    pub fn conv_count(&self) -> usize {
        let mut n = 0;
        self.visit_convs(&mut |_| n += 1);
        n
    }

    /// Predicts class indices for a batch (eval mode).
    ///
    /// # Errors
    ///
    /// Propagates forward errors; fails if the network output is not a
    /// `[N, classes]` matrix.
    pub fn predict(&mut self, x: &Tensor) -> Result<Vec<usize>, NnError> {
        let logits = self.forward(x, false)?;
        Ok(argmax_rows(&logits)?)
    }
}

impl FromIterator<Layer> for Network {
    fn from_iter<I: IntoIterator<Item = Layer>>(iter: I) -> Self {
        Network {
            layers: iter.into_iter().collect(),
        }
    }
}

impl Extend<Layer> for Network {
    fn extend<I: IntoIterator<Item = Layer>>(&mut self, iter: I) {
        self.layers.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{
        BatchNorm2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu, ResidualBlock,
    };
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(2)
    }

    fn tiny_net(rng: &mut rand::rngs::StdRng) -> Network {
        let mut net = Network::new();
        net.push(Conv2d::new(3, 4, 3, 1, 1, true, rng).unwrap());
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2).unwrap());
        net.push(ResidualBlock::new(4, 8, 2, rng).unwrap());
        net.push(GlobalAvgPool::new());
        net.push(Linear::new(8, 5, rng).unwrap());
        net
    }

    #[test]
    fn forward_backward_roundtrip() {
        let mut r = rng();
        let mut net = tiny_net(&mut r);
        let x = cap_tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut r);
        let y = net.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 5]);
        let gin = net.backward(&Tensor::ones(&[2, 5])).unwrap();
        assert_eq!(gin.shape(), x.shape());
    }

    #[test]
    fn conv_count_includes_residual_convs() {
        let mut r = rng();
        let net = tiny_net(&mut r);
        // 1 direct conv + residual (conv1, conv2, shortcut 1x1) = 4.
        assert_eq!(net.conv_count(), 4);
    }

    #[test]
    fn num_params_positive_and_stable() {
        let mut r = rng();
        let net = tiny_net(&mut r);
        let n = net.num_params();
        assert!(n > 0);
        assert_eq!(n, net.num_params());
    }

    #[test]
    fn visit_params_sees_all_tensors() {
        let mut r = rng();
        let mut net = tiny_net(&mut r);
        let mut count = 0;
        net.visit_params_mut(&mut |_, _| count += 1);
        // conv(w,b) + res(conv1 w, bn1 g/b, conv2 w, bn2 g/b, sc w, sc bn g/b) + linear(w,b)
        assert_eq!(count, 2 + 9 + 2);
    }

    #[test]
    fn cleared_caches_forward_bit_identically_and_refuse_backward() {
        let mut r = rng();
        // One of every layer kind.
        let mut net = Network::new();
        net.push(Conv2d::new(3, 4, 3, 1, 1, true, &mut r).unwrap());
        net.push(BatchNorm2d::new(4).unwrap());
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2).unwrap());
        net.push(ResidualBlock::new(4, 8, 2, &mut r).unwrap());
        net.push(GlobalAvgPool::new());
        net.push(Flatten::new());
        net.push(Linear::new(8, 5, &mut r).unwrap());
        let x = cap_tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut r);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Each layer's output gradient shape, for per-layer backward probes.
        let mut shapes = Vec::new();
        let mut h = x.clone();
        for layer in net.layers_mut() {
            h = layer.forward(&h, false).unwrap();
            shapes.push(h.shape().to_vec());
        }
        let want = bits(&h);

        net.clear_caches();
        let missing = |r: Result<Tensor, NnError>| matches!(r, Err(NnError::MissingCache { .. }));
        for (layer, shape) in net.layers_mut().iter_mut().zip(&shapes) {
            let kind = layer.kind();
            assert!(missing(layer.backward(&Tensor::ones(shape))), "{kind}");
        }
        let ones = || Tensor::ones(&[1]);
        net.visit_convs_mut(&mut |c| assert!(missing(c.backward(ones(), Grads::Full))));
        if let Some(block) = net.layers_mut()[4].as_residual_mut() {
            block.visit_bns_mut(&mut |b| assert!(missing(b.backward(ones(), Grads::Full))));
        }

        let mut replica = net.clone();
        assert_eq!(bits(&replica.forward(&x, false).unwrap()), want);
        assert_eq!(bits(&net.forward(&x, false).unwrap()), want);
        net.backward(&Tensor::ones(&[2, 5])).unwrap();
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Every conv's recorded output and output gradient, in visit order.
    type Recorded = Vec<(Option<Vec<u32>>, Option<Vec<u32>>)>;

    fn recorded(net: &Network) -> Recorded {
        let mut out = Vec::new();
        net.visit_convs(&mut |c| {
            out.push((
                c.recorded_output().map(bits),
                c.recorded_output_grad().map(bits),
            ))
        });
        out
    }

    fn grad_bits(net: &mut Network) -> Vec<u32> {
        let mut out = Vec::new();
        net.visit_params_mut(&mut |_, g| out.extend(bits(g)));
        out
    }

    #[test]
    fn by_value_passes_match_a_borrowed_layer_walk_bit_for_bit() {
        let mut r = rng();
        let mut net = Network::new();
        net.push(Conv2d::new(3, 4, 3, 1, 1, true, &mut r).unwrap());
        net.push(BatchNorm2d::new(4).unwrap());
        net.push(Relu::new());
        net.push(ResidualBlock::new(4, 4, 1, &mut r).unwrap());
        net.push(MaxPool2d::new(2, 2).unwrap());
        net.push(ResidualBlock::new(4, 8, 2, &mut r).unwrap());
        net.push(GlobalAvgPool::new());
        net.push(Flatten::new());
        net.push(Linear::new(8, 5, &mut r).unwrap());
        let x = cap_tensor::randn(&[3, 3, 8, 8], 0.0, 1.0, &mut r);
        let g_out = Tensor::from_fn(&[3, 5], |i| ((i as f32) * 0.61).sin());
        // Training forwards move the batch-norm running statistics.
        for _ in 0..2 {
            net.forward(&x, true).unwrap();
        }
        net.clear_caches();
        net.set_record_activations(true);
        // Eval forward with the input-only backward (the scoring pass),
        // then a training step with the full backward.
        for training in [false, true] {
            let mut walk = net.clone();
            let logits = net.forward(&x, training).unwrap();
            let gin = if training {
                net.backward(&g_out).unwrap()
            } else {
                net.backward_input_only(&g_out).unwrap()
            };
            // The borrowed walk: `Layer::forward` and the full
            // `Layer::backward`, layer by layer.
            let mut h = x.clone();
            for layer in walk.layers_mut() {
                h = layer.forward(&h, training).unwrap();
            }
            let mut g = g_out.clone();
            for layer in walk.layers_mut().iter_mut().rev() {
                g = layer.backward(&g).unwrap();
            }
            assert_eq!(bits(&logits), bits(&h), "training={training}: logits");
            assert_eq!(bits(&gin), bits(&g), "training={training}: input gradient");
            assert_eq!(recorded(&net), recorded(&walk), "training={training}");
            if training {
                assert_eq!(
                    grad_bits(&mut net),
                    grad_bits(&mut walk),
                    "parameter gradients"
                );
            }
        }
        // A recording block records its pruning site, conv1, only.
        for layer in net.layers() {
            if let Some(block) = layer.as_residual() {
                assert!(block.conv1().recorded_output().is_some());
                assert!(block.conv1().recorded_output_grad().is_some());
                let mut others = 0;
                block.visit_convs(&mut |c| {
                    others += usize::from(
                        c.recorded_output().is_some() || c.recorded_output_grad().is_some(),
                    )
                });
                assert_eq!(others, 1, "only conv1 records");
                assert!(block.conv2().recorded_output().is_none());
            }
        }
    }

    #[test]
    fn predict_returns_argmax() {
        let mut r = rng();
        let mut net = tiny_net(&mut r);
        let x = cap_tensor::randn(&[3, 3, 8, 8], 0.0, 1.0, &mut r);
        let preds = net.predict(&x).unwrap();
        assert_eq!(preds.len(), 3);
        assert!(preds.iter().all(|&p| p < 5));
    }
}
