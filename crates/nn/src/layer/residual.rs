use crate::layer::{activation::Relu, batchnorm::BatchNorm2d, conv::Conv2d, Grads};
use crate::NnError;
use cap_tensor::Tensor;
use rand::Rng;

/// A CIFAR-style basic residual block:
/// `y = relu(bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x))`.
///
/// The shortcut is the identity when shapes match, otherwise a 1×1
/// strided convolution followed by batch-norm (ResNet option B).
///
/// Following the paper's ResNet56 constraint ("to ensure the shortcut
/// connections during pruning, only the first layer of each residual
/// block is pruned"), only `conv1` is exposed as a pruning site; pruning
/// it shrinks `bn1` and `conv2`'s input channels while the block's output
/// width stays intact.
#[derive(Debug, Clone)]
pub struct ResidualBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    relu_out: Relu,
}

impl ResidualBlock {
    /// Creates a basic block mapping `in_channels` to `out_channels` with
    /// the given stride on the first convolution.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero channel counts or
    /// stride.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        rng: &mut impl Rng,
    ) -> Result<Self, NnError> {
        let conv1 = Conv2d::new(in_channels, out_channels, 3, stride, 1, false, rng)?;
        let bn1 = BatchNorm2d::new(out_channels)?;
        let conv2 = Conv2d::new(out_channels, out_channels, 3, 1, 1, false, rng)?;
        let bn2 = BatchNorm2d::new(out_channels)?;
        let shortcut = if in_channels != out_channels || stride != 1 {
            Some((
                Conv2d::new(in_channels, out_channels, 1, stride, 0, false, rng)?,
                BatchNorm2d::new(out_channels)?,
            ))
        } else {
            None
        };
        Ok(ResidualBlock {
            conv1,
            bn1,
            relu1: Relu::new(),
            conv2,
            bn2,
            shortcut,
            relu_out: Relu::new(),
        })
    }

    /// The block's first convolution — the paper's pruning site.
    pub fn conv1(&self) -> &Conv2d {
        &self.conv1
    }

    /// Mutable access to the first convolution.
    pub fn conv1_mut(&mut self) -> &mut Conv2d {
        &mut self.conv1
    }

    /// The block's second convolution (never pruned on its outputs).
    pub fn conv2(&self) -> &Conv2d {
        &self.conv2
    }

    /// Mutable access to the second convolution.
    pub fn conv2_mut(&mut self) -> &mut Conv2d {
        &mut self.conv2
    }

    /// Reconstructs a block from raw parts (used by checkpoint loading).
    pub fn from_parts(
        conv1: Conv2d,
        bn1: BatchNorm2d,
        conv2: Conv2d,
        bn2: BatchNorm2d,
        shortcut: Option<(Conv2d, BatchNorm2d)>,
    ) -> Self {
        ResidualBlock {
            conv1,
            bn1,
            relu1: Relu::new(),
            conv2,
            bn2,
            shortcut,
            relu_out: Relu::new(),
        }
    }

    /// The batch-norm following `conv1`.
    pub fn bn1(&self) -> &BatchNorm2d {
        &self.bn1
    }

    /// The batch-norm following `conv2`.
    pub fn bn2(&self) -> &BatchNorm2d {
        &self.bn2
    }

    /// The projection shortcut, if the block has one.
    pub fn shortcut(&self) -> Option<(&Conv2d, &BatchNorm2d)> {
        self.shortcut.as_ref().map(|(c, b)| (c, b))
    }

    /// Output channel count of the block.
    pub fn out_channels(&self) -> usize {
        self.conv2.out_channels()
    }

    /// Prunes the block-internal width: keeps `conv1` filters in `keep`,
    /// shrinking `bn1` and `conv2` inputs to match. The block's external
    /// interface is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for an invalid keep-set.
    pub fn retain_internal_channels(&mut self, keep: &[usize]) -> Result<(), NnError> {
        self.conv1.retain_output_channels(keep)?;
        self.bn1.retain_channels(keep)?;
        self.conv2.retain_input_channels(keep)?;
        Ok(())
    }

    /// Forward pass over an input taken by value. It is copied once, for
    /// the shortcut; the main path's output takes the shortcut's sum in
    /// place.
    ///
    /// # Errors
    ///
    /// Propagates layer errors on shape mismatch.
    pub fn forward(&mut self, x: Tensor, training: bool) -> Result<Tensor, NnError> {
        let shortcut_in = x.clone();
        let mut h = self.conv1.forward(x)?;
        h = self.bn1.forward(h, training)?;
        h = self.relu1.forward(h);
        h = self.conv2.forward(h)?;
        h = self.bn2.forward(h, training)?;
        let s = match &mut self.shortcut {
            Some((conv, bn)) => {
                let t = conv.forward(shortcut_in)?;
                bn.forward(t, training)?
            }
            None => shortcut_in,
        };
        h.add_in_place(&s)?;
        Ok(self.relu_out.forward(h))
    }

    /// Backward pass over a gradient taken by value, producing the
    /// gradients `grads` names. The gradient is copied once, for the
    /// shortcut path, whose gradient the main path's then takes in place.
    ///
    /// # Errors
    ///
    /// Propagates layer errors; fails if called before `forward`.
    pub fn backward(&mut self, grad_out: Tensor, grads: Grads) -> Result<Tensor, NnError> {
        let g = self.relu_out.backward(grad_out)?;
        let shortcut_g = g.clone();
        // Main path.
        let mut gm = self.bn2.backward(g, grads)?;
        gm = self.conv2.backward(gm, grads)?;
        gm = self.relu1.backward(gm)?;
        gm = self.bn1.backward(gm, grads)?;
        gm = self.conv1.backward(gm, grads)?;
        // Shortcut path.
        let gs = match &mut self.shortcut {
            Some((conv, bn)) => {
                let t = bn.backward(shortcut_g, grads)?;
                conv.backward(t, grads)?
            }
            None => shortcut_g,
        };
        gm.add_in_place(&gs)?;
        Ok(gm)
    }

    /// Clears accumulated gradients in all sub-layers.
    pub fn zero_grad(&mut self) {
        self.conv1.zero_grad();
        self.bn1.zero_grad();
        self.conv2.zero_grad();
        self.bn2.zero_grad();
        if let Some((c, b)) = &mut self.shortcut {
            c.zero_grad();
            b.zero_grad();
        }
    }

    /// Drops the forward caches of all sub-layers.
    pub(crate) fn clear_cache(&mut self) {
        self.conv1.clear_cache();
        self.bn1.clear_cache();
        self.relu1 = Relu::new();
        self.conv2.clear_cache();
        self.bn2.clear_cache();
        if let Some((c, b)) = &mut self.shortcut {
            c.clear_cache();
            b.clear_cache();
        }
        self.relu_out = Relu::new();
    }

    /// Total learnable parameters.
    pub fn num_params(&self) -> usize {
        self.conv1.num_params()
            + self.bn1.num_params()
            + self.conv2.num_params()
            + self.bn2.num_params()
            + self
                .shortcut
                .as_ref()
                .map_or(0, |(c, b)| c.num_params() + b.num_params())
    }

    /// Enables activation recording on `conv1`, the block's only
    /// pruning site: `conv2` and the shortcut are never scored.
    pub fn set_record_activations(&mut self, on: bool) {
        self.conv1.set_record_activations(on);
    }

    pub(crate) fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.conv1.visit_params_mut(f);
        self.bn1.visit_params_mut(f);
        self.conv2.visit_params_mut(f);
        self.bn2.visit_params_mut(f);
        if let Some((c, b)) = &mut self.shortcut {
            c.visit_params_mut(f);
            b.visit_params_mut(f);
        }
    }

    /// Visits the convolutions of the block immutably (conv1, conv2,
    /// then the shortcut convolution if present).
    pub fn visit_convs(&self, f: &mut dyn FnMut(&Conv2d)) {
        f(&self.conv1);
        f(&self.conv2);
        if let Some((c, _)) = &self.shortcut {
            f(c);
        }
    }

    /// Visits the convolutions of the block mutably.
    pub fn visit_convs_mut(&mut self, f: &mut dyn FnMut(&mut Conv2d)) {
        f(&mut self.conv1);
        f(&mut self.conv2);
        if let Some((c, _)) = &mut self.shortcut {
            f(c);
        }
    }

    /// Visits the batch-norm layers mutably (bn1, bn2, shortcut bn).
    pub fn visit_bns_mut(&mut self, f: &mut dyn FnMut(&mut BatchNorm2d)) {
        f(&mut self.bn1);
        f(&mut self.bn2);
        if let Some((_, b)) = &mut self.shortcut {
            f(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(5)
    }

    #[test]
    fn identity_block_preserves_shape() {
        let mut block = ResidualBlock::new(8, 8, 1, &mut rng()).unwrap();
        let x = cap_tensor::randn(&[2, 8, 6, 6], 0.0, 1.0, &mut rng());
        let y = block.forward(x.clone(), true).unwrap();
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn strided_block_downsamples_with_projection() {
        let mut block = ResidualBlock::new(8, 16, 2, &mut rng()).unwrap();
        let x = cap_tensor::randn(&[1, 8, 8, 8], 0.0, 1.0, &mut rng());
        let y = block.forward(x, true).unwrap();
        assert_eq!(y.shape(), &[1, 16, 4, 4]);
    }

    #[test]
    fn backward_produces_input_shaped_gradient() {
        let mut block = ResidualBlock::new(4, 8, 2, &mut rng()).unwrap();
        let x = cap_tensor::randn(&[2, 4, 6, 6], 0.0, 1.0, &mut rng());
        let y = block.forward(x.clone(), true).unwrap();
        let g = Tensor::ones(y.shape());
        let gin = block.backward(g, Grads::Full).unwrap();
        assert_eq!(gin.shape(), x.shape());
        // Gradient must be non-trivial.
        assert!(gin.l2_norm() > 0.0);
    }

    #[test]
    fn internal_pruning_keeps_interface() {
        let mut block = ResidualBlock::new(8, 8, 1, &mut rng()).unwrap();
        block.retain_internal_channels(&[0, 2, 5]).unwrap();
        assert_eq!(block.conv1().out_channels(), 3);
        assert_eq!(block.conv2().in_channels(), 3);
        assert_eq!(block.out_channels(), 8);
        let x = cap_tensor::randn(&[1, 8, 6, 6], 0.0, 1.0, &mut rng());
        let y = block.forward(x, true).unwrap();
        assert_eq!(y.shape(), &[1, 8, 6, 6]);
    }

    #[test]
    fn gradient_flows_through_shortcut() {
        // Zero the main path's conv weights: gradient must still reach the
        // input via the identity shortcut.
        let mut block = ResidualBlock::new(4, 4, 1, &mut rng()).unwrap();
        block.conv1_mut().weight_mut().fill(0.0);
        block.conv2_mut().weight_mut().fill(0.0);
        let x = cap_tensor::randn(&[1, 4, 5, 5], 0.0, 1.0, &mut rng());
        let y = block.forward(x, true).unwrap();
        let g = Tensor::ones(y.shape());
        let gin = block.backward(g, Grads::Full).unwrap();
        assert!(gin.l2_norm() > 0.0);
    }
}
