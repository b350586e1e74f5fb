//! Layer implementations with explicit forward/backward passes.

/// ReLU and flatten layers.
pub mod activation;
/// Batch normalisation.
pub mod batchnorm;
/// 2-D convolution with activation recording and channel surgery.
pub mod conv;
/// Fully-connected layers.
pub mod linear;
/// Max and global-average pooling.
pub mod pool;
/// Basic residual blocks with the paper's shortcut constraint.
pub mod residual;

pub use activation::{Flatten, Relu};
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use linear::Linear;
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use residual::ResidualBlock;

use crate::NnError;
use cap_tensor::Tensor;

/// Which gradients a backward pass produces. Every pass returns the
/// input gradient, bit-identical in both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grads {
    /// Input gradient plus accumulated parameter gradients (training).
    Full,
    /// Input gradient only: parameter gradients are neither read nor
    /// written (importance scoring, which reads activation gradients).
    InputOnly,
}

/// A network layer.
///
/// The enum (rather than a trait object) keeps the structure of a model
/// transparent to the pruning machinery in `cap-core`, which needs to
/// pattern-match on layer kinds to propagate channel removals.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // residual blocks dominate; boxing would obscure the surgery
pub enum Layer {
    /// 2-D convolution.
    Conv(Conv2d),
    /// Batch normalisation.
    BatchNorm(BatchNorm2d),
    /// ReLU activation.
    Relu(Relu),
    /// Max pooling.
    MaxPool(MaxPool2d),
    /// Global average pooling (`[N,C,H,W] → [N,C]`).
    GlobalAvgPool(GlobalAvgPool),
    /// Flatten (`[N,...] → [N, prod]`).
    Flatten(Flatten),
    /// Fully-connected layer.
    Linear(Linear),
    /// Basic residual block.
    Residual(ResidualBlock),
}

impl Layer {
    /// Short kind name, useful for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Layer::Conv(_) => "conv",
            Layer::BatchNorm(_) => "batchnorm",
            Layer::Relu(_) => "relu",
            Layer::MaxPool(_) => "maxpool",
            Layer::GlobalAvgPool(_) => "gap",
            Layer::Flatten(_) => "flatten",
            Layer::Linear(_) => "linear",
            Layer::Residual(_) => "residual",
        }
    }

    /// Static span name for this layer kind and pass direction, following
    /// the `crate.component.op` convention (DESIGN.md §7).
    fn span_name(&self, backward: bool) -> &'static str {
        match (self, backward) {
            (Layer::Conv(_), false) => "nn.conv.forward",
            (Layer::Conv(_), true) => "nn.conv.backward",
            (Layer::BatchNorm(_), false) => "nn.batchnorm.forward",
            (Layer::BatchNorm(_), true) => "nn.batchnorm.backward",
            (Layer::Relu(_), false) => "nn.relu.forward",
            (Layer::Relu(_), true) => "nn.relu.backward",
            (Layer::MaxPool(_), false) => "nn.maxpool.forward",
            (Layer::MaxPool(_), true) => "nn.maxpool.backward",
            (Layer::GlobalAvgPool(_), false) => "nn.gap.forward",
            (Layer::GlobalAvgPool(_), true) => "nn.gap.backward",
            (Layer::Flatten(_), false) => "nn.flatten.forward",
            (Layer::Flatten(_), true) => "nn.flatten.backward",
            (Layer::Linear(_), false) => "nn.linear.forward",
            (Layer::Linear(_), true) => "nn.linear.backward",
            (Layer::Residual(_), false) => "nn.residual.forward",
            (Layer::Residual(_), true) => "nn.residual.backward",
        }
    }

    /// Forward pass over a borrowed input: a copy of it takes the
    /// by-value pass [`Network::forward`](crate::Network::forward) runs.
    ///
    /// # Errors
    ///
    /// Propagates the underlying layer's shape errors.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Result<Tensor, NnError> {
        self.forward_owned(x.clone(), training)
    }

    /// The forward pass [`Network`](crate::Network) runs: the input is
    /// taken by value, so a layer that caches it or works in place
    /// needs no copy.
    pub(crate) fn forward_owned(&mut self, x: Tensor, training: bool) -> Result<Tensor, NnError> {
        let _span = cap_obs::SpanGuard::enter(self.span_name(false));
        match self {
            Layer::Conv(l) => l.forward(x),
            Layer::BatchNorm(l) => l.forward(x, training),
            Layer::Relu(l) => Ok(l.forward(x)),
            Layer::MaxPool(l) => l.forward(&x),
            Layer::GlobalAvgPool(l) => l.forward(&x),
            Layer::Flatten(l) => l.forward(&x),
            Layer::Linear(l) => l.forward(x),
            Layer::Residual(l) => l.forward(x, training),
        }
    }

    /// Backward pass over a borrowed gradient, producing every gradient
    /// ([`Grads::Full`]): a copy of it takes the by-value pass
    /// [`Network::backward`](crate::Network::backward) runs.
    ///
    /// # Errors
    ///
    /// Propagates the underlying layer's cache/shape errors.
    pub fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        self.backward_owned(grad.clone(), Grads::Full)
    }

    /// The backward pass [`Network`](crate::Network) runs, over a
    /// gradient taken by value, producing the gradients `grads` names.
    pub(crate) fn backward_owned(&mut self, grad: Tensor, grads: Grads) -> Result<Tensor, NnError> {
        let _span = cap_obs::SpanGuard::enter(self.span_name(true));
        match self {
            Layer::Conv(l) => l.backward(grad, grads),
            Layer::BatchNorm(l) => l.backward(grad, grads),
            Layer::Relu(l) => l.backward(grad),
            Layer::MaxPool(l) => l.backward(&grad),
            Layer::GlobalAvgPool(l) => l.backward(&grad),
            Layer::Flatten(l) => l.backward(&grad),
            Layer::Linear(l) => l.backward(grad, grads),
            Layer::Residual(l) => l.backward(grad, grads),
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        match self {
            Layer::Conv(l) => l.zero_grad(),
            Layer::BatchNorm(l) => l.zero_grad(),
            Layer::Linear(l) => l.zero_grad(),
            Layer::Residual(l) => l.zero_grad(),
            _ => {}
        }
    }

    /// Drops the forward caches `backward` reads. The parameter-free
    /// layers hold nothing else, so they are simply reset.
    pub(crate) fn clear_cache(&mut self) {
        match self {
            Layer::Conv(l) => l.clear_cache(),
            Layer::BatchNorm(l) => l.clear_cache(),
            Layer::Relu(l) => *l = Relu::new(),
            Layer::MaxPool(l) => l.clear_cache(),
            Layer::GlobalAvgPool(l) => *l = GlobalAvgPool::new(),
            Layer::Flatten(l) => *l = Flatten::new(),
            Layer::Linear(l) => l.clear_cache(),
            Layer::Residual(l) => l.clear_cache(),
        }
    }

    /// Number of learnable parameters.
    pub fn num_params(&self) -> usize {
        match self {
            Layer::Conv(l) => l.num_params(),
            Layer::BatchNorm(l) => l.num_params(),
            Layer::Linear(l) => l.num_params(),
            Layer::Residual(l) => l.num_params(),
            _ => 0,
        }
    }

    /// Direct convolution, if this layer is one.
    pub fn as_conv(&self) -> Option<&Conv2d> {
        match self {
            Layer::Conv(l) => Some(l),
            _ => None,
        }
    }

    /// Mutable direct convolution, if this layer is one.
    pub fn as_conv_mut(&mut self) -> Option<&mut Conv2d> {
        match self {
            Layer::Conv(l) => Some(l),
            _ => None,
        }
    }

    /// Residual block, if this layer is one.
    pub fn as_residual(&self) -> Option<&ResidualBlock> {
        match self {
            Layer::Residual(l) => Some(l),
            _ => None,
        }
    }

    /// Mutable residual block, if this layer is one.
    pub fn as_residual_mut(&mut self) -> Option<&mut ResidualBlock> {
        match self {
            Layer::Residual(l) => Some(l),
            _ => None,
        }
    }

    /// Enables activation recording on any contained convolutions.
    pub fn set_record_activations(&mut self, on: bool) {
        match self {
            Layer::Conv(l) => l.set_record_activations(on),
            Layer::Residual(l) => l.set_record_activations(on),
            _ => {}
        }
    }

    /// Visits `(param, grad)` pairs mutably in a stable order.
    pub fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        match self {
            Layer::Conv(l) => l.visit_params_mut(f),
            Layer::BatchNorm(l) => l.visit_params_mut(f),
            Layer::Linear(l) => l.visit_params_mut(f),
            Layer::Residual(l) => l.visit_params_mut(f),
            _ => {}
        }
    }
}

impl From<Conv2d> for Layer {
    fn from(l: Conv2d) -> Self {
        Layer::Conv(l)
    }
}
impl From<BatchNorm2d> for Layer {
    fn from(l: BatchNorm2d) -> Self {
        Layer::BatchNorm(l)
    }
}
impl From<Relu> for Layer {
    fn from(l: Relu) -> Self {
        Layer::Relu(l)
    }
}
impl From<MaxPool2d> for Layer {
    fn from(l: MaxPool2d) -> Self {
        Layer::MaxPool(l)
    }
}
impl From<GlobalAvgPool> for Layer {
    fn from(l: GlobalAvgPool) -> Self {
        Layer::GlobalAvgPool(l)
    }
}
impl From<Flatten> for Layer {
    fn from(l: Flatten) -> Self {
        Layer::Flatten(l)
    }
}
impl From<Linear> for Layer {
    fn from(l: Linear) -> Self {
        Layer::Linear(l)
    }
}
impl From<ResidualBlock> for Layer {
    fn from(l: ResidualBlock) -> Self {
        Layer::Residual(l)
    }
}
