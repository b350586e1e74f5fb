use cap_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Errors produced by layer construction, forward/backward passes and
/// training utilities.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// A tensor kernel failed (shape mismatch, bad geometry, ...).
    Tensor(TensorError),
    /// A layer received an input whose shape it cannot process.
    BadInput {
        /// Which layer rejected the input.
        layer: &'static str,
        /// What the layer expected.
        expected: String,
        /// The shape it received.
        got: Vec<usize>,
    },
    /// `backward` was called before `forward`, so required caches are missing.
    MissingCache {
        /// Which layer was missing its forward cache.
        layer: &'static str,
    },
    /// A configuration value is invalid (zero channels, empty keep-set, ...).
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },
    /// Labels passed to a loss or metric are inconsistent with the logits.
    BadLabels {
        /// Human-readable description.
        reason: String,
    },
    /// Training hit a non-finite loss or gradient and the configured
    /// [`FaultPolicy`](crate::FaultPolicy) could not (or would not)
    /// recover.
    NumericFault {
        /// What went non-finite (`"loss"` or `"grad"`).
        what: &'static str,
        /// Epoch in which the fault occurred (0-based).
        epoch: usize,
        /// Batch within the epoch (0-based).
        batch: usize,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::BadInput {
                layer,
                expected,
                got,
            } => write!(f, "{layer}: expected {expected}, got shape {got:?}"),
            NnError::MissingCache { layer } => {
                write!(f, "{layer}: backward called before forward")
            }
            NnError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            NnError::BadLabels { reason } => write!(f, "bad labels: {reason}"),
            NnError::NumericFault { what, epoch, batch } => write!(
                f,
                "numeric fault: non-finite {what} at epoch {epoch}, batch {batch} \
                 (recovery budget exhausted or policy is abort)"
            ),
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}
