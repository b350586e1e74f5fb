use cap_nn::NnError;

/// Configuration shared by all model builders.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Number of output classes.
    pub classes: usize,
    /// Number of input channels (3 for the CIFAR-like data).
    pub in_channels: usize,
    /// Input image side length.
    pub image_size: usize,
    /// Channel-width multiplier; 1.0 is the canonical architecture.
    pub width: f32,
}

impl ModelConfig {
    /// Creates a config for `classes` classes with CIFAR-like defaults
    /// (3 channels, 16×16 images, width 0.25).
    pub fn new(classes: usize) -> Self {
        ModelConfig {
            classes,
            in_channels: 3,
            image_size: 16,
            width: 0.25,
        }
    }

    /// Returns the config with a different width multiplier.
    pub fn with_width(mut self, width: f32) -> Self {
        self.width = width;
        self
    }

    /// Returns the config with a different image side length.
    pub fn with_image_size(mut self, side: usize) -> Self {
        self.image_size = side;
        self
    }

    /// Scales a canonical channel count by the width multiplier,
    /// rounding to at least 2 so pruning always has room to act.
    pub fn scaled(&self, channels: usize) -> usize {
        ((channels as f32 * self.width).round() as usize).max(2)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero counts or a
    /// non-positive width.
    pub fn validate(&self) -> Result<(), NnError> {
        if self.classes == 0 || self.in_channels == 0 || self.image_size == 0 {
            return Err(NnError::InvalidConfig {
                reason: "classes, in_channels and image_size must be non-zero".to_string(),
            });
        }
        if !(self.width > 0.0 && self.width.is_finite()) {
            return Err(NnError::InvalidConfig {
                reason: format!("width multiplier {} must be positive", self.width),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_rounds_and_floors() {
        let cfg = ModelConfig::new(10).with_width(0.25);
        assert_eq!(cfg.scaled(64), 16);
        assert_eq!(cfg.scaled(4), 2); // floor at 2
        let full = cfg.with_width(1.0);
        assert_eq!(full.scaled(512), 512);
    }

    #[test]
    fn validation() {
        assert!(ModelConfig::new(10).validate().is_ok());
        assert!(ModelConfig::new(0).validate().is_err());
        assert!(ModelConfig::new(10).with_width(0.0).validate().is_err());
        assert!(ModelConfig::new(10).with_image_size(0).validate().is_err());
    }
}
