use crate::ModelConfig;
use cap_nn::layer::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, MaxPool2d, Relu};
use cap_nn::{Network, NnError};
use rand::Rng;

/// One entry of a VGG layer plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanEntry {
    /// A 3×3 convolution with the given canonical output channel count,
    /// followed by batch-norm and ReLU.
    Conv(usize),
    /// A 2×2 stride-2 max pool.
    Pool,
}

const VGG16_PLAN: &[PlanEntry] = &[
    PlanEntry::Conv(64),
    PlanEntry::Conv(64),
    PlanEntry::Pool,
    PlanEntry::Conv(128),
    PlanEntry::Conv(128),
    PlanEntry::Pool,
    PlanEntry::Conv(256),
    PlanEntry::Conv(256),
    PlanEntry::Conv(256),
    PlanEntry::Pool,
    PlanEntry::Conv(512),
    PlanEntry::Conv(512),
    PlanEntry::Conv(512),
    PlanEntry::Pool,
    PlanEntry::Conv(512),
    PlanEntry::Conv(512),
    PlanEntry::Conv(512),
    PlanEntry::Pool,
];

const VGG11_PLAN: &[PlanEntry] = &[
    PlanEntry::Conv(64),
    PlanEntry::Pool,
    PlanEntry::Conv(128),
    PlanEntry::Pool,
    PlanEntry::Conv(256),
    PlanEntry::Conv(256),
    PlanEntry::Pool,
    PlanEntry::Conv(512),
    PlanEntry::Conv(512),
    PlanEntry::Pool,
    PlanEntry::Conv(512),
    PlanEntry::Conv(512),
    PlanEntry::Pool,
];

const VGG19_PLAN: &[PlanEntry] = &[
    PlanEntry::Conv(64),
    PlanEntry::Conv(64),
    PlanEntry::Pool,
    PlanEntry::Conv(128),
    PlanEntry::Conv(128),
    PlanEntry::Pool,
    PlanEntry::Conv(256),
    PlanEntry::Conv(256),
    PlanEntry::Conv(256),
    PlanEntry::Conv(256),
    PlanEntry::Pool,
    PlanEntry::Conv(512),
    PlanEntry::Conv(512),
    PlanEntry::Conv(512),
    PlanEntry::Conv(512),
    PlanEntry::Pool,
    PlanEntry::Conv(512),
    PlanEntry::Conv(512),
    PlanEntry::Conv(512),
    PlanEntry::Conv(512),
    PlanEntry::Pool,
];

/// Builds a VGG-style network from an explicit plan.
///
/// Max-pool entries are skipped once the spatial side would drop below 2,
/// so the canonical 5-pool plans remain valid for small CPU-scale inputs;
/// the convolutional topology is unchanged.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for an invalid `cfg` or an empty
/// plan.
pub fn vgg_from_plan(
    plan: &[PlanEntry],
    cfg: &ModelConfig,
    rng: &mut impl Rng,
) -> Result<Network, NnError> {
    cfg.validate()?;
    if plan.is_empty() {
        return Err(NnError::InvalidConfig {
            reason: "VGG plan must not be empty".to_string(),
        });
    }
    let mut net = Network::new();
    let mut in_c = cfg.in_channels;
    let mut spatial = cfg.image_size;
    let mut last_conv_c = in_c;
    for entry in plan {
        match *entry {
            PlanEntry::Conv(canonical) => {
                let out_c = cfg.scaled(canonical);
                net.push(Conv2d::new(in_c, out_c, 3, 1, 1, false, rng)?);
                net.push(BatchNorm2d::new(out_c)?);
                net.push(Relu::new());
                in_c = out_c;
                last_conv_c = out_c;
            }
            PlanEntry::Pool => {
                if spatial >= 4 {
                    net.push(MaxPool2d::new(2, 2)?);
                    spatial /= 2;
                }
            }
        }
    }
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(last_conv_c, cfg.classes, rng)?);
    Ok(net)
}

/// Builds VGG11 (8 convolutions), a lighter family member useful for
/// fast experiments.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for an invalid `cfg`.
pub fn vgg11(cfg: &ModelConfig, rng: &mut impl Rng) -> Result<Network, NnError> {
    vgg_from_plan(VGG11_PLAN, cfg, rng)
}

/// Builds VGG16 (13 convolutions) for CIFAR-style classification.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for an invalid `cfg`.
pub fn vgg16(cfg: &ModelConfig, rng: &mut impl Rng) -> Result<Network, NnError> {
    vgg_from_plan(VGG16_PLAN, cfg, rng)
}

/// Builds VGG19 (16 convolutions) for CIFAR-style classification.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for an invalid `cfg`.
pub fn vgg19(cfg: &ModelConfig, rng: &mut impl Rng) -> Result<Network, NnError> {
    vgg_from_plan(VGG19_PLAN, cfg, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0)
    }

    #[test]
    fn vgg16_has_13_convs() {
        let cfg = ModelConfig::new(10).with_width(0.125);
        let net = vgg16(&cfg, &mut rng()).unwrap();
        assert_eq!(net.conv_count(), 13);
    }

    #[test]
    fn vgg11_has_8_convs() {
        let cfg = ModelConfig::new(10).with_width(0.125);
        assert_eq!(vgg11(&cfg, &mut rng()).unwrap().conv_count(), 8);
    }

    #[test]
    fn vgg19_has_16_convs() {
        let cfg = ModelConfig::new(100).with_width(0.125);
        let net = vgg19(&cfg, &mut rng()).unwrap();
        assert_eq!(net.conv_count(), 16);
    }

    #[test]
    fn forward_shapes_for_small_input() {
        let cfg = ModelConfig::new(10).with_width(0.125).with_image_size(16);
        let mut net = vgg16(&cfg, &mut rng()).unwrap();
        let x = cap_tensor::Tensor::zeros(&[2, 3, 16, 16]);
        let y = net.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn full_width_channels_are_canonical() {
        let cfg = ModelConfig::new(10).with_width(1.0);
        let net = vgg16(&cfg, &mut rng()).unwrap();
        let mut first = None;
        let mut max_c = 0;
        net.visit_convs(&mut |c| {
            if first.is_none() {
                first = Some(c.out_channels());
            }
            max_c = max_c.max(c.out_channels());
        });
        assert_eq!(first, Some(64));
        assert_eq!(max_c, 512);
    }

    #[test]
    fn training_forward_backward() {
        let cfg = ModelConfig::new(10).with_width(0.125).with_image_size(8);
        let mut net = vgg16(&cfg, &mut rng()).unwrap();
        let x = cap_tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng());
        let y = net.forward(&x, true).unwrap();
        let g = cap_tensor::Tensor::ones(y.shape());
        let gin = net.backward(&g).unwrap();
        assert_eq!(gin.shape(), x.shape());
    }

    #[test]
    fn empty_plan_rejected() {
        let cfg = ModelConfig::new(10);
        assert!(vgg_from_plan(&[], &cfg, &mut rng()).is_err());
    }
}
