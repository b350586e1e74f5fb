//! Golden bits for the Eq. 3–7 scoring pass.
//!
//! The scores and per-class attribution of a fixed tiny ResNet and of
//! its odd-channel pruned copy are hashed (FNV-1a over the `f64` bits)
//! and compared with a recorded constant, so a rewrite of any loop the
//! pass runs through (convolution, BatchNorm, ReLU, the Eq. 5–7 count)
//! has to keep every bit. The test pins `SimdMode::Scalar`, whose
//! kernels compute each multiply and add separately, so the constant
//! does not depend on the host's vector units. It lives in a file of
//! its own because the SIMD mode is process-wide.

use cap_core::{
    apply_site_pruning, evaluate_scores_with_attribution, find_prunable_sites, ScoreConfig, TauMode,
};
use cap_data::{DatasetSpec, SyntheticDataset};
use cap_nn::layer::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Relu, ResidualBlock};
use cap_nn::Network;
use cap_tensor::SimdMode;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The hash of the dense and pruned passes at three thresholds.
const GOLDEN: u64 = 0x73f0_3627_3d26_a157;

fn fnv1a(hash: u64, bits: u64) -> u64 {
    bits.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A stem conv and two residual blocks, one with a projection shortcut.
/// Training-mode forwards move the BatchNorm running statistics off
/// their initial values, so eval mode normalises with learned ones.
fn tiny_resnet(data: &SyntheticDataset) -> Network {
    let mut rng = StdRng::seed_from_u64(21);
    let mut net = Network::new();
    net.push(Conv2d::new(3, 8, 3, 1, 1, false, &mut rng).unwrap());
    net.push(BatchNorm2d::new(8).unwrap());
    net.push(Relu::new());
    net.push(ResidualBlock::new(8, 8, 1, &mut rng).unwrap());
    net.push(ResidualBlock::new(8, 12, 2, &mut rng).unwrap());
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(12, 10, &mut rng).unwrap());
    for _ in 0..3 {
        net.forward(data.train().images(), true).unwrap();
    }
    net
}

/// A copy of `dense` keeping an odd number of filters at every site.
fn odd_pruned(dense: &Network) -> Network {
    let mut pruned = dense.clone();
    for site in &find_prunable_sites(&pruned) {
        let filters = site.filters(&pruned).unwrap();
        let kept = (filters * 2 / 3) | 1;
        let keep: Vec<usize> = (0..kept).map(|i| i * filters / kept).collect();
        apply_site_pruning(&mut pruned, site, &keep).unwrap();
    }
    pruned
}

#[test]
fn scoring_pass_keeps_its_recorded_bits() {
    cap_tensor::set_simd_mode(SimdMode::Scalar).unwrap();
    let data = SyntheticDataset::generate(
        &DatasetSpec::cifar10_like()
            .with_image_size(8)
            .with_counts(12, 4),
    )
    .unwrap();
    let dense = tiny_resnet(&data);
    let pruned = odd_pruned(&dense);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for mut net in [dense, pruned] {
        let sites = find_prunable_sites(&net);
        for tau in [
            TauMode::default(),
            TauMode::Absolute(0.0),
            TauMode::SiteRelative(3.0),
        ] {
            let cfg = ScoreConfig {
                tau,
                ..ScoreConfig::default()
            };
            let (scores, attribution) =
                evaluate_scores_with_attribution(&mut net, &sites, data.train(), &cfg).unwrap();
            for (_, _, v) in scores.iter_scores() {
                hash = fnv1a(hash, v.to_bits());
            }
            for row in attribution.sites.iter().flat_map(|s| &s.per_class) {
                hash = row.iter().fold(hash, |h, v| fnv1a(h, v.to_bits()));
            }
        }
    }
    assert_eq!(hash, GOLDEN, "scoring pass hash {hash:#018x}");
}
