use crate::matrix_rank;
use cap_core::{FilterCriterion, NetworkScores, PrunableSite, PruneError, SiteKind, SiteScores};
use cap_data::Dataset;
use cap_nn::layer::{Conv2d, Layer};
use cap_nn::{gather_batch, CrossEntropyLoss, Network, Reduction, RegularizerConfig};
use cap_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn empty_scores(net: &Network, sites: &[PrunableSite]) -> Result<Vec<SiteScores>, PruneError> {
    sites
        .iter()
        .map(|s| {
            Ok(SiteScores {
                label: s.label.clone(),
                scores: vec![0.0; s.filters(net)?],
            })
        })
        .collect()
}

/// Per-filter L1 norms of a convolution's weight.
fn per_filter_l1(conv: &Conv2d) -> Vec<f64> {
    let fsize = conv.in_channels() * conv.kernel() * conv.kernel();
    (0..conv.out_channels())
        .map(|f| {
            conv.weight().data()[f * fsize..(f + 1) * fsize]
                .iter()
                .map(|&v| f64::from(v.abs()))
                .sum()
        })
        .collect()
}

/// Per-filter L2 norms of a convolution's weight.
fn per_filter_l2(conv: &Conv2d) -> Vec<f64> {
    let fsize = conv.in_channels() * conv.kernel() * conv.kernel();
    (0..conv.out_channels())
        .map(|f| {
            conv.weight().data()[f * fsize..(f + 1) * fsize]
                .iter()
                .map(|&v| f64::from(v) * f64::from(v))
                .sum::<f64>()
                .sqrt()
        })
        .collect()
}

/// Per-input-channel L2 norms of a convolution's weight (the consumer
/// side of a dependency group).
fn per_input_channel_l2(conv: &Conv2d) -> Vec<f64> {
    let (out_c, in_c, k) = (conv.out_channels(), conv.in_channels(), conv.kernel());
    let plane = k * k;
    let mut acc = vec![0.0f64; in_c];
    #[allow(clippy::needless_range_loop)] // c also computes the weight offset
    for f in 0..out_c {
        for c in 0..in_c {
            let base = (f * in_c + c) * plane;
            for &v in &conv.weight().data()[base..base + plane] {
                acc[c] += f64::from(v) * f64::from(v);
            }
        }
    }
    acc.into_iter().map(f64::sqrt).collect()
}

/// Draws a deterministic mixed-class batch of `n` training images.
fn mixed_batch(data: &Dataset, n: usize, seed: u64) -> Result<(Tensor, Vec<usize>), PruneError> {
    let mut idx: Vec<usize> = (0..data.len()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    idx.truncate(n.clamp(1, data.len()));
    let images = gather_batch(data.images(), &idx)?;
    let labels = idx.iter().map(|&i| data.labels()[i]).collect();
    Ok((images, labels))
}

/// Runs one forward(+backward) pass with activation recording enabled,
/// leaving recorded outputs (and gradients, when `backward` is true) on
/// every convolution.
fn recording_pass(
    net: &mut Network,
    images: &Tensor,
    labels: &[usize],
    backward: bool,
) -> Result<(), PruneError> {
    net.set_record_activations(true);

    (|| -> Result<(), PruneError> {
        let logits = net.forward(images, false)?;
        if backward {
            let loss = CrossEntropyLoss::new(Reduction::Sum).forward(&logits, labels)?;
            net.zero_grad();
            net.backward(&loss.grad)?;
        }
        Ok(())
    })()
}

/// L1-norm pruning (Li et al., "Pruning Filters for Efficient ConvNets",
/// the paper's \[23\]): importance = per-filter weight L1 norm.
#[derive(Debug, Clone, Copy, Default)]
pub struct L1Criterion;

impl L1Criterion {
    /// Creates the criterion.
    pub fn new() -> Self {
        L1Criterion
    }
}

impl FilterCriterion for L1Criterion {
    fn name(&self) -> &str {
        "L1"
    }

    fn score(
        &self,
        net: &mut Network,
        sites: &[PrunableSite],
        data: &Dataset,
        _seed: u64,
    ) -> Result<NetworkScores, PruneError> {
        let mut out = empty_scores(net, sites)?;
        for (site, acc) in sites.iter().zip(out.iter_mut()) {
            acc.scores = per_filter_l1(site.conv(net)?);
        }
        Ok(NetworkScores {
            sites: out,
            classes: data.classes(),
        })
    }
}

/// Scaling-factor pruning (SSS, Huang & Wang, the paper's \[27\]; same
/// family as Network Slimming): importance = |γ| of the batch-norm scale
/// that gates the filter. Training under this criterion adds L1 pressure
/// on the weights as a stand-in for the original's sparsity training on
/// the scaling factors.
#[derive(Debug, Clone, Copy, Default)]
pub struct SssCriterion;

impl SssCriterion {
    /// Creates the criterion.
    pub fn new() -> Self {
        SssCriterion
    }
}

impl FilterCriterion for SssCriterion {
    fn name(&self) -> &str {
        "SSS"
    }

    fn train_regularizer(&self) -> RegularizerConfig {
        RegularizerConfig::l1_only()
    }

    fn score(
        &self,
        net: &mut Network,
        sites: &[PrunableSite],
        data: &Dataset,
        _seed: u64,
    ) -> Result<NetworkScores, PruneError> {
        let mut out = empty_scores(net, sites)?;
        for (site, acc) in sites.iter().zip(out.iter_mut()) {
            let gamma: Option<Vec<f64>> = match site.kind {
                SiteKind::Sequential { conv_idx } => match net.layers().get(conv_idx + 1) {
                    Some(Layer::BatchNorm(bn)) => Some(
                        bn.gamma()
                            .data()
                            .iter()
                            .map(|&g| f64::from(g.abs()))
                            .collect(),
                    ),
                    _ => None,
                },
                SiteKind::ResidualInternal { block_idx } => net
                    .layers()
                    .get(block_idx)
                    .and_then(Layer::as_residual)
                    .map(|b| {
                        b.bn1()
                            .gamma()
                            .data()
                            .iter()
                            .map(|&g| f64::from(g.abs()))
                            .collect()
                    }),
            };
            // Fall back to weight norms when no batch-norm gates the site.
            acc.scores = match gamma {
                Some(g) => g,
                None => per_filter_l2(site.conv(net)?),
            };
        }
        Ok(NetworkScores {
            sites: out,
            classes: data.classes(),
        })
    }
}

/// HRank (Lin et al., the paper's \[19\]): importance = average rank of
/// the feature maps the filter generates over a batch of images.
#[derive(Debug, Clone, Copy)]
pub struct HRankCriterion {
    batch: usize,
}

impl HRankCriterion {
    /// Creates the criterion; `batch` images are used per evaluation.
    pub fn new(batch: usize) -> Self {
        HRankCriterion {
            batch: batch.max(1),
        }
    }
}

impl FilterCriterion for HRankCriterion {
    fn name(&self) -> &str {
        "HRank"
    }

    fn score(
        &self,
        net: &mut Network,
        sites: &[PrunableSite],
        data: &Dataset,
        seed: u64,
    ) -> Result<NetworkScores, PruneError> {
        let (images, labels) = mixed_batch(data, self.batch, seed)?;
        let pass = recording_pass(net, &images, &labels, false);
        let result = pass.and_then(|()| {
            let mut out = empty_scores(net, sites)?;
            for (site, acc) in sites.iter().zip(out.iter_mut()) {
                let conv = site.conv(net)?;
                let a = conv
                    .recorded_output()
                    .ok_or_else(|| PruneError::UnsupportedTopology {
                        reason: format!("site {} recorded no activations", site.label),
                    })?;
                let (m, filters, oh, ow) = (a.dim(0), a.dim(1), a.dim(2), a.dim(3));
                for f in 0..filters {
                    let mut total_rank = 0usize;
                    for s in 0..m {
                        let base = (s * filters + f) * oh * ow;
                        let fm = Tensor::from_vec(
                            vec![oh, ow],
                            a.data()[base..base + oh * ow].to_vec(),
                        )?;
                        total_rank += matrix_rank(&fm, 1e-4);
                    }
                    acc.scores[f] = total_rank as f64 / m as f64;
                }
            }
            Ok(NetworkScores {
                sites: out,
                classes: data.classes(),
            })
        });
        net.set_record_activations(false);
        net.zero_grad();
        result
    }
}

/// TPP (trainability-preserving pruning, Wang & Fu, the paper's \[18\]),
/// simplified to its scoring core on this substrate: importance = L2 norm
/// of the per-filter weight·gradient product, which preserves the filters
/// that carry training signal.
#[derive(Debug, Clone, Copy)]
pub struct TppCriterion {
    batch: usize,
}

impl TppCriterion {
    /// Creates the criterion; `batch` images drive the gradient pass.
    pub fn new(batch: usize) -> Self {
        TppCriterion {
            batch: batch.max(1),
        }
    }
}

impl FilterCriterion for TppCriterion {
    fn name(&self) -> &str {
        "TPP"
    }

    fn score(
        &self,
        net: &mut Network,
        sites: &[PrunableSite],
        data: &Dataset,
        seed: u64,
    ) -> Result<NetworkScores, PruneError> {
        let (images, labels) = mixed_batch(data, self.batch, seed)?;
        let pass = recording_pass(net, &images, &labels, true);
        let result = pass.and_then(|()| {
            let mut out = empty_scores(net, sites)?;
            for (site, acc) in sites.iter().zip(out.iter_mut()) {
                let conv = site.conv(net)?;
                let fsize = conv.in_channels() * conv.kernel() * conv.kernel();
                for f in 0..conv.out_channels() {
                    let w = &conv.weight().data()[f * fsize..(f + 1) * fsize];
                    let g = &conv.grad_weight().data()[f * fsize..(f + 1) * fsize];
                    let score: f64 = w
                        .iter()
                        .zip(g.iter())
                        .map(|(&wi, &gi)| {
                            let p = f64::from(wi) * f64::from(gi);
                            p * p
                        })
                        .sum::<f64>()
                        .sqrt();
                    acc.scores[f] = score;
                }
            }
            Ok(NetworkScores {
                sites: out,
                classes: data.classes(),
            })
        });
        net.set_record_activations(false);
        net.zero_grad();
        result
    }
}

/// OrthConv (Wang et al., the paper's \[31\]): train with the kernel
/// orthogonality regulariser, prune by filter magnitude.
#[derive(Debug, Clone, Copy, Default)]
pub struct OrthConvCriterion;

impl OrthConvCriterion {
    /// Creates the criterion.
    pub fn new() -> Self {
        OrthConvCriterion
    }
}

impl FilterCriterion for OrthConvCriterion {
    fn name(&self) -> &str {
        "OrthConv"
    }

    fn train_regularizer(&self) -> RegularizerConfig {
        RegularizerConfig::orth_only()
    }

    fn score(
        &self,
        net: &mut Network,
        sites: &[PrunableSite],
        data: &Dataset,
        _seed: u64,
    ) -> Result<NetworkScores, PruneError> {
        let mut out = empty_scores(net, sites)?;
        for (site, acc) in sites.iter().zip(out.iter_mut()) {
            acc.scores = per_filter_l2(site.conv(net)?);
        }
        Ok(NetworkScores {
            sites: out,
            classes: data.classes(),
        })
    }
}

/// DepGraph (Fang et al., the paper's \[13\]): group importance across
/// all layers structurally coupled to a filter. With `full_grouping` the
/// producer's filter norm is combined with the consumer's input-channel
/// norm (and, inside residual blocks, conv2's input slice); with
/// `no_grouping` only the producer counts.
#[derive(Debug, Clone, Copy)]
pub struct DepGraphCriterion {
    full: bool,
}

impl DepGraphCriterion {
    /// The full-grouping variant.
    pub fn full_grouping() -> Self {
        DepGraphCriterion { full: true }
    }

    /// The no-grouping variant.
    pub fn no_grouping() -> Self {
        DepGraphCriterion { full: false }
    }
}

impl FilterCriterion for DepGraphCriterion {
    fn name(&self) -> &str {
        if self.full {
            "DepGraph-full"
        } else {
            "DepGraph-no"
        }
    }

    fn score(
        &self,
        net: &mut Network,
        sites: &[PrunableSite],
        data: &Dataset,
        _seed: u64,
    ) -> Result<NetworkScores, PruneError> {
        let mut out = empty_scores(net, sites)?;
        for (site, acc) in sites.iter().zip(out.iter_mut()) {
            let producer = per_filter_l2(site.conv(net)?);
            let consumer: Option<Vec<f64>> = if self.full {
                match site.kind {
                    SiteKind::Sequential { conv_idx } => {
                        // Find the consumer conv or linear.
                        net.layers()[conv_idx + 1..].iter().find_map(|l| match l {
                            Layer::Conv(c) => Some(per_input_channel_l2(c)),
                            Layer::Linear(lin) => {
                                let (o, i) = (lin.out_features(), lin.in_features());
                                let mut acc = vec![0.0f64; i];
                                for r in 0..o {
                                    for (cidx, a) in acc.iter_mut().enumerate() {
                                        let v = f64::from(lin.weight().data()[r * i + cidx]);
                                        *a += v * v;
                                    }
                                }
                                Some(acc.into_iter().map(f64::sqrt).collect())
                            }
                            Layer::Residual(_) => None,
                            _ => None,
                        })
                    }
                    SiteKind::ResidualInternal { block_idx } => net
                        .layers()
                        .get(block_idx)
                        .and_then(Layer::as_residual)
                        .map(|b| per_input_channel_l2(b.conv2())),
                }
            } else {
                None
            };
            acc.scores = match consumer {
                Some(cons) if cons.len() == producer.len() => producer
                    .iter()
                    .zip(cons.iter())
                    .map(|(&p, &c)| (p * p + c * c).sqrt())
                    .collect(),
                _ => producer,
            };
        }
        Ok(NetworkScores {
            sites: out,
            classes: data.classes(),
        })
    }
}

/// FPGM (He et al., "Filter Pruning via Geometric Median", CVPR 2019):
/// a redundancy criterion — the importance of a filter is its total
/// distance to the other filters of the same layer. Filters near the
/// geometric median are replaceable by the others and score lowest.
/// Included as an extra reference point beyond the paper's comparison
/// set: it removes *redundant* filters rather than *unimportant* ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct FpgmCriterion;

impl FpgmCriterion {
    /// Creates the criterion.
    pub fn new() -> Self {
        FpgmCriterion
    }
}

impl FilterCriterion for FpgmCriterion {
    fn name(&self) -> &str {
        "FPGM"
    }

    fn score(
        &self,
        net: &mut Network,
        sites: &[PrunableSite],
        data: &Dataset,
        _seed: u64,
    ) -> Result<NetworkScores, PruneError> {
        let mut out = empty_scores(net, sites)?;
        for (site, acc) in sites.iter().zip(out.iter_mut()) {
            let conv = site.conv(net)?;
            let fsize = conv.in_channels() * conv.kernel() * conv.kernel();
            let filters = conv.out_channels();
            let w = conv.weight().data();
            for f in 0..filters {
                let wf = &w[f * fsize..(f + 1) * fsize];
                let mut total = 0.0f64;
                for other in 0..filters {
                    if other == f {
                        continue;
                    }
                    let wo = &w[other * fsize..(other + 1) * fsize];
                    let d2: f64 = wf
                        .iter()
                        .zip(wo.iter())
                        .map(|(&a, &b)| {
                            let d = f64::from(a) - f64::from(b);
                            d * d
                        })
                        .sum();
                    total += d2.sqrt();
                }
                acc.scores[f] = total;
            }
        }
        Ok(NetworkScores {
            sites: out,
            classes: data.classes(),
        })
    }
}

/// Class-agnostic Taylor pruning (Molchanov et al., the paper's \[25\]):
/// importance = mean `|a·∂L/∂a|` over a mixed-class batch, aggregated
/// over the feature map. This is the paper's own score *without* the
/// class dimension — the ablation that isolates what class-awareness
/// adds.
#[derive(Debug, Clone, Copy)]
pub struct TaylorCriterion {
    batch: usize,
}

impl TaylorCriterion {
    /// Creates the criterion; `batch` mixed-class images are used.
    pub fn new(batch: usize) -> Self {
        TaylorCriterion {
            batch: batch.max(1),
        }
    }
}

impl FilterCriterion for TaylorCriterion {
    fn name(&self) -> &str {
        "Taylor"
    }

    fn score(
        &self,
        net: &mut Network,
        sites: &[PrunableSite],
        data: &Dataset,
        seed: u64,
    ) -> Result<NetworkScores, PruneError> {
        let (images, labels) = mixed_batch(data, self.batch, seed)?;
        let pass = recording_pass(net, &images, &labels, true);
        let result = pass.and_then(|()| {
            let mut out = empty_scores(net, sites)?;
            for (site, acc) in sites.iter().zip(out.iter_mut()) {
                let conv = site.conv(net)?;
                let (a, g) = match (conv.recorded_output(), conv.recorded_output_grad()) {
                    (Some(a), Some(g)) => (a, g),
                    _ => {
                        return Err(PruneError::UnsupportedTopology {
                            reason: format!("site {} recorded nothing", site.label),
                        })
                    }
                };
                let (m, filters) = (a.dim(0), a.dim(1));
                let plane = a.dim(2) * a.dim(3);
                for f in 0..filters {
                    let mut sum = 0.0f64;
                    for s in 0..m {
                        let base = (s * filters + f) * plane;
                        for i in base..base + plane {
                            sum += f64::from((a.data()[i] * g.data()[i]).abs());
                        }
                    }
                    acc.scores[f] = sum / (m * plane) as f64;
                }
            }
            Ok(NetworkScores {
                sites: out,
                classes: data.classes(),
            })
        });
        net.set_record_activations(false);
        net.zero_grad();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_core::find_prunable_sites;
    use cap_data::{DatasetSpec, SyntheticDataset};
    use cap_nn::layer::{BatchNorm2d, GlobalAvgPool, Linear, Relu, ResidualBlock};

    fn data() -> SyntheticDataset {
        SyntheticDataset::generate(
            &DatasetSpec::cifar10_like()
                .with_image_size(8)
                .with_counts(8, 2),
        )
        .unwrap()
    }

    fn net() -> Network {
        let mut rng = StdRng::seed_from_u64(5);
        let mut n = Network::new();
        n.push(Conv2d::new(3, 6, 3, 1, 1, false, &mut rng).unwrap());
        n.push(BatchNorm2d::new(6).unwrap());
        n.push(Relu::new());
        n.push(Conv2d::new(6, 8, 3, 1, 1, false, &mut rng).unwrap());
        n.push(BatchNorm2d::new(8).unwrap());
        n.push(Relu::new());
        n.push(GlobalAvgPool::new());
        n.push(Linear::new(8, 10, &mut rng).unwrap());
        n
    }

    fn resnet() -> Network {
        let mut rng = StdRng::seed_from_u64(6);
        let mut n = Network::new();
        n.push(Conv2d::new(3, 6, 3, 1, 1, false, &mut rng).unwrap());
        n.push(BatchNorm2d::new(6).unwrap());
        n.push(Relu::new());
        n.push(ResidualBlock::new(6, 6, 1, &mut rng).unwrap());
        n.push(GlobalAvgPool::new());
        n.push(Linear::new(6, 10, &mut rng).unwrap());
        n
    }

    fn check_scores(c: &dyn FilterCriterion, net: &mut Network) {
        let d = data();
        let sites = find_prunable_sites(net);
        let scores = c.score(net, &sites, d.train(), 42).unwrap();
        assert_eq!(scores.sites.len(), sites.len());
        for (site, s) in sites.iter().zip(&scores.sites) {
            assert_eq!(s.scores.len(), site.filters(net).unwrap());
            assert!(s.scores.iter().all(|v| v.is_finite() && *v >= 0.0));
        }
        // Deterministic.
        let again = c.score(net, &sites, d.train(), 42).unwrap();
        assert_eq!(scores, again);
    }

    #[test]
    fn all_criteria_produce_valid_scores_on_sequential_net() {
        for c in crate::standard_criteria() {
            let mut n = net();
            check_scores(c.as_ref(), &mut n);
        }
    }

    #[test]
    fn all_criteria_produce_valid_scores_on_residual_net() {
        for c in crate::standard_criteria() {
            let mut n = resnet();
            check_scores(c.as_ref(), &mut n);
        }
    }

    #[test]
    fn l1_matches_manual_norms() {
        let mut n = net();
        let d = data();
        let sites = find_prunable_sites(&n);
        let scores = L1Criterion::new()
            .score(&mut n, &sites, d.train(), 0)
            .unwrap();
        let conv = sites[0].conv(&n).unwrap();
        let manual: f64 = conv.weight().data()[..3 * 9]
            .iter()
            .map(|&v| f64::from(v.abs()))
            .sum();
        assert!((scores.sites[0].scores[0] - manual).abs() < 1e-9);
    }

    #[test]
    fn zeroed_filter_scores_lowest_everywhere() {
        let d = data();
        for c in crate::standard_criteria() {
            let mut n = net();
            if let Some(conv) = n.layers_mut()[0].as_conv_mut() {
                let fsize = 3 * 9;
                for v in &mut conv.weight_mut().data_mut()[2 * fsize..3 * fsize] {
                    *v = 0.0;
                }
            }
            let sites = find_prunable_sites(&n);
            let scores = c.score(&mut n, &sites, d.train(), 7).unwrap();
            let s = &scores.sites[0].scores;
            let min = s.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(
                s[2] <= min + 1e-9 || s[2] < 1e-6,
                "{}: zeroed filter scored {} (min {min})",
                c.name(),
                s[2]
            );
        }
    }

    #[test]
    fn sss_reads_bn_gamma() {
        let mut n = net();
        if let Layer::BatchNorm(bn) = &mut n.layers_mut()[1] {
            bn.gamma_mut()
                .data_mut()
                .copy_from_slice(&[0.1, -0.9, 0.5, 0.0, 2.0, 1.0]);
        }
        let d = data();
        let sites = find_prunable_sites(&n);
        let scores = SssCriterion::new()
            .score(&mut n, &sites, d.train(), 0)
            .unwrap();
        assert_eq!(
            scores.sites[0].scores,
            [0.1f64, 0.9, 0.5, 0.0, 2.0, 1.0]
                .iter()
                .map(|v| (*v as f32) as f64)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn tpp_reads_weight_gradients() {
        // The class-aware scorer's backward leaves weight gradients
        // alone; TPP's own pass on the same net must still produce them.
        let mut n = net();
        let d = data();
        let sites = find_prunable_sites(&n);
        cap_core::evaluate_scores(&mut n, &sites, d.train(), &cap_core::ScoreConfig::default())
            .unwrap();
        let scores = TppCriterion::new(8)
            .score(&mut n, &sites, d.train(), 0)
            .unwrap();
        for site in &scores.sites {
            assert!(
                site.scores.iter().any(|&v| v > 0.0),
                "{}: all TPP scores zero",
                site.label
            );
        }
    }

    #[test]
    fn depgraph_full_scores_at_least_no_grouping() {
        let mut n = net();
        let d = data();
        let sites = find_prunable_sites(&n);
        let full = DepGraphCriterion::full_grouping()
            .score(&mut n, &sites, d.train(), 0)
            .unwrap();
        let nog = DepGraphCriterion::no_grouping()
            .score(&mut n, &sites, d.train(), 0)
            .unwrap();
        for (f, g) in full.iter_scores().zip(nog.iter_scores()) {
            assert!(f.2 >= g.2 - 1e-9);
        }
    }
}
