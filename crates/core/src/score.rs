//! Class-aware importance scores for filters (paper Sec. III-B).
//!
//! For a filter `f` and class `n`, the score `s_{f,n} ∈ [0, 1]` is
//! computed from first-order Taylor scores of the filter's activation
//! outputs (Eq. 4): `Θ'(aᵢ, xⱼ) = |aᵢ · ∂L(xⱼ)/∂aᵢ|`, binarised at a
//! threshold `τ` (Eq. 5), averaged over `M` images of the class (Eq. 6)
//! and maximised over the filter's activation outputs (Eq. 7). The
//! *total* score of a filter is the sum of `s_{f,n}` over all classes —
//! "how many classes is this filter important for".

use crate::{PrunableSite, PruneError};
use cap_data::Dataset;
use cap_nn::{CrossEntropyLoss, Network, Reduction};
use cap_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How the Taylor-score binarisation threshold `τ` (Eq. 5) is chosen.
///
/// The paper uses a fixed `τ = 1e-50`: at its training scale (full-width
/// networks trained to convergence with the modified cost), unimportant
/// activations produce *exactly zero* Taylor scores through ReLU gating,
/// so "strictly non-zero" separates them. On a smaller substrate the
/// zero structure is weaker and a threshold calibrated to the layer's
/// own score magnitude expresses the same "contributes significantly"
/// semantics (the paper's phrasing: "if the Taylor-score of an
/// activation output is near zero, this activation can be considered
/// not to contribute significantly").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TauMode {
    /// Fixed threshold on `Θ'` (the paper's setting, default `1e-50`).
    Absolute(f64),
    /// Threshold at `α ·` (mean `Θ'` over all activations of the site
    /// for the current class batch).
    SiteRelative(f64),
}

impl Default for TauMode {
    fn default() -> Self {
        TauMode::Absolute(1e-50)
    }
}

impl TauMode {
    fn validate(&self) -> Result<(), PruneError> {
        let v = match *self {
            TauMode::Absolute(v) | TauMode::SiteRelative(v) => v,
        };
        if !(v.is_finite() && v >= 0.0) {
            return Err(PruneError::InvalidConfig {
                reason: format!("tau parameter {v} must be finite and non-negative"),
            });
        }
        Ok(())
    }
}

/// Configuration of the importance-score evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreConfig {
    /// Number of images per class (`M`; paper uses 10 and verifies more
    /// images do not change the scores).
    pub images_per_class: usize,
    /// Taylor-score binarisation threshold `τ`.
    pub tau: TauMode,
    /// Seed for the per-class image selection.
    pub seed: u64,
}

impl Default for ScoreConfig {
    fn default() -> Self {
        ScoreConfig {
            images_per_class: 10,
            tau: TauMode::default(),
            seed: 0x5C0E,
        }
    }
}

impl ScoreConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::InvalidConfig`] for a zero image count or a
    /// non-finite / negative `τ` parameter.
    pub fn validate(&self) -> Result<(), PruneError> {
        if self.images_per_class == 0 {
            return Err(PruneError::InvalidConfig {
                reason: "images_per_class must be non-zero".to_string(),
            });
        }
        self.tau.validate()
    }
}

/// Scores of the filters at one prunable site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteScores {
    /// The site's label (mirrors [`PrunableSite::label`]).
    pub label: String,
    /// Class-count score per filter, each in `[0, classes]`.
    pub scores: Vec<f64>,
}

impl SiteScores {
    /// Mean score across the site's filters (0 for an empty site).
    pub fn mean(&self) -> f64 {
        if self.scores.is_empty() {
            return 0.0;
        }
        self.scores.iter().sum::<f64>() / self.scores.len() as f64
    }
}

/// Scores for every prunable site of a network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkScores {
    /// Per-site scores, aligned with the site list used for evaluation.
    pub sites: Vec<SiteScores>,
    /// Number of classes the scores were evaluated against.
    pub classes: usize,
}

impl NetworkScores {
    /// Total number of scored filters.
    pub fn total_filters(&self) -> usize {
        self.sites.iter().map(|s| s.scores.len()).sum()
    }

    /// Iterates over `(site_index, filter_index, score)` triples.
    pub fn iter_scores(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.sites
            .iter()
            .enumerate()
            .flat_map(|(si, s)| s.scores.iter().enumerate().map(move |(fi, &v)| (si, fi, v)))
    }

    /// Mean score over all filters (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.total_filters();
        if n == 0 {
            return 0.0;
        }
        self.iter_scores().map(|(_, _, v)| v).sum::<f64>() / n as f64
    }
}

/// The per-class score breakdown of one site: `per_class[f][n]` is
/// `s_{f,n}` (Eq. 7) for filter `f` and class `n` — the matrix the
/// summed [`SiteScores`] collapse, kept so "which classes made this
/// filter important (or not)" stays answerable after pruning.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteAttribution {
    /// The site's label (mirrors [`PrunableSite::label`]).
    pub label: String,
    /// `s_{f,n}` per `[filter][class]`, each in `[0, 1]`.
    pub per_class: Vec<Vec<f64>>,
}

/// Per-class attribution for every scored site.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassAttribution {
    /// Per-site matrices, aligned with [`NetworkScores::sites`].
    pub sites: Vec<SiteAttribution>,
    /// Number of classes (the inner dimension).
    pub classes: usize,
}

impl ClassAttribution {
    /// The class with the largest `s_{f,n}` for `filter` at `site`
    /// (ties break to the lowest class index; `None` out of range or
    /// when every class scores zero).
    pub fn top_class(&self, site: usize, filter: usize) -> Option<usize> {
        let row = self.sites.get(site)?.per_class.get(filter)?;
        let (mut best_class, mut best) = (None, 0.0f64);
        for (n, &v) in row.iter().enumerate() {
            if v > best {
                best = v;
                best_class = Some(n);
            }
        }
        best_class
    }
}

/// Evaluates class-aware importance scores for the given sites.
///
/// The network is treated as frozen: forward passes run in eval mode and
/// the backward sweeps compute input and activation gradients only
/// ([`Network::backward_input_only`]). One forward/backward pair per
/// class scores every activation output of every site at once (the
/// paper's single-backward Taylor approximation). The pairs run on
/// replicas of `net`; the caller's net is left with its forward caches
/// dropped, recording off and gradients zeroed, also when a class batch
/// fails.
///
/// # Errors
///
/// Propagates dataset sampling errors, network shape errors and
/// configuration errors.
pub fn evaluate_scores(
    net: &mut Network,
    sites: &[PrunableSite],
    data: &Dataset,
    cfg: &ScoreConfig,
) -> Result<NetworkScores, PruneError> {
    Ok(evaluate_scores_with_attribution(net, sites, data, cfg)?.0)
}

/// [`evaluate_scores`] keeping the per-class breakdown alongside the
/// summed totals. `scores.sites[i].scores[f]` is exactly the sum of
/// `attribution.sites[i].per_class[f]` in class order (same additions,
/// same order — bit-identical to [`evaluate_scores`] at any thread
/// count).
///
/// Each `s_{f,n}` depends only on class `n`'s own batch, so the classes
/// are split into contiguous runs, one per pool thread, and each run is
/// scored on its own replica of the network inside one pool task. The
/// layer calls of a run therefore execute inline on that thread. A
/// failing class batch fails the pass with the error of the lowest
/// failing class.
///
/// # Errors
///
/// Propagates dataset sampling errors, network shape errors and
/// configuration errors.
pub fn evaluate_scores_with_attribution(
    net: &mut Network,
    sites: &[PrunableSite],
    data: &Dataset,
    cfg: &ScoreConfig,
) -> Result<(NetworkScores, ClassAttribution), PruneError> {
    // The pass's frame in the span tree (`profile.folded`, `/prof`);
    // each shard opens `core.score.shard` on the thread that runs it.
    let _span = cap_obs::span!("core.score");
    cfg.validate()?;
    let classes = data.classes();
    let filters: Vec<usize> = sites
        .iter()
        .map(|s| s.filters(net))
        .collect::<Result<_, _>>()?;
    // Every batch is drawn up front in class order: the rng sequence of
    // one class after another, whatever the sharding.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let batches: Vec<Result<Tensor, PruneError>> = (0..classes)
        .map(|class| Ok(data.sample_class_batch(class, cfg.images_per_class, &mut rng)?))
        .collect();

    let shards = cap_par::effective_parallelism().min(classes).max(1);
    net.clear_caches();
    let net_ref = &*net;
    let per_shard = cap_par::parallel_map(shards, |shard| {
        // The root frame on a pool worker: it attributes the shard's
        // layer time to scoring in `profile.folded`.
        let _span = cap_obs::span!("core.score.shard");
        let mut replica = net_ref.clone();
        replica.set_record_activations(true);
        // Stops at the shard's first failing class.
        (shard * classes / shards..(shard + 1) * classes / shards)
            .map(|class| {
                let batch = batches[class].as_ref().map_err(Clone::clone)?;
                class_contributions(&mut replica, sites, &filters, batch, class, cfg.tau)
            })
            .collect::<Result<Vec<_>, PruneError>>()
    });
    net.set_record_activations(false);
    net.zero_grad();
    // Shards cover ascending class runs, so the first error met here is
    // the lowest failing class's.
    let mut per_class = Vec::with_capacity(classes);
    for shard in per_shard {
        per_class.extend(shard?);
    }
    Ok(collect_scores(sites, &filters, &per_class))
}

/// Runs one class batch through `net` (recording on) and returns
/// `s_{f,n}` for every filter of every site, indexed `[site][filter]`.
fn class_contributions(
    net: &mut Network,
    sites: &[PrunableSite],
    filters: &[usize],
    batch: &Tensor,
    class: usize,
    tau: TauMode,
) -> Result<Vec<Vec<f64>>, PruneError> {
    let m = batch.dim(0);
    let logits = net.forward(batch, false)?;
    let out = CrossEntropyLoss::new(Reduction::Sum).forward(&logits, &vec![class; m])?;
    net.backward_input_only(&out.grad)?;
    sites
        .iter()
        .zip(filters)
        .map(|(site, &f)| {
            let conv = site.conv(net)?;
            let a = conv
                .recorded_output()
                .ok_or_else(|| PruneError::UnsupportedTopology {
                    reason: format!("site {} did not record activations", site.label),
                })?;
            let g = conv
                .recorded_output_grad()
                .ok_or_else(|| PruneError::UnsupportedTopology {
                    reason: format!("site {} did not record gradients", site.label),
                })?;
            Ok(site_class_contributions(f, a.data(), g.data(), m, tau))
        })
        .collect()
}

/// Transposes the per-class contributions (`[class][site][filter]`)
/// into attribution rows and folds each row in ascending class order
/// from `0.0`: the additions the serial class loop made, in its order.
fn collect_scores(
    sites: &[PrunableSite],
    filters: &[usize],
    per_class: &[Vec<Vec<f64>>],
) -> (NetworkScores, ClassAttribution) {
    let classes = per_class.len();
    let attribution: Vec<SiteAttribution> = sites
        .iter()
        .zip(filters)
        .enumerate()
        .map(|(si, (site, &f))| SiteAttribution {
            label: site.label.clone(),
            per_class: (0..f)
                .map(|fi| per_class.iter().map(|c| c[si][fi]).collect())
                .collect(),
        })
        .collect();
    let scores = attribution
        .iter()
        .map(|a| SiteScores {
            label: a.label.clone(),
            scores: a
                .per_class
                .iter()
                .map(|row| row.iter().fold(0.0f64, |acc, &c| acc + c))
                .collect(),
        })
        .collect();
    (
        NetworkScores {
            sites: scores,
            classes,
        },
        ClassAttribution {
            sites: attribution,
            classes,
        },
    )
}

/// Computes `s_{f,n}` (Eq. 5–7) for one class and every filter of a
/// site, given flat NCHW activation and gradient buffers for `m`
/// samples. Returns one value per filter.
///
/// Each sample's maps are walked once, in memory order, adding 0/1 into
/// a hit count per (filter, position). The largest count of a filter
/// divided by `m` is the max over positions of `hits / m` (Eq. 6–7),
/// because rounded division by `m` is monotonic in the count.
fn site_class_contributions(
    filters: usize,
    activations: &[f32],
    grads: &[f32],
    m: usize,
    tau_mode: TauMode,
) -> Vec<f64> {
    // No filters, samples or positions: every score is 0.
    let plane = activations.len().checked_div(m * filters).unwrap_or(0);
    if plane == 0 {
        return vec![0.0f64; filters];
    }
    let tau = match tau_mode {
        TauMode::Absolute(v) => v,
        TauMode::SiteRelative(alpha) => {
            let mut sum = 0.0f64;
            for (a, g) in activations.iter().zip(grads.iter()) {
                sum += f64::from((a * g).abs());
            }
            alpha * sum / activations.len().max(1) as f64
        }
    };
    // A plain loop: the pass already runs one scoring shard per pool
    // thread (see `evaluate_scores_with_attribution`).
    let mut hits = vec![0u32; filters * plane];
    cap_tensor::run_pass(HitCount {
        hits: &mut hits,
        activations,
        grads,
        tau: f32_floor(tau),
    });
    hits.chunks_exact(plane)
        .map(|counts| counts.iter().copied().max().unwrap_or(0) as f64 / m as f64)
        .collect()
}

/// Eq. 5 over a run of samples: adds `|a·g| > τ` as 0/1 into the hit
/// count of each (filter, position), one pass over each sample's maps.
struct HitCount<'a> {
    /// One count per (filter, position) of one sample's maps.
    hits: &'a mut [u32],
    activations: &'a [f32],
    grads: &'a [f32],
    tau: f32,
}

impl cap_tensor::ElementPass for HitCount<'_> {
    #[inline(always)]
    fn run(self) {
        let maps = self.hits.len();
        let samples = self
            .activations
            .chunks_exact(maps)
            .zip(self.grads.chunks_exact(maps));
        for (a, g) in samples {
            for ((h, a), g) in self.hits.iter_mut().zip(a).zip(g) {
                *h += u32::from((a * g).abs() > self.tau);
            }
        }
    }
}

/// The largest `f32` not above `tau` (`-∞` below `-f32::MAX`, NaN for
/// NaN). For every `f32` θ, `θ > f32_floor(τ)` holds exactly when
/// `f64::from(θ) > τ`: no `f32` lies between the two, and a NaN on
/// either side is false in both. Eq. 5 then compares in `f32`.
fn f32_floor(tau: f64) -> f32 {
    // Rounds to nearest; one step down if that went above τ.
    let t = tau as f32;
    if f64::from(t) > tau {
        t.next_down()
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_prunable_sites;
    use cap_data::{DatasetSpec, SyntheticDataset};
    use cap_nn::layer::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Relu, ResidualBlock};
    use cap_tensor::Tensor;

    fn tiny_data() -> SyntheticDataset {
        SyntheticDataset::generate(
            &DatasetSpec::cifar10_like()
                .with_image_size(8)
                .with_counts(12, 4),
        )
        .unwrap()
    }

    fn tiny_net(rng: &mut StdRng) -> Network {
        let mut net = Network::new();
        net.push(Conv2d::new(3, 8, 3, 1, 1, false, rng).unwrap());
        net.push(BatchNorm2d::new(8).unwrap());
        net.push(Relu::new());
        net.push(Conv2d::new(8, 8, 3, 1, 1, false, rng).unwrap());
        net.push(GlobalAvgPool::new());
        net.push(Linear::new(8, 10, rng).unwrap());
        net
    }

    #[test]
    fn scores_are_bounded_by_class_count() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = tiny_net(&mut rng);
        let sites = find_prunable_sites(&net);
        let scores =
            evaluate_scores(&mut net, &sites, data.train(), &ScoreConfig::default()).unwrap();
        assert_eq!(scores.classes, 10);
        assert_eq!(scores.total_filters(), 16);
        for (_, _, v) in scores.iter_scores() {
            assert!((0.0..=10.0).contains(&v), "score {v} out of range");
        }
    }

    #[test]
    fn zeroed_filter_scores_zero() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = tiny_net(&mut rng);
        // Kill filter 3 of conv1: its activations are identically zero, so
        // every Taylor score is zero and the class count must be 0.
        if let Some(c) = net.layers_mut()[0].as_conv_mut() {
            let fsize = 3 * 9;
            for v in &mut c.weight_mut().data_mut()[3 * fsize..4 * fsize] {
                *v = 0.0;
            }
        }
        let sites = find_prunable_sites(&net);
        let scores =
            evaluate_scores(&mut net, &sites, data.train(), &ScoreConfig::default()).unwrap();
        assert_eq!(scores.sites[0].scores[3], 0.0);
        // A live filter should score above zero.
        assert!(scores.sites[0].scores.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn scores_are_deterministic_in_seed() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = tiny_net(&mut rng);
        let sites = find_prunable_sites(&net);
        let a = evaluate_scores(&mut net, &sites, data.train(), &ScoreConfig::default()).unwrap();
        let b = evaluate_scores(&mut net, &sites, data.train(), &ScoreConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn attribution_rows_sum_to_totals_bit_exactly() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = tiny_net(&mut rng);
        let sites = find_prunable_sites(&net);
        let (scores, attr) = evaluate_scores_with_attribution(
            &mut net,
            &sites,
            data.train(),
            &ScoreConfig::default(),
        )
        .unwrap();
        assert_eq!(attr.classes, scores.classes);
        assert_eq!(attr.sites.len(), scores.sites.len());
        for (site, asite) in scores.sites.iter().zip(attr.sites.iter()) {
            assert_eq!(site.label, asite.label);
            for (f, &total) in site.scores.iter().enumerate() {
                // Fold in class order: the exact additions the totals ran.
                let mut sum = 0.0f64;
                for &c in &asite.per_class[f] {
                    assert!((0.0..=1.0).contains(&c), "s_f,n {c} out of range");
                    sum += c;
                }
                assert_eq!(sum.to_bits(), total.to_bits(), "{sum} vs {total}");
            }
        }
    }

    #[test]
    fn attribution_matches_plain_scores_and_threads() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = tiny_net(&mut rng);
        let sites = find_prunable_sites(&net);
        let plain =
            evaluate_scores(&mut net, &sites, data.train(), &ScoreConfig::default()).unwrap();
        let prior = cap_par::threads();
        cap_par::set_threads(1);
        let (with1, attr1) = evaluate_scores_with_attribution(
            &mut net,
            &sites,
            data.train(),
            &ScoreConfig::default(),
        )
        .unwrap();
        cap_par::set_threads(4);
        let (with4, attr4) = evaluate_scores_with_attribution(
            &mut net,
            &sites,
            data.train(),
            &ScoreConfig::default(),
        )
        .unwrap();
        cap_par::set_threads(prior);
        assert_eq!(plain, with1);
        assert_eq!(with1, with4);
        assert_eq!(attr1, attr4);
        // top_class is in range and consistent with the matrix argmax.
        if let Some(top) = attr1.top_class(0, 0) {
            assert!(top < attr1.classes);
            let row = &attr1.sites[0].per_class[0];
            assert!(row.iter().all(|&v| v <= row[top]));
        }
        assert_eq!(attr1.top_class(99, 0), None);
    }

    #[test]
    fn scores_stable_in_m() {
        // The paper: "by evaluating more than 10 images the importance
        // scores of filters are almost the same". With this data, M=8 vs
        // M=12 must correlate strongly.
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = tiny_net(&mut rng);
        let sites = find_prunable_sites(&net);
        let small = evaluate_scores(
            &mut net,
            &sites,
            data.train(),
            &ScoreConfig {
                images_per_class: 8,
                ..ScoreConfig::default()
            },
        )
        .unwrap();
        let large = evaluate_scores(
            &mut net,
            &sites,
            data.train(),
            &ScoreConfig {
                images_per_class: 12,
                ..ScoreConfig::default()
            },
        )
        .unwrap();
        let mut dev = 0.0f64;
        for ((_, _, a), (_, _, b)) in small.iter_scores().zip(large.iter_scores()) {
            dev = dev.max((a - b).abs());
        }
        assert!(dev <= 2.0, "max deviation {dev} too large");
    }

    #[test]
    fn huge_tau_zeroes_everything() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = tiny_net(&mut rng);
        let sites = find_prunable_sites(&net);
        let scores = evaluate_scores(
            &mut net,
            &sites,
            data.train(),
            &ScoreConfig {
                tau: TauMode::Absolute(1e30),
                ..ScoreConfig::default()
            },
        )
        .unwrap();
        assert!(scores.iter_scores().all(|(_, _, v)| v == 0.0));
    }

    /// A small ResNet: a stem conv and two residual blocks, one of them
    /// with a projection shortcut.
    fn tiny_resnet(rng: &mut StdRng) -> Network {
        let mut net = Network::new();
        net.push(Conv2d::new(3, 8, 3, 1, 1, false, rng).unwrap());
        net.push(BatchNorm2d::new(8).unwrap());
        net.push(Relu::new());
        net.push(ResidualBlock::new(8, 8, 1, rng).unwrap());
        net.push(ResidualBlock::new(8, 12, 2, rng).unwrap());
        net.push(GlobalAvgPool::new());
        net.push(Linear::new(12, 10, rng).unwrap());
        net
    }

    /// Eq. 4–7 for one class batch as the paper writes them, sharing no
    /// code with `site_class_contributions`: θ = |a·g| per activation
    /// (Eq. 4, the f32 product widened to f64), binarised at τ (Eq. 5),
    /// averaged over the M images (Eq. 6) and maxed over the filter's
    /// positions (Eq. 7). `a` and `g` are one site's recorded
    /// `[M, F, H, W]` activations and their gradients.
    fn naive_eq4_to_7(a: &Tensor, g: &Tensor, tau: TauMode) -> Vec<f64> {
        let (m, filters, h, w) = (a.dim(0), a.dim(1), a.dim(2), a.dim(3));
        let theta = |s, f, y, x| f64::from((a.at4(s, f, y, x) * g.at4(s, f, y, x)).abs());
        let tau = match tau {
            TauMode::Absolute(v) => v,
            TauMode::SiteRelative(alpha) => {
                // α · the mean θ over every activation of the site.
                let mut sum = 0.0f64;
                for s in 0..m {
                    for f in 0..filters {
                        for y in 0..h {
                            for x in 0..w {
                                sum += theta(s, f, y, x);
                            }
                        }
                    }
                }
                alpha * sum / (m * filters * h * w) as f64
            }
        };
        (0..filters)
            .map(|f| {
                let mut best = 0.0f64;
                for y in 0..h {
                    for x in 0..w {
                        let mut important = 0.0f64;
                        for s in 0..m {
                            if theta(s, f, y, x) > tau {
                                important += 1.0;
                            }
                        }
                        best = best.max(important / m as f64);
                    }
                }
                best
            })
            .collect()
    }

    /// The scoring loop with the full `Network::backward` and a
    /// `zero_grad` per class, scored by [`naive_eq4_to_7`]: what Eq. 3–7
    /// are defined on, computing parameter gradients the scores never
    /// read.
    fn full_backward_reference(
        net: &mut Network,
        sites: &[PrunableSite],
        data: &Dataset,
        cfg: &ScoreConfig,
    ) -> (NetworkScores, ClassAttribution) {
        let classes = data.classes();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let filters: Vec<usize> = sites.iter().map(|s| s.filters(net).unwrap()).collect();
        let mut totals: Vec<Vec<f64>> = filters.iter().map(|&f| vec![0.0; f]).collect();
        let mut per_class: Vec<Vec<Vec<f64>>> = filters
            .iter()
            .map(|&f| vec![vec![0.0; classes]; f])
            .collect();
        net.set_record_activations(true);
        for class in 0..classes {
            let batch = data
                .sample_class_batch(class, cfg.images_per_class, &mut rng)
                .unwrap();
            let m = batch.dim(0);
            let logits = net.forward(&batch, false).unwrap();
            let out = CrossEntropyLoss::new(Reduction::Sum)
                .forward(&logits, &vec![class; m])
                .unwrap();
            net.zero_grad();
            net.backward(&out.grad).unwrap();
            for (si, site) in sites.iter().enumerate() {
                let conv = site.conv(net).unwrap();
                let a = conv.recorded_output().unwrap();
                let g = conv.recorded_output_grad().unwrap();
                assert_eq!(a.dim(0), m);
                let contrib = naive_eq4_to_7(a, g, cfg.tau);
                for ((total, row), c) in totals[si]
                    .iter_mut()
                    .zip(per_class[si].iter_mut())
                    .zip(contrib)
                {
                    *total += c;
                    row[class] = c;
                }
            }
        }
        net.set_record_activations(false);
        net.zero_grad();
        let label = |si: usize| sites[si].label.clone();
        (
            NetworkScores {
                sites: totals
                    .into_iter()
                    .enumerate()
                    .map(|(si, scores)| SiteScores {
                        label: label(si),
                        scores,
                    })
                    .collect(),
                classes,
            },
            ClassAttribution {
                sites: per_class
                    .into_iter()
                    .enumerate()
                    .map(|(si, per_class)| SiteAttribution {
                        label: label(si),
                        per_class,
                    })
                    .collect(),
                classes,
            },
        )
    }

    fn assert_scores_bit_identical(
        got: &(NetworkScores, ClassAttribution),
        want: &(NetworkScores, ClassAttribution),
        what: &str,
    ) {
        assert_eq!(got.0.total_filters(), want.0.total_filters(), "{what}");
        for ((s, f, a), (_, _, b)) in got.0.iter_scores().zip(want.0.iter_scores()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: site {s} filter {f}: {a} vs {b}"
            );
        }
        for (gs, ws) in got.1.sites.iter().zip(&want.1.sites) {
            assert_eq!(gs.label, ws.label, "{what}");
            for (f, (gr, wr)) in gs.per_class.iter().zip(&ws.per_class).enumerate() {
                let gbits: Vec<u64> = gr.iter().map(|v| v.to_bits()).collect();
                let wbits: Vec<u64> = wr.iter().map(|v| v.to_bits()).collect();
                assert_eq!(gbits, wbits, "{what}: {} filter {f}", gs.label);
            }
        }
    }

    /// A pruned copy of `dense` with odd channel counts at every site.
    fn odd_pruned(dense: &Network) -> Network {
        let mut pruned = dense.clone();
        for site in &find_prunable_sites(&pruned) {
            let filters = site.filters(&pruned).unwrap();
            let kept = (filters * 2 / 3) | 1;
            let keep: Vec<usize> = (0..kept).map(|i| i * filters / kept).collect();
            crate::apply_site_pruning(&mut pruned, site, &keep).unwrap();
        }
        let sites = find_prunable_sites(&pruned);
        assert!(sites.iter().all(|s| s.filters(&pruned).unwrap() % 2 == 1));
        pruned
    }

    /// The production pass against the full backward scored by the naive
    /// equations, on plain and residual nets and their odd-channel pruned
    /// copies. τ = 0 tells `>` from `>=`: every activation a ReLU gates
    /// off has θ = 0 exactly.
    #[test]
    fn input_only_scoring_matches_full_backward_reference() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(8);
        let mut nets = Vec::new();
        for (what, dense) in [
            ("tiny_net", tiny_net(&mut rng)),
            ("tiny_resnet", tiny_resnet(&mut rng)),
        ] {
            nets.push((format!("pruned {what}"), odd_pruned(&dense)));
            nets.push((format!("dense {what}"), dense));
        }
        for (what, net) in &mut nets {
            let sites = find_prunable_sites(net);
            for tau in [
                TauMode::default(),
                TauMode::Absolute(0.0),
                TauMode::SiteRelative(3.0),
            ] {
                let cfg = ScoreConfig {
                    tau,
                    ..ScoreConfig::default()
                };
                let want = full_backward_reference(net, &sites, data.train(), &cfg);
                let got =
                    evaluate_scores_with_attribution(net, &sites, data.train(), &cfg).unwrap();
                assert_scores_bit_identical(&got, &want, &format!("{what}, {tau:?}"));
            }
        }
    }

    #[test]
    fn scores_bit_identical_across_thread_counts() {
        // 3 and 4 threads split the 10 classes into uneven shards; 16
        // asks for more shards than there are classes.
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(5);
        let mut dense = tiny_resnet(&mut rng);
        let mut pruned = odd_pruned(&dense);
        let cfg = ScoreConfig::default();
        let prior = cap_par::threads();
        for (what, net) in [("dense", &mut dense), ("pruned", &mut pruned)] {
            let sites = find_prunable_sites(net);
            cap_par::set_threads(1);
            let want = full_backward_reference(net, &sites, data.train(), &cfg);
            for threads in [1, 2, 3, 4, 16] {
                cap_par::set_threads(threads);
                let got = evaluate_scores_with_attribution(net, &sites, data.train(), &cfg);
                cap_par::set_threads(prior);
                assert_scores_bit_identical(
                    &got.unwrap(),
                    &want,
                    &format!("{what}, {threads} threads"),
                );
            }
        }
    }

    /// The bits of every parameter, in visiting order.
    fn param_bits(net: &mut Network) -> Vec<u32> {
        let mut bits = Vec::new();
        net.visit_params_mut(&mut |p, _| bits.extend(p.data().iter().map(|v| v.to_bits())));
        bits
    }

    /// Every parameter gradient is zero and no convolution records.
    fn assert_left_clean(net: &mut Network, what: &str) {
        net.visit_params_mut(&mut |_, g| {
            assert!(
                g.data().iter().all(|&v| v == 0.0),
                "{what}: gradient left non-zero"
            );
        });
        net.visit_convs(&mut |c| {
            assert!(c.recorded_output().is_none() && c.recorded_output_grad().is_none());
        });
        net.forward(&Tensor::ones(&[1, 3, 8, 8]), false).unwrap();
        net.visit_convs(&mut |c| {
            assert!(c.recorded_output().is_none(), "{what}: recording left on");
        });
    }

    #[test]
    fn scoring_leaves_zeroed_gradients_and_recording_off_even_on_failure() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = tiny_resnet(&mut rng);
        // Five outputs for ten classes: every class batch from class 5 on
        // fails in the loss; at 4 threads the shards starting at classes
        // 5 and 7 both fail.
        let mut short = Network::new();
        short.push(Conv2d::new(3, 4, 3, 1, 1, true, &mut rng).unwrap());
        short.push(BatchNorm2d::new(4).unwrap());
        short.push(Relu::new());
        short.push(GlobalAvgPool::new());
        short.push(Linear::new(4, 5, &mut rng).unwrap());
        let prior = cap_par::threads();
        for threads in [1, 4] {
            for (what, net, fails) in [
                ("a pass", &mut net, false),
                ("a failed class batch", &mut short, true),
            ] {
                let what = format!("after {what} at {threads} threads");
                let sites = find_prunable_sites(net);
                let params = param_bits(net);
                net.visit_params_mut(&mut |_, g| g.fill(1.5));
                cap_par::set_threads(threads);
                let result = evaluate_scores(net, &sites, data.train(), &ScoreConfig::default());
                cap_par::set_threads(prior);
                match result {
                    Ok(_) => assert!(!fails, "{what}: the pass succeeded"),
                    // The error is the lowest failing class's.
                    Err(e) => assert!(
                        fails
                            && matches!(&e, PruneError::Nn(cap_nn::NnError::BadLabels { reason })
                                if reason.starts_with("label 5 ")),
                        "{what}: {e}"
                    ),
                }
                assert_eq!(param_bits(net), params, "{what}: parameters changed");
                assert_left_clean(net, &what);
            }
        }
    }

    #[test]
    fn f32_threshold_compares_like_the_f64_threshold() {
        let one_up = f64::from(1.0f32.next_up());
        let taus = [
            1.5,                        // exactly an f32
            0.1,                        // rounds up to its f32
            1.0 + 2f64.powi(-30),       // rounds down to 1.0
            one_up - 2f64.powi(-30),    // rounds up to 1 + 2⁻²³
            -(one_up - 2f64.powi(-30)), // and its negative
            1e-50,                      // below every subnormal
            -1e-50,
            0.0,
            -0.0,
            f64::from(f32::from_bits(1)) * 1.5, // between two subnormals
            f64::from(f32::MAX) * 1.5,          // above f32::MAX
            -f64::from(f32::MAX) * 1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for &tau in &taus {
            let t32 = f32_floor(tau);
            let rounded = tau as f32;
            let thetas = [
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::from_bits(1),
                f32::MIN_POSITIVE / 2.0,
                -f32::MIN_POSITIVE / 2.0,
                0.0,
                -0.0,
                1.0,
                f32::MAX,
                -f32::MAX,
                rounded,
                rounded.next_up(),
                rounded.next_down(),
                t32,
                t32.next_up(),
                t32.next_down(),
            ];
            for theta in thetas {
                assert_eq!(
                    theta > t32,
                    f64::from(theta) > tau,
                    "theta {theta:e} against tau {tau:e} (f32 floor {t32:e})"
                );
            }
        }
    }

    /// The recorded gradient is dL/da. The layers after each site run one
    /// by one through `Network::layers_mut()`, so the scoring loss along a
    /// random direction `d` of the site's activation `a` is computed from
    /// forwards alone, and its central difference must match
    /// ⟨recorded_output_grad, d⟩. At the first site that gradient came
    /// back through the second conv's input-gradient kernels, which this
    /// checks against forwards rather than against the lowering.
    #[test]
    fn recorded_gradient_is_the_loss_derivative_at_each_site() {
        let data = tiny_data();
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = tiny_net(&mut rng);
        let sites = find_prunable_sites(&net);
        assert_eq!(sites.len(), 2, "a plain net with two sites");
        let (class, m) = (3, 4);
        let batch = data.train().sample_class_batch(class, m, &mut rng).unwrap();
        let labels = vec![class; m];
        let loss = CrossEntropyLoss::new(Reduction::Sum);

        // The scoring pass's forward, loss and input-only backward.
        net.set_record_activations(true);
        let logits = net.forward(&batch, false).unwrap();
        let at_logits = loss.forward(&logits, &labels).unwrap();
        net.backward_input_only(&at_logits.grad).unwrap();
        let recorded: Vec<(usize, Tensor, Tensor)> = sites
            .iter()
            .map(|site| {
                let crate::SiteKind::Sequential { conv_idx } = site.kind else {
                    panic!("{} is not a plain conv", site.label);
                };
                let conv = site.conv(&net).unwrap();
                let a = conv.recorded_output().unwrap().clone();
                (conv_idx, a, conv.recorded_output_grad().unwrap().clone())
            })
            .collect();
        net.set_record_activations(false);

        // Small enough that no ReLU input crosses 0 (at 1e-3 one does,
        // 3% of |g| off), large enough that the loss's rounding stays
        // near 0.1% of |g|.
        let eps = 3e-4f32;
        for (conv_idx, a, g) in &recorded {
            let mut loss_at = |a: &Tensor| {
                let mut h = a.clone();
                for layer in &mut net.layers_mut()[conv_idx + 1..] {
                    h = layer.forward(&h, false).unwrap();
                }
                loss.forward(&h, &labels).unwrap().value
            };
            assert_eq!(
                loss_at(a).to_bits(),
                at_logits.value.to_bits(),
                "layer-by-layer forward from layer {conv_idx} differs from the network's"
            );
            let g_norm = g.data().iter().map(|&v| f64::from(v).powi(2)).sum::<f64>();
            let g_norm = g_norm.sqrt();
            for trial in 0..3 {
                let d = cap_tensor::randn(a.shape(), 0.0, 1.0, &mut rng);
                let step = |s: f32| {
                    let mut t = a.clone();
                    for (x, &dx) in t.data_mut().iter_mut().zip(d.data()) {
                        *x += s * dx;
                    }
                    t
                };
                let central = (loss_at(&step(eps)) - loss_at(&step(-eps))) / (2.0 * f64::from(eps));
                let inner: f64 = g
                    .data()
                    .iter()
                    .zip(d.data())
                    .map(|(&gv, &dv)| f64::from(gv) * f64::from(dv))
                    .sum();
                // ⟨g, d⟩ has standard deviation |g| over random d; the
                // central difference stays within 0.25% of |g| of it.
                assert!(
                    (central - inner).abs() <= 0.01 * g_norm,
                    "layer {conv_idx}, direction {trial}: central difference {central} \
                     against <g, d> = {inner} (|g| = {g_norm})"
                );
            }
        }
    }

    /// The Eq. 5 count gives the same hits in the plain build, which the
    /// `Scalar` pin runs, and in the frame this process is pinned to (the
    /// wide one under `CAP_SIMD=auto` on an AVX2 host), over NaNs of both
    /// signs and two payloads, ±0, ±∞, the smallest subnormals and the
    /// neighbours of ±1. It calls the two directly instead of flipping the
    /// process-global pin, which this binary's other tests read while
    /// they compare bits across calls.
    #[test]
    fn hit_count_matches_across_frames() {
        use cap_tensor::ElementPass;
        const SPECIALS: [u32; 16] = [
            0x7fc0_0000,
            0xffc0_0000,
            0x7fc0_1234,
            0xffc0_1234,
            0x0000_0000,
            0x8000_0000,
            0x7f80_0000,
            0xff80_0000,
            0x0000_0001,
            0x8000_0001,
            0x3f7f_ffff,
            0x3f80_0000,
            0x3f80_0001,
            0xbf7f_ffff,
            0xbf80_0000,
            0xbf80_0001,
        ];
        let specials = |len: usize, shift: usize| -> Vec<f32> {
            (0..len)
                .map(|i| f32::from_bits(SPECIALS[(i * 7 + shift) % SPECIALS.len()]))
                .collect()
        };
        let taus = [f32::NEG_INFINITY, 0.0, f32::from_bits(1), 1.0, f32::NAN];
        for maps in (1..=17).chain([67]) {
            for shift in 0..SPECIALS.len() {
                let (a, g) = (specials(3 * maps, 0), specials(3 * maps, shift));
                for tau in taus {
                    let (mut plain, mut pinned) = (vec![0u32; maps], vec![0u32; maps]);
                    HitCount {
                        hits: &mut plain,
                        activations: &a,
                        grads: &g,
                        tau,
                    }
                    .run();
                    cap_tensor::run_pass(HitCount {
                        hits: &mut pinned,
                        activations: &a,
                        grads: &g,
                        tau,
                    });
                    assert_eq!(plain, pinned, "{maps} maps, shift {shift}, τ {tau}");
                }
            }
        }
    }

    #[test]
    fn config_validation() {
        assert!(ScoreConfig {
            images_per_class: 0,
            ..ScoreConfig::default()
        }
        .validate()
        .is_err());
        assert!(ScoreConfig {
            tau: TauMode::Absolute(f64::NAN),
            ..ScoreConfig::default()
        }
        .validate()
        .is_err());
        assert!(ScoreConfig::default().validate().is_ok());
    }
}
