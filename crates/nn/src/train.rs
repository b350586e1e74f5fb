use crate::{accuracy, CrossEntropyLoss, Network, NnError, Reduction, RegularizerConfig, Sgd};
use cap_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// What [`fit`] does when a loss or gradient goes non-finite (NaN/Inf).
///
/// Divergence from a too-hot learning rate or a poisoned batch would
/// otherwise silently destroy the network: one NaN gradient makes every
/// weight NaN after the next optimizer step, and the run only notices
/// at evaluation time. Every policy counts faults in
/// `nn.numeric_faults_total` and emits a `numeric_fault` event; the
/// recovering policies carry a bounded retry budget so a persistently
/// broken run still fails instead of spinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Fail the `fit` call immediately with [`NnError::NumericFault`].
    #[default]
    Abort,
    /// Drop the offending batch (gradients are zeroed, no optimizer
    /// step) and continue; after `budget` skipped batches, abort.
    SkipBatch {
        /// Maximum number of batches that may be skipped.
        budget: u32,
    },
    /// Restore the last good snapshot (taken at each epoch boundary),
    /// clear optimizer momentum, halve the learning rate and retry the
    /// epoch; after `budget` restores, abort.
    RestoreAndHalveLr {
        /// Maximum number of restore-and-retry cycles.
        budget: u32,
    },
}

/// Hyper-parameters for a training run with the paper's modified cost
/// (Eq. 1): cross-entropy plus L1 and orthogonality regularisation.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate (paper: 0.01).
    pub lr: f32,
    /// Momentum (paper: 0.9).
    pub momentum: f32,
    /// Weight decay (paper: 5e-4).
    pub weight_decay: f32,
    /// Multiplicative learning-rate decay applied after every epoch.
    pub lr_decay: f32,
    /// Regularisation coefficients (Eq. 1).
    pub regularizer: RegularizerConfig,
    /// Seed for the per-epoch shuffle.
    pub shuffle_seed: u64,
    /// Reaction to non-finite losses or gradients.
    pub fault_policy: FaultPolicy,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 5e-4,
            lr_decay: 0.95,
            regularizer: RegularizerConfig::paper(),
            shuffle_seed: 0x5eed,
            fault_policy: FaultPolicy::Abort,
        }
    }
}

/// Per-epoch statistics from [`fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean total loss (data + regularisation) per batch.
    pub loss: f64,
    /// Training accuracy over the epoch.
    pub accuracy: f64,
    /// Learning rate used during this epoch (before the post-epoch decay).
    pub lr: f64,
    /// Wall-clock time spent on this epoch, in seconds.
    pub elapsed_secs: f64,
}

/// Copies the samples at `indices` from `[N, C, H, W]` into a new batch.
///
/// # Errors
///
/// Returns [`NnError::BadInput`] if `images` is not 4-D or an index is
/// out of range.
pub fn gather_batch(images: &Tensor, indices: &[usize]) -> Result<Tensor, NnError> {
    if images.ndim() != 4 {
        return Err(NnError::BadInput {
            layer: "gather_batch",
            expected: "[N, C, H, W]".to_string(),
            got: images.shape().to_vec(),
        });
    }
    let n = images.dim(0);
    let sample = images.shape()[1..].iter().product::<usize>();
    let mut shape = images.shape().to_vec();
    shape[0] = indices.len();
    let mut out = Tensor::zeros(&shape);
    for (bi, &src) in indices.iter().enumerate() {
        if src >= n {
            return Err(NnError::BadInput {
                layer: "gather_batch",
                expected: format!("indices < {n}"),
                got: vec![src],
            });
        }
        out.data_mut()[bi * sample..(bi + 1) * sample]
            .copy_from_slice(&images.data()[src * sample..(src + 1) * sample]);
    }
    Ok(out)
}

/// Trains `net` on `(images, labels)` with SGD and the modified cost,
/// returning per-epoch statistics.
///
/// # Errors
///
/// Returns [`NnError::BadLabels`] on a label/image count mismatch and
/// propagates layer errors.
pub fn fit(
    net: &mut Network,
    images: &Tensor,
    labels: &[usize],
    cfg: &TrainConfig,
) -> Result<Vec<EpochStats>, NnError> {
    if images.ndim() != 4 || images.dim(0) != labels.len() || labels.is_empty() {
        return Err(NnError::BadLabels {
            reason: format!(
                "{} images vs {} labels",
                if images.ndim() == 4 { images.dim(0) } else { 0 },
                labels.len()
            ),
        });
    }
    let _fit_span = cap_obs::span!("nn.fit");
    let mut opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay)?;
    let loss_fn = CrossEntropyLoss::new(Reduction::Mean);
    let mut order: Vec<usize> = (0..labels.len()).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.shuffle_seed);
    let mut history = Vec::with_capacity(cfg.epochs);
    let (mut skip_budget, mut restore_budget) = match cfg.fault_policy {
        FaultPolicy::Abort => (0u32, 0u32),
        FaultPolicy::SkipBatch { budget } => (budget, 0),
        FaultPolicy::RestoreAndHalveLr { budget } => (0, budget),
    };
    // Last-good snapshot for RestoreAndHalveLr, refreshed at each epoch
    // boundary (the most recent state known to predate the fault).
    let mut snapshot: Option<Network> = None;
    // Training steps executed in this `fit` call (1-based), the clock
    // for the `nan_grad_at=step:N` fault directive.
    let mut global_step: u64 = 0;
    for epoch in 0..cfg.epochs {
        let _epoch_span = cap_obs::span!("nn.fit.epoch");
        let epoch_start = cap_obs::clock::now();
        order.shuffle(&mut rng);
        if matches!(cfg.fault_policy, FaultPolicy::RestoreAndHalveLr { .. }) {
            snapshot = Some(net.clone());
        }
        // The loop retries the whole epoch after a restore; every other
        // path leaves it on the first pass.
        let (epoch_loss, batches, correct, epoch_lr) = loop {
            let epoch_lr = f64::from(opt.lr());
            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            let mut correct = 0usize;
            let mut restored = false;
            for (batch_idx, chunk) in order.chunks(cfg.batch_size.max(1)).enumerate() {
                let _batch_span = cap_obs::span!("nn.fit.batch");
                global_step += 1;
                let x = gather_batch(images, chunk)?;
                let y: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                let logits = net.forward(&x, true)?;
                let out = loss_fn.forward(&logits, &y)?;
                let mut fault: Option<&'static str> = None;
                if !out.value.is_finite() {
                    fault = Some("loss");
                } else {
                    net.zero_grad();
                    net.backward(&out.grad)?;
                    cfg.regularizer.add_gradients(net)?;
                    if cap_faults::nan_grad_at_step(global_step) {
                        poison_first_gradient(net);
                    }
                    if !gradients_finite(net) {
                        fault = Some("grad");
                    }
                }
                if let Some(what) = fault {
                    cap_obs::counter_add("nn.numeric_faults_total", 1);
                    cap_obs::emit(
                        cap_obs::Event::new("numeric_fault")
                            .str("what", what)
                            .u64("epoch", epoch as u64)
                            .u64("batch", batch_idx as u64)
                            .str("policy", format!("{:?}", cfg.fault_policy)),
                    );
                    match cfg.fault_policy {
                        FaultPolicy::Abort => {
                            return Err(NnError::NumericFault {
                                what,
                                epoch,
                                batch: batch_idx,
                            })
                        }
                        FaultPolicy::SkipBatch { .. } => {
                            if skip_budget == 0 {
                                return Err(NnError::NumericFault {
                                    what,
                                    epoch,
                                    batch: batch_idx,
                                });
                            }
                            skip_budget -= 1;
                            cap_obs::counter_add("nn.fault_skipped_batches_total", 1);
                            net.zero_grad();
                            continue;
                        }
                        FaultPolicy::RestoreAndHalveLr { .. } => {
                            if restore_budget == 0 {
                                return Err(NnError::NumericFault {
                                    what,
                                    epoch,
                                    batch: batch_idx,
                                });
                            }
                            restore_budget -= 1;
                            cap_obs::counter_add("nn.fault_restores_total", 1);
                            // The snapshot is taken at every epoch start
                            // under this policy; if it is somehow absent,
                            // recovery is impossible — surface the fault
                            // instead of panicking mid-train.
                            let Some(snap) = snapshot.as_ref() else {
                                return Err(NnError::NumericFault {
                                    what,
                                    epoch,
                                    batch: batch_idx,
                                });
                            };
                            *net = snap.clone();
                            let halved = opt.lr() * 0.5;
                            // Momentum velocities predate the restore
                            // point, so they are cleared with the reset.
                            opt.reset();
                            opt.set_lr(halved);
                            eprintln!(
                                "cap-nn: non-finite {what} at epoch {epoch}, batch {batch_idx}; \
                                 restored epoch snapshot, lr halved to {halved}"
                            );
                            restored = true;
                            break;
                        }
                    }
                }
                let preds = cap_tensor::argmax_rows(&logits)?;
                correct += preds.iter().zip(y.iter()).filter(|(p, l)| p == l).count();
                opt.step(net);
                epoch_loss += out.value + cfg.regularizer.penalty(net);
                batches += 1;
                if cap_obs::detail() {
                    cap_obs::emit(
                        cap_obs::Event::new("batch")
                            .u64("epoch", epoch as u64)
                            .u64("batch", batch_idx as u64)
                            .f64("loss", out.value),
                    );
                }
            }
            if !restored {
                break (epoch_loss, batches, correct, epoch_lr);
            }
        };
        opt.set_lr(opt.lr() * cfg.lr_decay);
        let stats = EpochStats {
            loss: epoch_loss / batches.max(1) as f64,
            accuracy: correct as f64 / labels.len() as f64,
            lr: epoch_lr,
            elapsed_secs: epoch_start.elapsed().as_secs_f64(),
        };
        cap_obs::counter_add("nn.epochs_total", 1);
        crate::heartbeat::beat();
        // Live gauges: a /metrics scrape mid-run sees the most recent
        // epoch's position and quality without waiting for events.
        cap_obs::gauge_set("nn.fit.epoch", epoch as f64);
        cap_obs::gauge_set("nn.fit.loss", stats.loss);
        cap_obs::gauge_set("nn.fit.accuracy", stats.accuracy);
        cap_obs::gauge_set("nn.fit.lr", stats.lr);
        cap_obs::emit(
            cap_obs::Event::new("epoch")
                .u64("epoch", epoch as u64)
                .f64("loss", stats.loss)
                .f64("accuracy", stats.accuracy)
                .f64("lr", stats.lr)
                .f64("elapsed_secs", stats.elapsed_secs),
        );
        history.push(stats);
    }
    Ok(history)
}

/// Whether every accumulated parameter gradient is finite.
fn gradients_finite(net: &mut Network) -> bool {
    let mut finite = true;
    net.visit_params_mut(&mut |_, g| {
        if finite && !g.data().iter().all(|v| v.is_finite()) {
            finite = false;
        }
    });
    finite
}

/// Fault-injection support: overwrites the first parameter gradient
/// with NaN, as a diverging batch would.
fn poison_first_gradient(net: &mut Network) {
    let mut done = false;
    net.visit_params_mut(&mut |_, g| {
        if !done {
            if let Some(v) = g.data_mut().first_mut() {
                *v = f32::NAN;
                done = true;
            }
        }
    });
}

/// Evaluates top-1 accuracy of `net` on `(images, labels)` in eval mode:
/// the predictions of the loop [`predict_all`] runs, scored by
/// [`accuracy`].
///
/// # Errors
///
/// Returns [`NnError::BadLabels`] on a count mismatch and propagates
/// layer errors.
pub fn evaluate(
    net: &mut Network,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> Result<f64, NnError> {
    if images.ndim() != 4 || images.dim(0) != labels.len() || labels.is_empty() {
        return Err(NnError::BadLabels {
            reason: "image/label count mismatch or empty".to_string(),
        });
    }
    let _span = cap_obs::span!("nn.evaluate");
    accuracy(&predict_sharded(net, images, batch_size)?, labels)
}

/// Predicts a class for every sample, in sample order, identically at
/// any thread count. Callers that need per-class accuracy feed the
/// result to [`crate::metrics::ConfusionMatrix`].
///
/// # Errors
///
/// Returns [`NnError::BadLabels`] on an empty or non-NCHW batch and
/// propagates forward-pass shape errors.
pub fn predict_all(
    net: &mut Network,
    images: &Tensor,
    batch_size: usize,
) -> Result<Vec<usize>, NnError> {
    if images.ndim() != 4 || images.dim(0) == 0 {
        return Err(NnError::BadLabels {
            reason: "empty or non-NCHW image batch".to_string(),
        });
    }
    let _span = cap_obs::span!("nn.predict_all");
    predict_sharded(net, images, batch_size)
}

/// The prediction loop [`evaluate`] and [`predict_all`] share, over a
/// checked NCHW batch. Inference is pure, so each task predicts a
/// contiguous run of batches on its own clone of the network (predict
/// mutates layer caches), cloned without the caller's caches.
/// Per-sample predictions are independent of the grouping, so the
/// vector is exactly the serial one for any thread count.
fn predict_sharded(
    net: &mut Network,
    images: &Tensor,
    batch_size: usize,
) -> Result<Vec<usize>, NnError> {
    let n = images.dim(0);
    let bs = batch_size.max(1);
    let num_batches = n.div_ceil(bs);
    let groups = cap_par::effective_parallelism().min(num_batches);
    if groups <= 1 {
        return predict_batches(net, images, n, bs, 0, num_batches);
    }
    let batches_per_group = num_batches.div_ceil(groups);
    net.clear_caches();
    let net_ref = &*net;
    let partials = cap_par::parallel_map(groups, |g| {
        let start = g * batches_per_group;
        let end = ((g + 1) * batches_per_group).min(num_batches);
        let mut replica = net_ref.clone();
        predict_batches(&mut replica, images, n, bs, start, end)
    });
    let mut preds = Vec::with_capacity(n);
    for partial in partials {
        preds.extend(partial?);
    }
    Ok(preds)
}

/// Predicts batches `start .. end` (batch `i` covers samples
/// `i*bs .. min((i+1)*bs, n)`), returning predictions in sample order
/// for the covered range.
fn predict_batches(
    net: &mut Network,
    images: &Tensor,
    n: usize,
    bs: usize,
    start: usize,
    end: usize,
) -> Result<Vec<usize>, NnError> {
    let mut preds = Vec::new();
    for bi in start..end {
        let lo = bi * bs;
        let hi = ((bi + 1) * bs).min(n);
        let chunk: Vec<usize> = (lo..hi).collect();
        let x = gather_batch(images, &chunk)?;
        preds.extend(net.predict(&x)?);
    }
    Ok(preds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Conv2d, GlobalAvgPool, Linear, Relu};

    fn toy_problem() -> (Network, Tensor, Vec<usize>) {
        // Two linearly separable classes: constant-positive vs
        // constant-negative images.
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let mut net = Network::new();
        net.push(Conv2d::new(1, 4, 3, 1, 1, true, &mut rng).unwrap());
        net.push(Relu::new());
        net.push(GlobalAvgPool::new());
        net.push(Linear::new(4, 2, &mut rng).unwrap());
        let n = 32;
        let mut images = Tensor::zeros(&[n, 1, 6, 6]);
        let mut labels = Vec::with_capacity(n);
        for s in 0..n {
            let sign = if s % 2 == 0 { 1.0 } else { -1.0 };
            let base = s * 36;
            for i in 0..36 {
                images.data_mut()[base + i] = sign * (0.5 + 0.1 * ((i % 5) as f32));
            }
            labels.push(s % 2);
        }
        (net, images, labels)
    }

    #[test]
    fn fit_learns_separable_problem() {
        // fit reads the process-global fault spec and emits epoch
        // events, so it must not overlap the tests that set either.
        let _guard = cap_obs::test_lock();
        let (mut net, images, labels) = toy_problem();
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 8,
            lr: 0.05,
            regularizer: RegularizerConfig::none(),
            ..TrainConfig::default()
        };
        let history = fit(&mut net, &images, &labels, &cfg).unwrap();
        assert_eq!(history.len(), 30);
        let acc = evaluate(&mut net, &images, &labels, 8).unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
        // Loss must decrease overall.
        assert!(history.last().unwrap().loss < history[0].loss);
    }

    #[test]
    fn predict_all_agrees_with_evaluate_at_any_thread_count() {
        let (mut net, images, labels) = toy_problem();
        let prior = cap_par::threads();
        cap_par::set_threads(1);
        let serial = predict_all(&mut net, &images, 5).unwrap();
        cap_par::set_threads(4);
        let parallel = predict_all(&mut net, &images, 5).unwrap();
        cap_par::set_threads(prior);
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), labels.len());
        let acc = evaluate(&mut net, &images, &labels, 5).unwrap();
        let agree = serial
            .iter()
            .zip(labels.iter())
            .filter(|(p, l)| p == l)
            .count();
        assert_eq!(agree as f64 / labels.len() as f64, acc);
        // Input validation mirrors evaluate's.
        let empty = Tensor::zeros(&[0, 1, 6, 6]);
        assert!(predict_all(&mut net, &empty, 5).is_err());
    }

    #[test]
    fn fit_emits_one_epoch_event_per_epoch_with_decaying_lr() {
        let _guard = cap_obs::test_lock();
        cap_obs::reset();
        let sink = cap_obs::sink::CaptureSink::new();
        let handle = sink.handle();
        cap_obs::set_sink(Box::new(sink));
        cap_obs::enable();

        let (mut net, images, labels) = toy_problem();
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 8,
            lr: 0.05,
            lr_decay: 0.9,
            regularizer: RegularizerConfig::none(),
            ..TrainConfig::default()
        };
        let history = fit(&mut net, &images, &labels, &cfg).unwrap();

        cap_obs::disable();
        cap_obs::reset();

        let epochs: Vec<cap_obs::json::Json> = handle
            .lines()
            .iter()
            .map(|l| cap_obs::json::parse(l).unwrap())
            .filter(|j| j.get("type").and_then(|t| t.as_str()) == Some("epoch"))
            .collect();
        assert_eq!(epochs.len(), cfg.epochs);
        let lrs: Vec<f64> = epochs
            .iter()
            .map(|e| e.get("lr").unwrap().as_f64().unwrap())
            .collect();
        assert!((lrs[0] - 0.05).abs() < 1e-6, "{lrs:?}");
        assert!(
            lrs.windows(2).all(|w| w[1] < w[0]),
            "lr must decay monotonically: {lrs:?}"
        );
        // Events mirror the returned history.
        for (e, h) in epochs.iter().zip(&history) {
            let loss = e.get("loss").unwrap().as_f64().unwrap();
            assert!((loss - h.loss).abs() < 1e-9);
            assert!(e.get("elapsed_secs").unwrap().as_f64().unwrap() >= 0.0);
            assert!(h.elapsed_secs >= 0.0);
        }
    }

    #[test]
    fn gather_batch_selects_samples() {
        let images = Tensor::from_fn(&[3, 1, 2, 2], |i| i as f32);
        let b = gather_batch(&images, &[2, 0]).unwrap();
        assert_eq!(b.shape(), &[2, 1, 2, 2]);
        assert_eq!(b.data()[0], 8.0);
        assert_eq!(b.data()[4], 0.0);
        assert!(gather_batch(&images, &[3]).is_err());
    }

    #[test]
    fn fit_validates_inputs() {
        let (mut net, images, _) = toy_problem();
        let cfg = TrainConfig::default();
        assert!(fit(&mut net, &images, &[0, 1], &cfg).is_err());
        assert!(evaluate(&mut net, &images, &[], 4).is_err());
    }

    /// Counter value from the global registry, 0 when absent.
    fn counter(name: &str) -> u64 {
        cap_obs::registry()
            .snapshot()
            .into_iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, m)| match m {
                cap_obs::Metric::Counter(c) => c,
                _ => 0,
            })
    }

    #[test]
    fn nan_grad_with_abort_policy_fails_fast() {
        let _guard = cap_obs::test_lock();
        cap_obs::reset();
        cap_obs::enable();
        cap_faults::set_spec(Some("nan_grad_at=step:2")).unwrap();
        let (mut net, images, labels) = toy_problem();
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            regularizer: RegularizerConfig::none(),
            ..TrainConfig::default()
        };
        let err = fit(&mut net, &images, &labels, &cfg).unwrap_err();
        assert_eq!(
            err,
            NnError::NumericFault {
                what: "grad",
                epoch: 0,
                batch: 1
            }
        );
        assert_eq!(counter("nn.numeric_faults_total"), 1);
        cap_faults::set_spec(None).unwrap();
        cap_obs::disable();
        cap_obs::reset();
    }

    #[test]
    fn nan_grad_with_skip_policy_drops_batch_and_trains_on() {
        let _guard = cap_obs::test_lock();
        cap_obs::reset();
        cap_obs::enable();
        cap_faults::set_spec(Some("nan_grad_at=step:3")).unwrap();
        let (mut net, images, labels) = toy_problem();
        let cfg = TrainConfig {
            epochs: 10,
            batch_size: 8,
            lr: 0.05,
            regularizer: RegularizerConfig::none(),
            fault_policy: FaultPolicy::SkipBatch { budget: 2 },
            ..TrainConfig::default()
        };
        let history = fit(&mut net, &images, &labels, &cfg).unwrap();
        assert_eq!(history.len(), 10);
        assert_eq!(counter("nn.numeric_faults_total"), 1);
        assert_eq!(counter("nn.fault_skipped_batches_total"), 1);
        // The model survived the poisoned batch: no NaN anywhere.
        let mut all_finite = true;
        net.visit_params_mut(&mut |w, _| {
            all_finite &= w.data().iter().all(|v| v.is_finite());
        });
        assert!(all_finite, "skip policy must keep weights finite");
        let acc = evaluate(&mut net, &images, &labels, 8).unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
        cap_faults::set_spec(None).unwrap();
        cap_obs::disable();
        cap_obs::reset();
    }

    #[test]
    fn nan_grad_with_restore_policy_halves_lr_and_recovers() {
        let _guard = cap_obs::test_lock();
        cap_obs::reset();
        cap_obs::enable();
        cap_faults::set_spec(Some("nan_grad_at=step:6")).unwrap();
        let (mut net, images, labels) = toy_problem();
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 8,
            lr: 0.04,
            lr_decay: 1.0,
            regularizer: RegularizerConfig::none(),
            fault_policy: FaultPolicy::RestoreAndHalveLr { budget: 2 },
            ..TrainConfig::default()
        };
        // Step 6 is batch 1 of epoch 1 (4 batches per epoch): the retry
        // replays epoch 1 from its boundary snapshot at lr 0.02.
        let history = fit(&mut net, &images, &labels, &cfg).unwrap();
        assert_eq!(history.len(), 3);
        assert_eq!(counter("nn.fault_restores_total"), 1);
        assert!((history[0].lr - 0.04).abs() < 1e-9);
        assert!(
            (history[1].lr - 0.02).abs() < 1e-9,
            "epoch stats must report the halved lr, got {}",
            history[1].lr
        );
        let mut all_finite = true;
        net.visit_params_mut(&mut |w, _| {
            all_finite &= w.data().iter().all(|v| v.is_finite());
        });
        assert!(all_finite, "restore policy must keep weights finite");
        cap_faults::set_spec(None).unwrap();
        cap_obs::disable();
        cap_obs::reset();
    }

    #[test]
    fn exhausted_budget_surfaces_the_fault() {
        let _guard = cap_obs::test_lock();
        cap_faults::set_spec(Some("nan_grad_at=step:1")).unwrap();
        let (mut net, images, labels) = toy_problem();
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 8,
            regularizer: RegularizerConfig::none(),
            fault_policy: FaultPolicy::SkipBatch { budget: 0 },
            ..TrainConfig::default()
        };
        assert!(matches!(
            fit(&mut net, &images, &labels, &cfg),
            Err(NnError::NumericFault { what: "grad", .. })
        ));
        cap_faults::set_spec(None).unwrap();
    }

    #[test]
    fn regularized_training_shrinks_l1_mass() {
        // fit reads the process-global fault spec and emits epoch
        // events, so it must not overlap the tests that set either.
        let _guard = cap_obs::test_lock();
        let (net, images, labels) = toy_problem();
        let mut plain = net.clone();
        let mut reg = net;
        let base = TrainConfig {
            epochs: 15,
            batch_size: 8,
            lr: 0.05,
            regularizer: RegularizerConfig::none(),
            ..TrainConfig::default()
        };
        let strong_l1 = TrainConfig {
            regularizer: RegularizerConfig {
                l1: 5e-3,
                orth: 0.0,
            },
            ..base
        };
        fit(&mut plain, &images, &labels, &base).unwrap();
        fit(&mut reg, &images, &labels, &strong_l1).unwrap();
        let mut l1_plain = 0.0;
        plain.visit_convs(&mut |c| l1_plain += c.weight().l1_norm());
        let mut l1_reg = 0.0;
        reg.visit_convs(&mut |c| l1_reg += c.weight().l1_norm());
        assert!(l1_reg < l1_plain, "{l1_reg} vs {l1_plain}");
    }
}
