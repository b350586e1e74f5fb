//! Thread-count determinism: the parallel execution layer must produce
//! bit-identical outputs, gradients and training trajectories for any
//! `CAP_THREADS` setting. These tests run the same computation under
//! `set_threads(1)` and `set_threads(4)` and compare raw bits.

use cap_nn::layer::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Relu, ResidualBlock};
use cap_nn::{
    check_gradients, evaluate, fit, CrossEntropyLoss, Network, Reduction, RegularizerConfig,
    TrainConfig,
};
use cap_tensor::Tensor;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// All tests in this binary mutate the process-global thread target, so
/// they serialise on one lock.
fn threads_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.data().iter().zip(b.data().iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

/// One conv geometry of the thread-count sweep: batch, input channels,
/// output channels, input side, stride.
struct ConvCase {
    what: &'static str,
    batch: usize,
    in_c: usize,
    out_c: usize,
    side: usize,
    stride: usize,
}

/// Conv forward output, input gradient and weight gradient must not
/// change a single bit between 1 and 4 threads. The input gradient runs
/// one GEMM per group of samples whose size follows the thread count,
/// so the cases cover group sizes that differ per thread count,
/// including groups that cross from the direct to the packed GEMM.
#[test]
fn conv_forward_backward_bit_identical_across_thread_counts() {
    let _guard = threads_lock();
    let prior = cap_par::threads();
    let cases = [
        // Batch 8 exceeds the 4-thread wave size, so the weight-gradient
        // reduce runs over multiple waves.
        ConvCase {
            what: "12x12 map, batch 8",
            batch: 8,
            in_c: 3,
            out_c: 24,
            side: 12,
            stride: 1,
        },
        // 4 columns per sample: groups of 10/5/4/3 at 1/2/3/4 threads.
        ConvCase {
            what: "2x2 map, batch 10",
            batch: 10,
            in_c: 16,
            out_c: 32,
            side: 2,
            stride: 1,
        },
        // 100 columns per sample: a group of 3 (1–3 threads) is 300
        // columns and takes the packed GEMM; a group of 2 (4 threads)
        // stays on the direct path.
        ConvCase {
            what: "10x10 map, batch 7",
            batch: 7,
            in_c: 8,
            out_c: 16,
            side: 10,
            stride: 1,
        },
        // Odd channel counts, as left by pruning, at stride 2.
        ConvCase {
            what: "odd channels 13->37, stride 2",
            batch: 6,
            in_c: 13,
            out_c: 37,
            side: 9,
            stride: 2,
        },
    ];
    for case in &cases {
        let x = cap_tensor::randn(
            &[case.batch, case.in_c, case.side, case.side],
            0.0,
            1.0,
            &mut rng(7),
        );
        let mut runs = Vec::new();
        for t in 1..=4usize {
            cap_par::set_threads(t);
            let mut conv =
                Conv2d::new(case.in_c, case.out_c, 3, case.stride, 1, true, &mut rng(11)).unwrap();
            let y = conv.forward(&x).unwrap();
            let g = Tensor::from_fn(y.shape(), |i| ((i as f32) * 0.013).sin());
            conv.zero_grad();
            let gin = conv.backward(&g).unwrap();
            let gw = conv.grad_weight().clone();
            // The input-only pass returns the same input gradient and
            // leaves the (sentinel-filled) weight gradient alone.
            conv.grad_weight_mut().fill(SENTINEL);
            let gin_only = conv.backward_input_only(&g).unwrap();
            assert_bits_eq(
                &gin_only,
                &gin,
                &format!("{}: input-only gradient", case.what),
            );
            assert!(
                conv.grad_weight().data().iter().all(|&v| v == SENTINEL),
                "{}: input-only pass wrote the weight gradient",
                case.what
            );
            runs.push((t, y, gin, gw));
        }
        let (_, y1, gin1, gw1) = &runs[0];
        for (t, y, gin, gw) in &runs[1..] {
            let what = format!("{} at {t} threads", case.what);
            assert_bits_eq(y1, y, &format!("{what}: conv forward output"));
            assert_bits_eq(gin1, gin, &format!("{what}: conv input gradient"));
            assert_bits_eq(gw1, gw, &format!("{what}: conv weight gradient"));
        }
    }
    cap_par::set_threads(prior);
}

const SENTINEL: f32 = -1234.5;

/// `Network::backward_input_only` returns exactly `backward`'s input
/// gradient through conv (with bias), batch-norm in both modes, a
/// residual block and a linear layer, and leaves every parameter
/// gradient untouched.
#[test]
fn network_input_only_backward_matches_full_and_skips_parameter_gradients() {
    let _guard = threads_lock();
    let prior = cap_par::threads();
    let mut r = rng(21);
    let mut net = Network::new();
    net.push(Conv2d::new(3, 6, 3, 1, 1, true, &mut r).unwrap());
    net.push(BatchNorm2d::new(6).unwrap());
    net.push(Relu::new());
    net.push(ResidualBlock::new(6, 10, 2, &mut r).unwrap());
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(10, 4, &mut r).unwrap());
    let x = cap_tensor::randn(&[5, 3, 8, 8], 0.0, 1.0, &mut rng(22));
    let labels = [0usize, 1, 2, 3, 1];
    for t in [1usize, 3] {
        cap_par::set_threads(t);
        for training in [false, true] {
            let what = format!("{t} threads, training={training}");
            let logits = net.forward(&x, training).unwrap();
            let grad = CrossEntropyLoss::new(Reduction::Sum)
                .forward(&logits, &labels)
                .unwrap()
                .grad;
            net.zero_grad();
            let full = net.backward(&grad).unwrap();
            net.visit_params_mut(&mut |_, g| g.fill(SENTINEL));
            let only = net.backward_input_only(&grad).unwrap();
            assert_bits_eq(&only, &full, &format!("{what}: input gradient"));
            net.visit_params_mut(&mut |_, g| {
                assert!(
                    g.data().iter().all(|&v| v == SENTINEL),
                    "{what}: input-only pass wrote a parameter gradient"
                );
            });
        }
    }
    cap_par::set_threads(prior);
}

fn toy_net(seed: u64) -> Network {
    let mut r = rng(seed);
    let mut net = Network::new();
    net.push(Conv2d::new(2, 6, 3, 1, 1, true, &mut r).unwrap());
    net.push(Relu::new());
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(6, 3, &mut r).unwrap());
    net
}

/// The analytic gradients must stay correct (vs finite differences) when
/// the pool is active.
#[test]
fn gradcheck_passes_under_the_pool() {
    let _guard = threads_lock();
    let prior = cap_par::threads();
    cap_par::set_threads(4);
    let mut net = toy_net(42);
    let x = cap_tensor::randn(&[3, 2, 6, 6], 0.0, 1.0, &mut rng(5));
    let loss = |logits: &Tensor| {
        let out = CrossEntropyLoss::new(Reduction::Mean)
            .forward(logits, &[0, 1, 2])
            .expect("valid logits");
        (out.value, out.grad)
    };
    let report = check_gradients(&mut net, &x, &loss, 6, 1e-2).unwrap();
    cap_par::set_threads(prior);
    assert!(report.checked > 10);
    assert!(report.passes(2e-2), "{report:?}");
}

/// A full training run — shuffles, forward, backward, SGD with momentum
/// — must land on bit-identical weights for any thread count.
#[test]
fn fit_produces_bit_identical_weights_across_thread_counts() {
    let _guard = threads_lock();
    let prior = cap_par::threads();
    let n = 24;
    let images = Tensor::from_fn(&[n, 2, 6, 6], |i| ((i as f32) * 0.0173).sin());
    let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 8,
        lr: 0.05,
        regularizer: RegularizerConfig::none(),
        ..TrainConfig::default()
    };
    let mut weight_snapshots = Vec::new();
    let mut accs = Vec::new();
    for t in [1usize, 4] {
        cap_par::set_threads(t);
        let mut net = toy_net(9);
        fit(&mut net, &images, &labels, &cfg).unwrap();
        let mut params = Vec::new();
        net.visit_params_mut(&mut |w, _| params.push(w.clone()));
        weight_snapshots.push(params);
        accs.push(evaluate(&mut net, &images, &labels, 5).unwrap());
    }
    cap_par::set_threads(prior);
    assert_eq!(weight_snapshots[0].len(), weight_snapshots[1].len());
    for (i, (a, b)) in weight_snapshots[0]
        .iter()
        .zip(weight_snapshots[1].iter())
        .enumerate()
    {
        assert_bits_eq(a, b, &format!("trained parameter {i}"));
    }
    assert_eq!(accs[0].to_bits(), accs[1].to_bits(), "evaluate accuracy");
}

/// Channel surgery is a pure permutation-select; parallel copies must
/// reproduce the serial result exactly.
#[test]
fn retain_channels_bit_identical_across_thread_counts() {
    let _guard = threads_lock();
    let prior = cap_par::threads();
    let keep_out: Vec<usize> = (0..32).step_by(3).collect();
    let keep_in: Vec<usize> = (0..16).filter(|i| i % 4 != 1).collect();
    let mut weights = Vec::new();
    for t in [1usize, 4] {
        cap_par::set_threads(t);
        let mut conv = Conv2d::new(16, 32, 3, 1, 1, true, &mut rng(3)).unwrap();
        conv.retain_output_channels(&keep_out).unwrap();
        conv.retain_input_channels(&keep_in).unwrap();
        weights.push(conv.weight().clone());
    }
    cap_par::set_threads(prior);
    assert_bits_eq(&weights[0], &weights[1], "pruned conv weight");
}

/// BatchNorm training statistics use per-sample partials combined by a
/// fixed-order tree reduction, so forward output, running stats and
/// backward gradients must be bit-identical for any thread count.
#[test]
fn batchnorm_forward_backward_bit_identical_across_thread_counts() {
    let _guard = threads_lock();
    let prior = cap_par::threads();
    // Batch 9: odd sample count exercises the ragged tree level.
    let x = cap_tensor::randn(&[9, 6, 7, 7], 0.0, 1.0, &mut rng(29));
    let g = Tensor::from_fn(&[9, 6, 7, 7], |i| ((i as f32) * 0.011).cos());
    let mut runs = Vec::new();
    for t in [1usize, 4] {
        cap_par::set_threads(t);
        let mut bn = cap_nn::layer::BatchNorm2d::new(6).unwrap();
        bn.gamma_mut()
            .data_mut()
            .iter_mut()
            .enumerate()
            .for_each(|(i, v)| *v = 0.5 + 0.25 * i as f32);
        let y = bn.forward(&x, true).unwrap();
        let gin = bn.backward(&g).unwrap();
        runs.push((y, gin, bn.grad_gamma().clone(), bn.running_mean().to_vec()));
    }
    cap_par::set_threads(prior);
    let (y1, gin1, gg1, rm1) = &runs[0];
    let (y4, gin4, gg4, rm4) = &runs[1];
    assert_bits_eq(y1, y4, "batchnorm forward");
    assert_bits_eq(gin1, gin4, "batchnorm input grad");
    assert_bits_eq(gg1, gg4, "batchnorm gamma grad");
    for (a, b) in rm1.iter().zip(rm4.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "running mean differs");
    }
}
