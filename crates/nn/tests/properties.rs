//! Property-based tests on layer and loss invariants.

use cap_nn::layer::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, MaxPool2d, Relu};
use cap_nn::{CrossEntropyLoss, Reduction};
use cap_tensor::Tensor;
use proptest::prelude::*;
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn conv_is_linear_in_input(
        seed in 0u64..500,
        in_c in 1usize..3,
        out_c in 1usize..4,
        hw in 3usize..7,
        s in -2.0f32..2.0,
    ) {
        // conv(a·x + y) == a·conv(x) + conv(y) for bias-free convs.
        let mut conv = Conv2d::new(in_c, out_c, 3, 1, 1, false, &mut rng(seed)).unwrap();
        let x = cap_tensor::randn(&[1, in_c, hw, hw], 0.0, 1.0, &mut rng(seed + 1));
        let y = cap_tensor::randn(&[1, in_c, hw, hw], 0.0, 1.0, &mut rng(seed + 2));
        let mut combo = x.map(|v| v * s);
        combo.axpy(1.0, &y).unwrap();
        let lhs = conv.forward(combo).unwrap();
        let cx = conv.forward(x).unwrap();
        let cy = conv.forward(y).unwrap();
        for ((l, a), b) in lhs.data().iter().zip(cx.data()).zip(cy.data()) {
            prop_assert!((l - (s * a + b)).abs() < 1e-3, "{l} vs {}", s * a + b);
        }
    }

    #[test]
    fn relu_output_is_idempotent_fixed_point(values in proptest::collection::vec(-5.0f32..5.0, 1..64)) {
        let n = values.len();
        let x = Tensor::from_vec(vec![n], values).unwrap();
        let mut relu = Relu::new();
        let once = relu.forward(x);
        let twice = relu.forward(once.clone());
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn maxpool_never_exceeds_input_max(
        seed in 0u64..500,
        c in 1usize..3,
        hw in 4usize..9,
    ) {
        let x = cap_tensor::randn(&[1, c, hw, hw], 0.0, 2.0, &mut rng(seed));
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        let y = pool.forward(&x).unwrap();
        let in_max = cap_tensor::max_all(&x).unwrap();
        let out_max = cap_tensor::max_all(&y).unwrap();
        prop_assert!(out_max <= in_max + 1e-6);
    }

    #[test]
    fn gap_output_within_input_range(
        seed in 0u64..500,
        c in 1usize..4,
        hw in 2usize..8,
    ) {
        let x = cap_tensor::randn(&[2, c, hw, hw], 0.0, 1.0, &mut rng(seed));
        let mut gap = GlobalAvgPool::new();
        let y = gap.forward(&x).unwrap();
        let lo = -cap_tensor::max_all(&x.map(|v| -v)).unwrap();
        let hi = cap_tensor::max_all(&x).unwrap();
        for &v in y.data() {
            prop_assert!(v >= lo - 1e-5 && v <= hi + 1e-5);
        }
    }

    #[test]
    fn cross_entropy_nonnegative_and_grad_rows_sum_to_zero(
        seed in 0u64..500,
        n in 1usize..6,
        c in 2usize..8,
    ) {
        let logits = cap_tensor::randn(&[n, c], 0.0, 3.0, &mut rng(seed));
        let labels: Vec<usize> = (0..n).map(|i| i % c).collect();
        let out = CrossEntropyLoss::new(Reduction::Mean)
            .forward(&logits, &labels)
            .unwrap();
        prop_assert!(out.value >= 0.0);
        // Each gradient row sums to zero (softmax minus one-hot).
        for r in 0..n {
            let sum: f32 = (0..c).map(|j| out.grad.at2(r, j)).sum();
            prop_assert!(sum.abs() < 1e-5, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn batchnorm_train_output_is_scale_invariant(
        seed in 0u64..500,
        scale in 0.5f32..4.0,
    ) {
        // BN(x) == BN(s·x) in training mode (per-batch normalisation).
        let x = cap_tensor::randn(&[4, 2, 3, 3], 1.0, 2.0, &mut rng(seed));
        let xs = x.map(|v| v * scale);
        let mut bn1 = BatchNorm2d::new(2).unwrap();
        let mut bn2 = BatchNorm2d::new(2).unwrap();
        let a = bn1.forward(x, true).unwrap();
        let b = bn2.forward(xs, true).unwrap();
        for (p, q) in a.data().iter().zip(b.data()) {
            prop_assert!((p - q).abs() < 1e-3, "{p} vs {q}");
        }
    }

    #[test]
    fn linear_pruned_inputs_match_masked_dense(
        seed in 0u64..500,
        in_f in 3usize..8,
        out_f in 1usize..5,
    ) {
        // Keeping a subset of input features == zeroing the dropped ones.
        let mut dense = Linear::new(in_f, out_f, &mut rng(seed)).unwrap();
        let mut pruned = dense.clone();
        let keep: Vec<usize> = (0..in_f).step_by(2).collect();
        pruned.retain_input_features(&keep).unwrap();

        let x = cap_tensor::randn(&[2, in_f], 0.0, 1.0, &mut rng(seed + 1));
        let mut x_masked = x.clone();
        for r in 0..2 {
            for f in 0..in_f {
                if !keep.contains(&f) {
                    x_masked.set2(r, f, 0.0);
                }
            }
        }
        let mut x_kept = Tensor::zeros(&[2, keep.len()]);
        for r in 0..2 {
            for (j, &f) in keep.iter().enumerate() {
                x_kept.set2(r, j, x.at2(r, f));
            }
        }
        let dense_out = dense.forward(x_masked).unwrap();
        let pruned_out = pruned.forward(x_kept).unwrap();
        for (a, b) in dense_out.data().iter().zip(pruned_out.data()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }
}
