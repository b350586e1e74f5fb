//! Cross-crate numerical validation: the layer-level convolution in
//! `cap-nn` must agree with the Toeplitz-matrix construction of the
//! paper's Fig. 2 in `cap-tensor`, and the exact Toeplitz orthogonality
//! residual must vanish whenever the kernel-gram relaxation used in
//! training vanishes for 1x1 convolutions (where the two coincide up to
//! output-position duplication).

use cap_nn::layer::Conv2d;
use cap_tensor::toeplitz::{conv2d_via_toeplitz, orthogonality_residual_norm};
use cap_tensor::{Conv2dGeometry, Tensor};
use rand::SeedableRng;

#[test]
fn nn_conv_matches_toeplitz_reference() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(100);
    for &(in_c, out_c, k, stride, pad, hw) in &[
        (1usize, 1usize, 1usize, 1usize, 0usize, 4usize),
        (2, 3, 3, 1, 1, 6),
        (3, 2, 3, 2, 1, 7),
        (2, 4, 2, 2, 0, 6),
    ] {
        let mut conv =
            Conv2d::new(in_c, out_c, k, stride, pad, false, &mut rng).expect("valid conv");
        let x = cap_tensor::randn(&[1, in_c, hw, hw], 0.0, 1.0, &mut rng);
        let via_layer = conv.forward(x.clone()).expect("forward");
        let geom = Conv2dGeometry::new(in_c, out_c, k, stride, pad, hw, hw).expect("geometry");
        let via_matrix = conv2d_via_toeplitz(&x, conv.weight(), &geom).expect("toeplitz conv");
        assert_eq!(via_layer.shape(), via_matrix.shape());
        for (a, b) in via_layer.data().iter().zip(via_matrix.data()) {
            assert!(
                (a - b).abs() < 1e-4,
                "mismatch for ({in_c},{out_c},{k},{stride},{pad},{hw}): {a} vs {b}"
            );
        }
    }
}

#[test]
fn kernel_gram_zero_implies_toeplitz_gram_structured() {
    // For a 1x1 convolution over a 1x1 input, the Toeplitz matrix *is*
    // the flattened kernel matrix, so the exact Eq. 2 residual and the
    // kernel-gram relaxation agree.
    let w = Tensor::from_vec(vec![2, 2, 1, 1], vec![1.0, 0.0, 0.0, 1.0]).expect("weight");
    let geom = Conv2dGeometry::new(2, 2, 1, 1, 0, 1, 1).expect("geometry");
    let exact = orthogonality_residual_norm(&w, &geom).expect("residual");
    let relaxed = cap_nn::kernel_gram_residual_sq(&w).sqrt();
    assert!(exact < 1e-6);
    assert!(relaxed < 1e-6);

    let w2 = Tensor::from_vec(vec![2, 2, 1, 1], vec![1.0, 1.0, 1.0, 1.0]).expect("weight");
    let exact2 = orthogonality_residual_norm(&w2, &geom).expect("residual");
    let relaxed2 = cap_nn::kernel_gram_residual_sq(&w2).sqrt();
    assert!((exact2 - relaxed2).abs() < 1e-5, "{exact2} vs {relaxed2}");
}

#[test]
fn facade_reexports_are_usable() {
    // The facade crate exposes the whole workspace under one name.
    use class_aware_pruning::tensor::Tensor as FacadeTensor;
    let t = FacadeTensor::zeros(&[2, 2]);
    assert_eq!(t.numel(), 4);
    let spec = class_aware_pruning::data::DatasetSpec::cifar10_like();
    assert_eq!(spec.classes, 10);
}
