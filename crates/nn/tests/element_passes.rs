//! The layers' element passes give the same bits in every frame.
//!
//! `cap_tensor::run_pass` runs BatchNorm, ReLU, pooling and the SGD
//! update in the plain build under `CAP_SIMD=scalar` and in a frame
//! compiled for AVX2 (AVX-512 on an avx512f host) under `Avx2`. Each
//! test runs one layer on the same inputs under both pins and compares
//! every output bit; where both results are NaN, the payloads may
//! differ. The inputs mix NaNs of both signs and two payloads, ±0, ±∞,
//! the smallest subnormals and values next to ±1.
//! The wide frames are vector code only in an optimised build, so CI
//! also runs this file with `--release`.
//!
//! `set_simd_mode` is process-global, so every test holds `MODE_LOCK`.

use std::sync::Mutex;

use cap_nn::layer::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, MaxPool2d, Relu};
use cap_nn::{Network, Sgd};
use cap_tensor::{set_simd_mode, SimdMode, Tensor};
use rand::SeedableRng;

static MODE_LOCK: Mutex<()> = Mutex::new(());

/// NaNs (both signs, two payloads), ±0, ±∞, the smallest subnormals and
/// the neighbours of ±1, as bit patterns.
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

/// The finite entries of [`SPECIALS`].
const FINITE: [u32; 10] = [
    0x0000_0000,
    0x8000_0000,
    0x0000_0001,
    0x8000_0001,
    0x3f7f_ffff,
    0x3f80_0000,
    0x3f80_0001,
    0xbf7f_ffff,
    0xbf80_0000,
    0xbf80_0001,
];

/// The lengths every pass runs at: each vector tail from 1 to 17 lanes,
/// and 67.
fn lengths() -> impl Iterator<Item = usize> {
    (1..=17).chain([67])
}

/// `len` values cycling through `table`, starting at entry `shift`, with
/// a stride coprime to the table length so neighbours differ.
fn cycle(table: &[u32], len: usize, shift: usize) -> Vec<f32> {
    (0..len)
        .map(|i| f32::from_bits(table[(i * 7 + shift) % table.len()]))
        .collect()
}

fn tensor(shape: &[usize], values: Vec<f32>) -> Tensor {
    Tensor::from_vec(shape.to_vec(), values).unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` under the `Scalar` pin (the plain build) and under `Avx2`
/// (the wide frame) and asserts both return the same bits, except that
/// two NaNs may differ: which operand's NaN survives when two NaNs meet
/// in one addition or multiplication is not pinned (see
/// `cap_tensor::ElementPass`). Without AVX2 there is no wide frame, and
/// the test passes vacuously.
fn assert_frames_agree(what: &str, f: impl Fn() -> Vec<Vec<u32>>) {
    let _guard = MODE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    set_simd_mode(SimdMode::Scalar).unwrap();
    let plain = f();
    if set_simd_mode(SimdMode::Avx2).is_err() {
        return;
    }
    let wide = f();
    set_simd_mode(SimdMode::Scalar).unwrap();
    assert_eq!(plain.len(), wide.len(), "{what}");
    for (k, (p, w)) in plain.iter().zip(&wide).enumerate() {
        assert_eq!(p.len(), w.len(), "{what}: output {k}");
        let nan = |b: u32| f32::from_bits(b).is_nan();
        if let Some(i) = (0..p.len()).find(|&i| p[i] != w[i] && !(nan(p[i]) && nan(w[i]))) {
            panic!(
                "{what}: output {k}, element {i}: plain {:#010x}, wide {:#010x}",
                p[i], w[i]
            );
        }
    }
}

/// BatchNorm in training and eval mode, under `Grads::InputOnly` and
/// `Grads::Full`: the output, the input gradient and γ/β's gradients.
/// Channel 0 holds every special value, so its batch statistics are NaN
/// in training; channel 1 only finite ones.
#[test]
fn batchnorm_forward_and_backward_match_across_frames() {
    for plane in lengths() {
        for n in [1, 3] {
            let shape = [n, 2, 1, plane];
            let x: Vec<f32> = (0..n)
                .flat_map(|s| [cycle(&SPECIALS, plane, s), cycle(&FINITE, plane, s + 1)])
                .flatten()
                .collect();
            let g = cycle(&SPECIALS, 2 * n * plane, 3);
            for training in [true, false] {
                for full in [true, false] {
                    assert_frames_agree(
                        &format!("BatchNorm [{n}, 2, 1, {plane}] training={training} full={full}"),
                        || {
                            let bn = BatchNorm2d::from_parts(
                                tensor(&[2], vec![0.75, -1.25]),
                                tensor(&[2], vec![0.5, -0.125]),
                                vec![0.25, -0.5],
                                vec![1.5, 0.75],
                            )
                            .unwrap();
                            let mut net = Network::new();
                            net.push(bn);
                            let y = net.forward(&tensor(&shape, x.clone()), training).unwrap();
                            let g = tensor(&shape, g.clone());
                            let gin = if full {
                                net.backward(&g).unwrap()
                            } else {
                                net.backward_input_only(&g).unwrap()
                            };
                            let mut out = vec![bits(&y), bits(&gin)];
                            net.visit_params_mut(&mut |_, grad| out.push(bits(grad)));
                            out
                        },
                    );
                }
            }
        }
    }
}

/// ReLU forward and backward over every pairing of an input with a
/// gradient from the table.
#[test]
fn relu_forward_and_backward_match_across_frames() {
    for len in lengths() {
        for shift in 0..SPECIALS.len() {
            assert_frames_agree(&format!("Relu len {len} shift {shift}"), || {
                let mut relu = Relu::new();
                let y = relu.forward(tensor(&[len], cycle(&SPECIALS, len, 0)));
                let g = relu
                    .backward(tensor(&[len], cycle(&SPECIALS, len, shift)))
                    .unwrap();
                vec![bits(&y), bits(&g)]
            });
        }
    }
}

/// −0.0, like every input that is not positive, maps to +0.0 and leaves
/// the mask off, in both frames.
#[test]
fn relu_maps_negative_zero_to_positive_zero_in_both_frames() {
    for len in lengths() {
        assert_frames_agree(&format!("Relu −0.0 len {len}"), || {
            let mut relu = Relu::new();
            let y = relu.forward(Tensor::full(&[len], -0.0));
            assert!(bits(&y).iter().all(|&b| b == 0), "−0.0 must become +0.0");
            let g = relu.backward(Tensor::ones(&[len])).unwrap();
            assert!(bits(&g).iter().all(|&b| b == 0), "the mask must be off");
            vec![bits(&y), bits(&g)]
        });
    }
}

/// Max-pool forward (the maxima, and through the backward the argmax)
/// and backward, with 2×2 windows at stride 2 and overlapping 3×3
/// windows at stride 1. Ties between +0 and −0 keep the first element.
#[test]
fn maxpool_forward_and_backward_match_across_frames() {
    for w in (3..=17).chain([67]) {
        for (kernel, stride) in [(2, 2), (3, 1)] {
            for shift in 0..SPECIALS.len() {
                let shape = [2, 1, 3, w];
                let x = cycle(&SPECIALS, 6 * w, shift);
                assert_frames_agree(
                    &format!("MaxPool {kernel}/{stride} w {w} shift {shift}"),
                    || {
                        let mut pool = MaxPool2d::new(kernel, stride).unwrap();
                        let y = pool.forward(&tensor(&shape, x.clone())).unwrap();
                        let g = cycle(&SPECIALS, y.numel(), shift + 5);
                        let gin = pool.backward(&tensor(y.shape(), g)).unwrap();
                        vec![bits(&y), bits(&gin)]
                    },
                );
            }
        }
    }
    // Zeros only: the first of equal zeros wins, whatever its sign.
    assert_frames_agree("MaxPool ±0", || {
        let x = vec![-0.0, 0.0, 0.0, -0.0, -0.0, -0.0, 0.0, 0.0];
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        let y = pool.forward(&tensor(&[2, 1, 2, 2], x)).unwrap();
        assert_eq!(bits(&y), [0x8000_0000, 0x8000_0000]);
        vec![bits(&y)]
    });
}

/// Global average pooling forward and backward.
#[test]
fn global_avg_pool_matches_across_frames() {
    for plane in lengths() {
        for shift in 0..SPECIALS.len() {
            assert_frames_agree(
                &format!("GlobalAvgPool plane {plane} shift {shift}"),
                || {
                    let mut gap = GlobalAvgPool::new();
                    let x = tensor(&[2, 3, 1, plane], cycle(&SPECIALS, 6 * plane, shift));
                    let y = gap.forward(&x).unwrap();
                    let g = gap
                        .backward(&tensor(&[2, 3], cycle(&SPECIALS, 6, shift + 1)))
                        .unwrap();
                    vec![bits(&y), bits(&g)]
                },
            );
        }
    }
}

/// Two SGD steps (the second reads the velocities) over a conv weight,
/// which takes weight decay, and BatchNorm and linear parameters, over
/// every pairing of a parameter with a gradient from the table.
#[test]
fn sgd_update_matches_across_frames() {
    for shift in 0..SPECIALS.len() {
        assert_frames_agree(&format!("Sgd shift {shift}"), || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let mut net = Network::new();
            net.push(Conv2d::new(2, 3, 3, 1, 1, true, &mut rng).unwrap());
            net.push(BatchNorm2d::new(3).unwrap());
            net.push(Linear::new(17, 4, &mut rng).unwrap());
            let mut sgd = Sgd::new(0.1, 0.9, 5e-4).unwrap();
            let mut out = Vec::new();
            for step in 0..2 {
                let mut k = 0;
                net.visit_params_mut(&mut |w, g| {
                    if step == 0 {
                        let len = w.numel();
                        w.data_mut().copy_from_slice(&cycle(&SPECIALS, len, k));
                    }
                    let len = g.numel();
                    g.data_mut()
                        .copy_from_slice(&cycle(&SPECIALS, len, k + shift + step));
                    k += 1;
                });
                sgd.step(&mut net);
                net.visit_params_mut(&mut |w, _| out.push(bits(w)));
            }
            out
        });
    }
}
