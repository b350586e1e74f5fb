//! The conv entry points against the lowering, bit for bit.
//!
//! [`conv_forward`] and [`conv_input_grad`] run direct kernels over
//! zero-padded windows on stride-1 convs whose per-sample GEMM takes
//! the selector's direct path, and the lowering everywhere else. Either
//! way each result must equal `im2col` + `matmul` (forward) and
//! `matmul_transpose_a` + `col2im` (input gradient) bit for bit, in
//! every `CAP_SIMD` mode this host can run.
//!
//! `set_simd_mode` is process-global, so every test that flips it
//! holds `MODE_LOCK`.

use std::sync::Mutex;

use cap_tensor::{
    col2im, conv_forward, conv_input_grad, im2col, matmul, matmul_transpose_a, set_simd_mode,
    Conv2dGeometry, SimdMode, Tensor,
};

static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` under every mode this host can run.
fn for_each_mode(mut f: impl FnMut(SimdMode)) {
    let _guard = MODE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for mode in [SimdMode::Scalar, SimdMode::Avx2] {
        if set_simd_mode(mode).is_ok() {
            f(mode);
        }
    }
    set_simd_mode(SimdMode::Scalar).unwrap();
}

/// Values with exact `+0.0` and `-0.0` mixed in, as ReLU gating leaves
/// them in activations and output gradients.
fn gated(len: usize, seed: f32) -> Vec<f32> {
    (0..len)
        .map(|i| match i % 7 {
            2 => 0.0,
            5 => -0.0,
            _ => ((i as f32) * seed).sin() * (1.0 + (i % 3) as f32),
        })
        .collect()
}

struct Case {
    what: &'static str,
    batch: usize,
    in_c: usize,
    out_c: usize,
    side: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
}

const fn case(
    what: &'static str,
    in_c: usize,
    out_c: usize,
    side: usize,
    kernel: usize,
    padding: usize,
) -> Case {
    Case {
        what,
        batch: 3,
        in_c,
        out_c,
        side,
        kernel,
        stride: 1,
        padding,
    }
}

const CASES: &[Case] = &[
    // The score workload's ResNet56 shapes (width 0.25, 16×16 images).
    case("3->4 at 16x16", 3, 4, 16, 3, 1),
    case("4->4 at 16x16", 4, 4, 16, 3, 1),
    case("8->8 at 8x8", 8, 8, 8, 3, 1),
    case("16->16 at 4x4", 16, 16, 4, 3, 1),
    // Odd counts left by pruning, and the smallest map.
    case("13->37 at 9x9", 13, 37, 9, 3, 1),
    case("1->1 at 1x1", 1, 1, 1, 3, 1),
    case("16->32 at 2x2", 16, 32, 2, 3, 1),
    case("1x1 kernel, no padding", 8, 16, 8, 1, 0),
    case("3x3 kernel, no padding", 5, 6, 7, 3, 0),
    case("5x5 kernel, padding 2", 3, 5, 9, 5, 2),
    // Both sides of the direct-path size rule.
    case("K = 252", 28, 8, 6, 3, 1),
    case("K = 261", 29, 8, 6, 3, 1),
    case("M = 256", 2, 256, 4, 3, 1),
    case("M = 257", 2, 257, 4, 3, 1),
    case("N = 256", 2, 4, 16, 3, 1),
    case("N = 289", 2, 4, 17, 3, 1),
    // Every tile of the dX kernel (2 input channels × 3 vectors at
    // most): 1, 3 and 5 input channels leave a 1-channel tile or none,
    // and 6×6, 7×7 and 8×8 inputs make rows of 6, 8 and 10 vectors,
    // whose last tile holds 3, 2 and 1 of them.
    case("dX tiles: 1 channel, 6x6", 1, 4, 6, 3, 1),
    case("dX tiles: 1 channel, 7x7", 1, 4, 7, 3, 1),
    case("dX tiles: 1 channel, 8x8", 1, 4, 8, 3, 1),
    case("dX tiles: 3 channels, 6x6", 3, 5, 6, 3, 1),
    case("dX tiles: 3 channels, 7x7", 3, 5, 7, 3, 1),
    case("dX tiles: 3 channels, 8x8", 3, 5, 8, 3, 1),
    case("dX tiles: 5 channels, 6x6", 5, 3, 6, 3, 1),
    case("dX tiles: 5 channels, 7x7", 5, 3, 7, 3, 1),
    case("dX tiles: 5 channels, 8x8", 5, 3, 8, 3, 1),
    // Strided and over-padded convs stay on the lowering.
    Case {
        what: "stride 2",
        batch: 3,
        in_c: 13,
        out_c: 37,
        side: 9,
        kernel: 3,
        stride: 2,
        padding: 1,
    },
    case("padding = kernel", 2, 3, 4, 2, 2),
];

impl Case {
    fn geom(&self) -> Conv2dGeometry {
        Conv2dGeometry::new(
            self.in_c,
            self.out_c,
            self.kernel,
            self.stride,
            self.padding,
            self.side,
            self.side,
        )
        .unwrap()
    }
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what} element {i}: {a} vs {b}");
    }
}

/// Sample `s` of the forward through the lowering: `W · im2col(x_s)`.
fn lowered_forward(c: &Case, x: &Tensor, weight: &[f32], s: usize) -> Tensor {
    let g = c.geom();
    let wmat = Tensor::from_vec(vec![c.out_c, g.col_rows()], weight.to_vec()).unwrap();
    matmul(&wmat, &im2col(x, s, &g).unwrap()).unwrap()
}

/// The input gradient of every sample through the lowering:
/// `col2im(Wᵀ · g_s)`.
fn lowered_input_grad(c: &Case, grad_out: &[f32], weight: &[f32]) -> Tensor {
    let g = c.geom();
    let wmat = Tensor::from_vec(vec![c.out_c, g.col_rows()], weight.to_vec()).unwrap();
    let per_out = c.out_c * g.col_cols();
    let mut want = Tensor::zeros(&[c.batch, c.in_c, c.side, c.side]);
    for s in 0..c.batch {
        let gs = Tensor::from_vec(
            vec![c.out_c, g.col_cols()],
            grad_out[s * per_out..][..per_out].to_vec(),
        )
        .unwrap();
        col2im(&matmul_transpose_a(&wmat, &gs).unwrap(), &mut want, s, &g).unwrap();
    }
    want
}

#[test]
fn forward_matches_im2col_and_matmul_bit_for_bit() {
    for_each_mode(|mode| {
        for c in CASES {
            let g = c.geom();
            let x = Tensor::from_vec(
                vec![c.batch, c.in_c, c.side, c.side],
                gated(c.batch * c.in_c * c.side * c.side, 0.37),
            )
            .unwrap();
            let weight = gated(c.out_c * g.col_rows(), 0.71);
            let per_in = c.in_c * c.side * c.side;
            let per_out = c.out_c * g.col_cols();
            let want: Vec<Tensor> = (0..c.batch)
                .map(|s| lowered_forward(c, &x, &weight, s))
                .collect();
            // Stale, NaN-filled outputs must be overwritten, by one call
            // per sample and by one call over the whole batch.
            for (s, want) in want.iter().enumerate() {
                let mut got = vec![f32::NAN; per_out];
                conv_forward(&x.data()[s * per_in..][..per_in], &weight, &g, &mut got).unwrap();
                let what = format!("{} forward, sample {s}, {}", c.what, mode.name());
                assert_bits(&got, want.data(), &what);
            }
            let mut got = vec![f32::NAN; c.batch * per_out];
            conv_forward(x.data(), &weight, &g, &mut got).unwrap();
            for (s, (got, want)) in got.chunks(per_out).zip(&want).enumerate() {
                let what = format!("{} batch forward, sample {s}, {}", c.what, mode.name());
                assert_bits(got, want.data(), &what);
            }
        }
    });
}

#[test]
fn input_grad_matches_matmul_transpose_a_and_col2im_bit_for_bit() {
    for_each_mode(|mode| {
        for c in CASES {
            let g = c.geom();
            let grad_out = gated(c.batch * c.out_c * g.col_cols(), 0.53);
            let weight = gated(c.out_c * g.col_rows(), 0.29);
            let want = lowered_input_grad(c, &grad_out, &weight);
            let mut got = vec![f32::NAN; want.numel()];
            conv_input_grad(&grad_out, &weight, &g, &mut got).unwrap();
            let what = format!("{} input gradient, {}", c.what, mode.name());
            assert_bits(&got, want.data(), &what);
        }
    });
}

#[test]
fn alternating_geometries_on_one_thread_match_the_lowering() {
    // The direct kernels keep a per-thread padded buffer, zeroed only
    // when its layout changes, and window offsets rebuilt only when the
    // geometry changes. One-sample calls run on this thread, so each
    // step below sees what the previous one left: a new geometry with
    // the same padded layout, a smaller layout (stale interior values
    // would land in its halo), then forward, dX and forward again.
    let single = |what, in_c, out_c, side| Case {
        batch: 1,
        ..case(what, in_c, out_c, side, 3, 1)
    };
    let a = single("3->4 at 8x8", 3, 4, 8);
    let same_layout = single("3->6 at 8x8", 3, 6, 8);
    let smaller = single("2->3 at 5x5", 2, 3, 5);
    let steps = [
        (&a, false),
        (&same_layout, false),
        (&smaller, false),
        (&a, false),
        (&a, true),
        (&smaller, true),
        (&a, false),
        (&smaller, false),
    ];
    for_each_mode(|mode| {
        for (i, &(c, dx)) in steps.iter().enumerate() {
            let g = c.geom();
            let seed = 0.1 + i as f32 * 0.07;
            let weight = gated(c.out_c * g.col_rows(), seed + 0.5);
            let what = format!("step {i}: {} dx={dx}, {}", c.what, mode.name());
            if dx {
                let grad_out = gated(c.out_c * g.col_cols(), seed);
                let want = lowered_input_grad(c, &grad_out, &weight);
                let mut got = vec![f32::NAN; want.numel()];
                conv_input_grad(&grad_out, &weight, &g, &mut got).unwrap();
                assert_bits(&got, want.data(), &what);
            } else {
                let x = Tensor::from_vec(
                    vec![1, c.in_c, c.side, c.side],
                    gated(c.in_c * c.side * c.side, seed),
                )
                .unwrap();
                let mut got = vec![f32::NAN; c.out_c * g.col_cols()];
                conv_forward(x.data(), &weight, &g, &mut got).unwrap();
                assert_bits(&got, lowered_forward(c, &x, &weight, 0).data(), &what);
            }
        }
    });
}

#[test]
fn entry_points_reject_slices_that_disagree_with_the_geometry() {
    let g = Conv2dGeometry::new(2, 3, 3, 1, 1, 4, 4).unwrap();
    let w = vec![0.0; 3 * 2 * 9];
    let mut out = vec![0.0; 3 * 16];
    assert!(conv_forward(&[0.0; 31], &w, &g, &mut out).is_err());
    assert!(conv_forward(&[0.0; 32], &w[1..], &g, &mut out).is_err());
    assert!(conv_forward(&[0.0; 32], &w, &g, &mut out[1..]).is_err());
    // A batch of 2: the input must hold as many samples as the output.
    let mut out = vec![0.0; 2 * 48];
    assert!(conv_forward(&[0.0; 2 * 32 - 1], &w, &g, &mut out).is_err());
    assert!(conv_forward(&[0.0; 3 * 32], &w, &g, &mut out).is_err());
    assert!(conv_forward(&[0.0; 2 * 32], &w, &g, &mut out[1..]).is_err());
    assert!(conv_forward(&[0.0; 2 * 32], &w, &g, &mut out).is_ok());
    let mut gin = vec![0.0; 2 * 32];
    assert!(conv_input_grad(&[0.0; 2 * 48], &w, &g, &mut gin[1..]).is_err());
    assert!(conv_input_grad(&[0.0; 2 * 48 - 1], &w, &g, &mut gin).is_err());
    assert!(conv_input_grad(&[0.0; 2 * 48], &w, &g, &mut gin).is_ok());
}
