//! Convolution: the im2col/col2im lowering, and the two conv entry
//! points ([`conv_forward`], [`conv_input_grad`]) that pick, per
//! geometry, between direct kernels over zero-padded windows and the
//! lowering followed by a GEMM.

use std::cell::{Cell, RefCell};

use crate::gemm::{gemm, MatRef};
use crate::select;
use crate::simd::{self, SimdMode};
use crate::{Tensor, TensorError};

/// Spatial output size of a convolution along one axis.
///
/// # Errors
///
/// Returns [`TensorError::InvalidGeometry`] when the kernel does not fit
/// the padded input or the stride is zero.
pub fn conv_output_size(
    input: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Result<usize, TensorError> {
    if stride == 0 {
        return Err(TensorError::InvalidGeometry {
            reason: "stride must be non-zero".to_string(),
        });
    }
    let padded = input + 2 * padding;
    if kernel == 0 || kernel > padded {
        return Err(TensorError::InvalidGeometry {
            reason: format!("kernel {kernel} does not fit padded input {padded}"),
        });
    }
    Ok((padded - kernel) / stride + 1)
}

/// Geometry of a 2-D convolution: channel counts, kernel size, stride and
/// padding, plus the derived output size.
///
/// # Example
///
/// ```
/// use cap_tensor::Conv2dGeometry;
/// # fn main() -> Result<(), cap_tensor::TensorError> {
/// let g = Conv2dGeometry::new(3, 8, 3, 1, 1, 16, 16)?;
/// assert_eq!((g.out_h, g.out_w), (16, 16));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel (filter) count.
    pub out_channels: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding in both spatial dimensions.
    pub padding: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Conv2dGeometry {
    /// Validates and constructs a convolution geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if any dimension is zero or
    /// the kernel does not fit the padded input.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        in_h: usize,
        in_w: usize,
    ) -> Result<Self, TensorError> {
        if in_channels == 0 || out_channels == 0 {
            return Err(TensorError::InvalidGeometry {
                reason: "channel counts must be non-zero".to_string(),
            });
        }
        let out_h = conv_output_size(in_h, kernel, stride, padding)?;
        let out_w = conv_output_size(in_w, kernel, stride, padding)?;
        Ok(Conv2dGeometry {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            in_h,
            in_w,
            out_h,
            out_w,
        })
    }

    /// Number of rows of the im2col matrix: `in_channels * kernel²`.
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Number of columns of the im2col matrix: `out_h * out_w`.
    pub fn col_cols(&self) -> usize {
        self.out_h * self.out_w
    }
}

/// One contiguous run of the im2col lowering: row `row` of the column
/// matrix holds, at columns `col .. col + len` (one output row), the
/// input elements at `offset + j · stride` for `j in 0..len`, where
/// `offset` indexes one sample's `[in_channels, in_h, in_w]` slice.
struct Run {
    row: usize,
    col: usize,
    len: usize,
    offset: usize,
}

/// Output positions `lo..hi` along one axis whose kernel tap `t` lands
/// inside the input: `0 ≤ o · stride + t − padding < input`.
fn valid_range(
    out: usize,
    input: usize,
    t: usize,
    stride: usize,
    padding: usize,
) -> (usize, usize) {
    let lo = padding.saturating_sub(t).div_ceil(stride);
    let hi = (input + padding)
        .saturating_sub(t)
        .div_ceil(stride)
        .min(out);
    (lo, hi.max(lo))
}

/// Visits every non-empty [`Run`] of `geom` in `(c, kh, kw, oh)` order,
/// the loop order of the element-wise lowering, so an accumulating
/// scatter adds into each input element in the same sequence. Padding
/// taps form no run.
fn for_each_run(geom: &Conv2dGeometry, mut f: impl FnMut(Run)) {
    let (k, s, p) = (geom.kernel, geom.stride, geom.padding);
    // The valid ranges depend only on the tap, not the channel.
    let oh_ranges: Vec<(usize, usize)> = (0..k)
        .map(|kh| valid_range(geom.out_h, geom.in_h, kh, s, p))
        .collect();
    let ow_ranges: Vec<(usize, usize)> = (0..k)
        .map(|kw| valid_range(geom.out_w, geom.in_w, kw, s, p))
        .collect();
    for c in 0..geom.in_channels {
        for (kh, &(oh_lo, oh_hi)) in oh_ranges.iter().enumerate() {
            for (kw, &(ow_lo, ow_hi)) in ow_ranges.iter().enumerate() {
                if ow_lo == ow_hi {
                    continue;
                }
                let row = (c * k + kh) * k + kw;
                let iw = ow_lo * s + kw - p;
                for oh in oh_lo..oh_hi {
                    let ih = oh * s + kh - p;
                    f(Run {
                        row,
                        col: oh * geom.out_w + ow_lo,
                        len: ow_hi - ow_lo,
                        offset: (c * geom.in_h + ih) * geom.in_w + iw,
                    });
                }
            }
        }
    }
}

/// Lowers one input sample `[in_channels, in_h, in_w]` (given as the
/// `n`-th sample of a 4-D batch) into the im2col matrix
/// `[in_channels * k * k, out_h * out_w]`.
///
/// Column `(oh * out_w + ow)` holds the receptive field of output position
/// `(oh, ow)`; row `((c * k + kh) * k + kw)` holds input channel `c`,
/// kernel offset `(kh, kw)`. Out-of-bounds (padding) positions are zero.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if `input` is not 4-D or the
/// sample index / channel count disagrees with `geom`.
pub fn im2col(input: &Tensor, n: usize, geom: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    let _span = cap_obs::span!("tensor.im2col");
    if input.ndim() != 4 {
        return Err(TensorError::InvalidShape {
            shape: input.shape().to_vec(),
            expected: "4-D NCHW input",
        });
    }
    if n >= input.dim(0)
        || input.dim(1) != geom.in_channels
        || input.dim(2) != geom.in_h
        || input.dim(3) != geom.in_w
    {
        return Err(TensorError::InvalidShape {
            shape: input.shape().to_vec(),
            expected: "input matching convolution geometry",
        });
    }
    let per_sample = geom.in_channels * geom.in_h * geom.in_w;
    let sample = &input.data()[n * per_sample..(n + 1) * per_sample];
    let mut cols = vec![0.0f32; geom.col_rows() * geom.col_cols()];
    lower(sample, geom, &mut cols);
    Tensor::from_vec(vec![geom.col_rows(), geom.col_cols()], cols)
}

/// The lowering core of [`im2col`]: writes one sample's runs into a
/// zeroed column matrix (the padding taps stay zero).
fn lower(sample: &[f32], geom: &Conv2dGeometry, cols: &mut [f32]) {
    let ncols = geom.col_cols();
    let stride = geom.stride;
    for_each_run(geom, |run| {
        let dst = &mut cols[run.row * ncols + run.col..][..run.len];
        let src = &sample[run.offset..];
        if stride == 1 {
            dst.copy_from_slice(&src[..run.len]);
        } else {
            for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                *d = v;
            }
        }
    });
}

/// Adjoint of [`im2col`]: scatters a column matrix
/// `[in_channels * k * k, out_h * out_w]` back into the `n`-th sample of
/// `output` (shape `[N, in_channels, in_h, in_w]`), *accumulating* into
/// whatever is already stored there.
///
/// Together the pair satisfies `⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩`, which is
/// what makes it the correct backward operation for convolution inputs.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if shapes disagree with `geom`.
pub fn col2im(
    cols: &Tensor,
    output: &mut Tensor,
    n: usize,
    geom: &Conv2dGeometry,
) -> Result<(), TensorError> {
    let _span = cap_obs::span!("tensor.col2im");
    if cols.ndim() != 2 || cols.dim(0) != geom.col_rows() || cols.dim(1) != geom.col_cols() {
        return Err(TensorError::InvalidShape {
            shape: cols.shape().to_vec(),
            expected: "im2col matrix matching geometry",
        });
    }
    if output.ndim() != 4
        || n >= output.dim(0)
        || output.dim(1) != geom.in_channels
        || output.dim(2) != geom.in_h
        || output.dim(3) != geom.in_w
    {
        return Err(TensorError::InvalidShape {
            shape: output.shape().to_vec(),
            expected: "4-D output matching convolution geometry",
        });
    }
    let per_sample = geom.in_channels * geom.in_h * geom.in_w;
    let sample = &mut output.data_mut()[n * per_sample..(n + 1) * per_sample];
    col2im_sample(cols.data(), geom.col_cols(), sample, geom);
    Ok(())
}

/// Scatter core of [`col2im`] for a single sample given as a flat
/// `[in_channels * in_h * in_w]` slice, accumulating into it.
///
/// The sample's column matrix is read out of `cols`, a row-major matrix
/// `row_len` columns wide: row `r` is `cols[r * row_len ..][.. out_h *
/// out_w]`. A plain im2col matrix has `row_len = out_h * out_w`; a
/// matrix holding several samples side by side (a group of the lowered
/// input gradient) passes its full width and a slice starting at the
/// sample's first column.
fn col2im_sample(cols: &[f32], row_len: usize, sample: &mut [f32], geom: &Conv2dGeometry) {
    debug_assert!(row_len >= geom.col_cols());
    debug_assert_eq!(sample.len(), geom.in_channels * geom.in_h * geom.in_w);
    let stride = geom.stride;
    for_each_run(geom, |run| {
        let src = &cols[run.row * row_len + run.col..][..run.len];
        if stride == 1 {
            let dst = &mut sample[run.offset..][..run.len];
            for (d, &v) in dst.iter_mut().zip(src) {
                *d += v;
            }
        } else {
            for (d, &v) in sample[run.offset..].iter_mut().step_by(stride).zip(src) {
                *d += v;
            }
        }
    });
}

/// Lanes of one AVX2 vector: the direct kernels' rows are whole
/// vectors, so no column runs a scalar tail. (The 512-bit twins mask
/// the upper half of a row's last 16-lane vector when a row is an odd
/// number of these.)
const LANES: usize = 8;

/// Whether `geom` runs on the direct kernels: stride 1, padding at most
/// `k − 1` (so the input gradient's padding `k − 1 − p` is not
/// negative), and a per-sample GEMM (`M = out_c`, `N = oh·ow`,
/// `K = in_c·k²`) that the selector runs on its direct path. On those
/// shapes each GEMM element is one sum in ascending order starting at
/// `+0`, which the direct kernels repeat operand for operand.
fn runs_direct(geom: &Conv2dGeometry) -> bool {
    geom.stride == 1
        && geom.padding < geom.kernel
        && select::direct_dims(geom.out_channels, geom.col_cols(), geom.col_rows())
}

/// Per-thread scratch of the direct kernels.
struct Scratch {
    /// The zero-padded sample (forward) or output gradient (dX).
    padded: Padded,
    /// The wide rows the kernels write, `qr` columns each. The kernels
    /// overwrite every element, so it is never cleared.
    wide: Vec<f32>,
    /// One row's sums on the scalar path.
    sums: Vec<f32>,
    /// Window offsets into `padded`, one per summed term.
    offs: Vec<usize>,
    /// dX only: the offset of each tap `(kh, kw)`, added to every term's.
    taps: Vec<usize>,
    /// The pass (`true` for dX) and geometry `offs` and `taps` were
    /// built for; they are rebuilt only when either changes.
    windows_for: Option<(bool, Conv2dGeometry)>,
}

/// A zero-padded copy of one sample's planes. The halo and slack are
/// zeroed only when the layout changes: every fill rewrites all
/// interior rows and nothing else, so they stay zero while the layout
/// repeats.
struct Padded {
    buf: Vec<f32>,
    /// `(planes, h, w, pad, slack)` of the copy `buf` holds.
    layout: Option<[usize; 5]>,
}

thread_local! {
    /// The direct kernels never re-enter the pool, so a borrow of this
    /// scratch never spans a dispatch.
    static DIRECT_SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            padded: Padded {
                buf: Vec::new(),
                layout: None,
            },
            wide: Vec::new(),
            sums: Vec::new(),
            offs: Vec::new(),
            taps: Vec::new(),
            windows_for: None,
        })
    };
    /// The lowered forward's im2col matrix. The GEMM after the lowering
    /// may dispatch to the pool, whose draining caller can run another
    /// conv task inline on this thread, so the buffer is taken out of
    /// its cell for the call rather than borrowed across it.
    static LOWERED_COLS: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

fn slices_mismatch(lens: &[usize]) -> TensorError {
    TensorError::InvalidShape {
        shape: lens.to_vec(),
        expected: "slices matching the convolution geometry",
    }
}

/// The forward pass of a convolution for a run of samples: writes
/// `W · im2col(x)` into each sample's slice of `out`.
///
/// `x` holds the samples `[count, in_channels, in_h, in_w]`, `weight`
/// the filters `[out_channels, in_channels, k, k]`, and `out` their
/// `[count, out_channels, out_h, out_w]` outputs, which are
/// overwritten. Each sample is one task on the pool. A stride-1 conv
/// whose per-sample GEMM would take the direct path runs a direct
/// kernel over shifted windows of the zero-padded sample; any other
/// conv lowers the sample with [`im2col`] into a per-thread buffer and
/// runs the GEMM straight into its output. Both paths give the same
/// bits: each output element sums the same products in the same order,
/// whatever the thread count.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if a slice length disagrees
/// with `geom`.
pub fn conv_forward(
    x: &[f32],
    weight: &[f32],
    geom: &Conv2dGeometry,
    out: &mut [f32],
) -> Result<(), TensorError> {
    let per_in = geom.in_channels * geom.in_h * geom.in_w;
    let per_out = geom.out_channels * geom.col_cols();
    let n = out.len() / per_out;
    if out.len() != n * per_out
        || weight.len() != geom.out_channels * geom.col_rows()
        || x.len() != n * per_in
    {
        return Err(slices_mismatch(&[x.len(), weight.len(), out.len()]));
    }
    let direct = runs_direct(geom);
    let tasks: Vec<cap_par::ScopedTask<'_>> = out
        .chunks_mut(per_out)
        .enumerate()
        .map(|(s, out)| {
            let x = &x[s * per_in..(s + 1) * per_in];
            Box::new(move || {
                if direct {
                    forward_direct(x, weight, geom, out);
                } else {
                    forward_lowered(x, weight, geom, out);
                }
            }) as cap_par::ScopedTask<'_>
        })
        .collect();
    cap_par::run_tasks(tasks);
    Ok(())
}

/// The lowered forward of one sample: `im2col` into a per-thread
/// buffer, then the GEMM straight into `out`.
fn forward_lowered(x: &[f32], weight: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    let (k_dim, n_dim) = (geom.col_rows(), geom.col_cols());
    let mut cols = LOWERED_COLS.take();
    cols.clear();
    cols.resize(k_dim * n_dim, 0.0);
    {
        let _span = cap_obs::span!("tensor.im2col");
        lower(x, geom, &mut cols);
    }
    out.fill(0.0);
    {
        let _span = cap_obs::span!("tensor.matmul");
        gemm(
            geom.out_channels,
            n_dim,
            k_dim,
            MatRef::row_major(weight, k_dim),
            MatRef::row_major(&cols, n_dim),
            out,
        );
    }
    LOWERED_COLS.set(cols);
}

/// The input gradient of a convolution for a run of samples: writes
/// `col2im(Wᵀ · g)` into each sample's slice of `grad_in`.
///
/// `grad_out` holds the samples' output gradients
/// `[count, out_channels, out_h, out_w]`, `weight` the filters and
/// `grad_in` their `[count, in_channels, in_h, in_w]` input gradients,
/// which are overwritten. The samples run on the pool. On the direct
/// path each sample is one task: every tap's sum over the output
/// channels is taken from shifted windows of the zero-padded output
/// gradient and added in `(kh, kw)` order, the order of col2im. Any
/// other conv groups consecutive samples into one `Wᵀ·G` GEMM per
/// task, then scatters each sample with col2im. Each element's sums are
/// the same whatever the path, group or thread count.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if a slice length disagrees
/// with `geom`.
pub fn conv_input_grad(
    grad_out: &[f32],
    weight: &[f32],
    geom: &Conv2dGeometry,
    grad_in: &mut [f32],
) -> Result<(), TensorError> {
    let per_in = geom.in_channels * geom.in_h * geom.in_w;
    let per_out = geom.out_channels * geom.col_cols();
    let n = grad_out.len() / per_out;
    if grad_out.len() != n * per_out
        || weight.len() != geom.out_channels * geom.col_rows()
        || grad_in.len() != n * per_in
    {
        return Err(slices_mismatch(&[
            grad_out.len(),
            weight.len(),
            grad_in.len(),
        ]));
    }
    if n == 0 || per_in == 0 {
        return Ok(());
    }
    let direct = runs_direct(geom);
    let group = if direct {
        1
    } else {
        dx_group_size(n, geom.col_cols())
    };
    let tasks: Vec<cap_par::ScopedTask<'_>> = grad_in
        .chunks_mut(group * per_in)
        .zip(grad_out.chunks(group * per_out))
        .map(|(gin, g)| {
            Box::new(move || {
                if direct {
                    input_grad_direct(g, weight, geom, gin);
                } else {
                    input_grad_group(g, weight, geom, gin);
                }
            }) as cap_par::ScopedTask<'_>
        })
        .collect();
    cap_par::run_tasks(tasks);
    Ok(())
}

/// The direct forward of one sample. Output position `(oh, ow)` is
/// computed at wide column `q = oh·wp + ow` over the padded width `wp`,
/// so tap `(c, kh, kw)` reads one contiguous window of the padded
/// sample starting at `(c·hp + kh)·wp + kw`; each output row's `k − 1`
/// extra columns are dropped when it is copied out.
fn forward_direct(x: &[f32], weight: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    let _span = cap_obs::span!("tensor.conv.forward");
    let (k, p) = (geom.kernel, geom.padding);
    let (hp, wp) = (geom.in_h + 2 * p, geom.in_w + 2 * p);
    let q = (geom.out_h - 1) * wp + geom.out_w;
    let qr = q.next_multiple_of(LANES);
    DIRECT_SCRATCH.with_borrow_mut(|s| {
        let padded = s
            .padded
            .fill(x, geom.in_channels, (geom.in_h, geom.in_w), p, qr - q);
        if s.windows_for != Some((false, *geom)) {
            // One window per im2col row, in row order.
            s.offs.clear();
            for c in 0..geom.in_channels {
                for kh in 0..k {
                    s.offs.extend((0..k).map(|kw| (c * hp + kh) * wp + kw));
                }
            }
            s.windows_for = Some((false, *geom));
        }
        let wide = wide_rows(&mut s.wide, geom.out_channels * qr);
        let rows = WindowRows {
            a: weight,
            a_rs: geom.col_rows(),
            a_cs: 1,
            offs: &s.offs,
            src: padded,
            qr,
        };
        rows.run(wide, &mut s.sums);
        copy_out(wide, qr, wp, (geom.out_h, geom.out_w), out);
    });
}

/// The direct input gradient of one sample. With the output gradient
/// padded by `k − 1 − p`, tap `(kh, kw)` of input position `(y, x)`
/// reads padded position `(y + k−1−kh, x + k−1−kw)`; a tap that falls
/// outside the output reads padding and adds exactly `+0`.
fn input_grad_direct(g: &[f32], weight: &[f32], geom: &Conv2dGeometry, gin: &mut [f32]) {
    let _span = cap_obs::span!("tensor.conv.input_grad");
    let k = geom.kernel;
    let pad = k - 1 - geom.padding;
    let (hg, wg) = (geom.out_h + 2 * pad, geom.out_w + 2 * pad);
    let q = (geom.in_h - 1) * wg + geom.in_w;
    let qr = q.next_multiple_of(LANES);
    let kk = k * k;
    DIRECT_SCRATCH.with_borrow_mut(|s| {
        let padded = s
            .padded
            .fill(g, geom.out_channels, (geom.out_h, geom.out_w), pad, qr - q);
        if s.windows_for != Some((true, *geom)) {
            s.offs.clear();
            s.offs.extend((0..geom.out_channels).map(|o| o * hg * wg));
            s.taps.clear();
            for kh in 0..k {
                s.taps
                    .extend((0..k).map(|kw| (k - 1 - kh) * wg + (k - 1 - kw)));
            }
            s.windows_for = Some((true, *geom));
        }
        let wide = wide_rows(&mut s.wide, geom.in_channels * qr);
        // Row c, term o, tap t = kh·k + kw: weight[(o·in_c + c)·k² + t].
        let rows = TapRows {
            a: weight,
            a_rs: kk,
            a_cs: geom.in_channels * kk,
            offs: &s.offs,
            taps: &s.taps,
            src: padded,
            qr,
        };
        rows.run(wide, &mut s.sums);
        copy_out(wide, qr, wg, (geom.in_h, geom.in_w), gin);
    });
}

impl Padded {
    /// Copies `planes` planes of `h × w` in with `pad` zeros on every
    /// side of each plane, then `slack` zeros, so every window of the
    /// wide rows (rounded up to whole vectors) stays inside the buffer.
    fn fill(
        &mut self,
        src: &[f32],
        planes: usize,
        (h, w): (usize, usize),
        pad: usize,
        slack: usize,
    ) -> &[f32] {
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        let layout = [planes, h, w, pad, slack];
        if self.layout != Some(layout) {
            self.buf.clear();
            self.buf.resize(planes * hp * wp + slack, 0.0);
            self.layout = Some(layout);
        }
        simd::run_pass(PadRows {
            buf: &mut self.buf,
            src,
            planes,
            hw: (h, w),
            pad,
        });
        &self.buf
    }
}

/// Copies each `h × w` plane of `src` into the interior of its padded
/// plane in `buf`, `pad` rows and columns in.
struct PadRows<'a> {
    buf: &'a mut [f32],
    src: &'a [f32],
    planes: usize,
    hw: (usize, usize),
    pad: usize,
}

impl simd::ElementPass for PadRows<'_> {
    #[inline(always)]
    fn run(self) {
        let ((h, w), pad) = (self.hw, self.pad);
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        copy_rows(self.buf, self.src, (self.planes, h, w), |c, y| {
            ((c * hp + y + pad) * wp + pad, (c * h + y) * w)
        });
    }
}

/// The first `len` elements of `buf`, grown if needed and left
/// uncleared: the kernels overwrite every element they are handed.
fn wide_rows(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Copies `h × w` planes out of wide rows `qr` apart whose image rows
/// are `wp` apart, dropping each row's extra columns.
fn copy_out(wide: &[f32], qr: usize, wp: usize, hw: (usize, usize), dst: &mut [f32]) {
    simd::run_pass(CopyOut {
        wide,
        qr,
        wp,
        hw,
        dst,
    });
}

/// [`copy_out`]'s loop.
struct CopyOut<'a> {
    wide: &'a [f32],
    qr: usize,
    wp: usize,
    hw: (usize, usize),
    dst: &'a mut [f32],
}

impl simd::ElementPass for CopyOut<'_> {
    #[inline(always)]
    fn run(self) {
        let ((h, w), qr, wp) = (self.hw, self.qr, self.wp);
        let planes = self.wide.len() / qr;
        copy_rows(self.dst, self.wide, (planes, h, w), |c, y| {
            ((c * h + y) * w, c * qr + y * wp)
        });
    }
}

/// Copies row `y < h` of plane `c < planes`, `w` elements, from `src`
/// to `dst` at the offsets `at(c, y)` gives, `(dst, src)`. The map
/// widths of the small nets (4, 8 and 16) each get a loop of their own,
/// whose constant-length copies compile to a few vector moves; one
/// shared loop would merge them into one `memcpy` call per row.
#[inline(always)]
fn copy_rows(
    dst: &mut [f32],
    src: &[f32],
    (planes, h, w): (usize, usize, usize),
    at: impl Fn(usize, usize) -> (usize, usize),
) {
    /// `W` is the row length, or 0 for any other `w`.
    #[inline(always)]
    fn rows<const W: usize>(
        dst: &mut [f32],
        src: &[f32],
        (planes, h, w): (usize, usize, usize),
        at: impl Fn(usize, usize) -> (usize, usize),
    ) {
        let w = if W == 0 { w } else { W };
        for c in 0..planes {
            for y in 0..h {
                let (d, s) = at(c, y);
                dst[d..d + w].copy_from_slice(&src[s..s + w]);
            }
        }
    }
    match w {
        4 => rows::<4>(dst, src, (planes, h, w), at),
        8 => rows::<8>(dst, src, (planes, h, w), at),
        16 => rows::<16>(dst, src, (planes, h, w), at),
        _ => rows::<0>(dst, src, (planes, h, w), at),
    }
}

/// The direct forward's kernel: row `r`, column `q` of the output is
/// `Σ_i a[r·a_rs + i·a_cs] · src[offs[i] + q]`, ascending `i`, starting
/// at `+0` — the direct GEMM's sum, with B's row `i` read from the
/// window at `offs[i]`.
struct WindowRows<'a> {
    a: &'a [f32],
    a_rs: usize,
    a_cs: usize,
    offs: &'a [usize],
    src: &'a [f32],
    qr: usize,
}

impl WindowRows<'_> {
    /// Stores each sum into `out`, overwriting every element. The AVX2
    /// kernel and its 512-bit twin fuse each multiply-add as the AVX2
    /// GEMM does; the scalar loop multiplies and adds separately, as the
    /// scalar GEMM does.
    fn run(&self, out: &mut [f32], sums: &mut Vec<f32>) {
        // The pin reports AVX2 only on x86-64.
        if simd::simd_mode() == SimdMode::Avx2 {
            #[cfg(target_arch = "x86_64")]
            {
                simd::window_rows(
                    simd::direct_width(),
                    self.a,
                    self.a_rs,
                    self.a_cs,
                    self.offs,
                    self.src,
                    out,
                    self.qr,
                );
                return;
            }
        }
        sums.clear();
        sums.resize(self.qr, 0.0);
        for (r, row) in out.chunks_exact_mut(self.qr).enumerate() {
            sums.fill(0.0);
            for (i, &off) in self.offs.iter().enumerate() {
                let av = self.a[r * self.a_rs + i * self.a_cs];
                for (s, &b) in sums.iter_mut().zip(&self.src[off..][..self.qr]) {
                    *s += av * b;
                }
            }
            row.copy_from_slice(sums);
        }
    }
}

/// The direct input gradient's kernel: row `r`, column `q` of the
/// output is the sum over taps `t` (ascending, from `+0`) of
/// `Σ_i a[r·a_rs + i·a_cs + t] · src[offs[i] + taps[t] + q]` (ascending
/// `i`, from `+0`). Each tap's sum is col2im's term for that tap, and
/// the taps are added in col2im's `(kh, kw)` order.
struct TapRows<'a> {
    a: &'a [f32],
    a_rs: usize,
    a_cs: usize,
    offs: &'a [usize],
    taps: &'a [usize],
    src: &'a [f32],
    qr: usize,
}

impl TapRows<'_> {
    /// Stores each sum into `out`, overwriting every element. The AVX2
    /// kernel and its 512-bit twin keep the tap sums and the running sum
    /// in registers; the scalar loop takes the same steps, multiply and
    /// add separate.
    fn run(&self, out: &mut [f32], sums: &mut Vec<f32>) {
        // The pin reports AVX2 only on x86-64.
        if simd::simd_mode() == SimdMode::Avx2 {
            #[cfg(target_arch = "x86_64")]
            {
                simd::tap_rows(
                    simd::direct_width(),
                    self.a,
                    self.a_rs,
                    self.a_cs,
                    self.offs,
                    self.taps,
                    self.src,
                    out,
                    self.qr,
                );
                return;
            }
        }
        sums.clear();
        sums.resize(self.qr, 0.0);
        for (r, row) in out.chunks_exact_mut(self.qr).enumerate() {
            row.fill(0.0);
            for (t, &tap) in self.taps.iter().enumerate() {
                sums.fill(0.0);
                for (i, &off) in self.offs.iter().enumerate() {
                    let av = self.a[r * self.a_rs + i * self.a_cs + t];
                    for (s, &b) in sums.iter_mut().zip(&self.src[off + tap..][..self.qr]) {
                        *s += av * b;
                    }
                }
                for (o, &s) in row.iter_mut().zip(sums.iter()) {
                    *o += s;
                }
            }
        }
    }
}

/// Output columns one lowered dX GEMM should reach: consecutive samples
/// are grouped until their output planes add up to this many columns,
/// so a small map (a 2×2 map has 4 columns per sample) stops running
/// as many tiny GEMMs.
const DX_GROUP_COLS: usize = 256;

/// Samples per lowered dX GEMM: enough for [`DX_GROUP_COLS`] output
/// columns, but no more than an even share of the batch per pool
/// thread, so the groups still spread across the pool.
fn dx_group_size(n: usize, plane: usize) -> usize {
    DX_GROUP_COLS
        .div_ceil(plane)
        .min(n.div_ceil(cap_par::effective_parallelism()))
        .max(1)
}

/// One group of the lowered input gradient: the samples of `grad_out`
/// that fill `gin_chunk`. Their output gradients are laid side by side
/// as `G = [g_s | g_s+1 | …]` (`[out_c, count · plane]`), multiplied
/// once by `Wᵀ`, and each sample's column block is scattered into its
/// own slice of `gin_chunk`. Each element of `Wᵀ·G` sums over the
/// output channels in the same order whatever the group width.
fn input_grad_group(
    grad_out: &[f32],
    weight: &[f32],
    geom: &Conv2dGeometry,
    gin_chunk: &mut [f32],
) {
    let plane = geom.col_cols();
    let per_in = geom.in_channels * geom.in_h * geom.in_w;
    let per_out = geom.out_channels * plane;
    let width = (gin_chunk.len() / per_in) * plane;
    let mut g = vec![0.0f32; geom.out_channels * width];
    for (i, sample) in grad_out.chunks_exact(per_out).enumerate() {
        for (o, row) in sample.chunks_exact(plane).enumerate() {
            g[o * width + i * plane..][..plane].copy_from_slice(row);
        }
    }
    let mut gcols = vec![0.0f32; geom.col_rows() * width];
    {
        let _span = cap_obs::span!("tensor.matmul_ta");
        gemm(
            geom.col_rows(),
            width,
            geom.out_channels,
            MatRef::transposed(weight, geom.col_rows()),
            MatRef::row_major(&g, width),
            &mut gcols,
        );
    }
    gin_chunk.fill(0.0);
    for (i, gin) in gin_chunk.chunks_exact_mut(per_in).enumerate() {
        col2im_sample(&gcols[i * plane..], width, gin, geom);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_size_formula() {
        assert_eq!(conv_output_size(32, 3, 1, 1).unwrap(), 32);
        assert_eq!(conv_output_size(32, 3, 2, 1).unwrap(), 16);
        assert_eq!(conv_output_size(5, 2, 1, 0).unwrap(), 4);
        assert!(conv_output_size(3, 9, 1, 0).is_err());
        assert!(conv_output_size(3, 1, 0, 0).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: cols == flattened input.
        let x = Tensor::from_fn(&[1, 2, 3, 3], |i| i as f32);
        let g = Conv2dGeometry::new(2, 1, 1, 1, 0, 3, 3).unwrap();
        let cols = im2col(&x, 0, &g).unwrap();
        assert_eq!(cols.shape(), &[2, 9]);
        assert_eq!(cols.data(), x.data());
    }

    #[test]
    fn im2col_padding_zeroes_border() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let g = Conv2dGeometry::new(1, 1, 3, 1, 1, 2, 2).unwrap();
        let cols = im2col(&x, 0, &g).unwrap();
        // Column 0 is output position (0,0); its (kh=0, kw=0) row reads the
        // padded corner and must be zero.
        assert_eq!(cols.at2(0, 0), 0.0);
        // Centre tap (kh=1, kw=1) of output (0,0) reads input (0,0) = 1.
        assert_eq!(cols.at2(4, 0), 1.0);
    }

    /// The element-wise lowering the run-wise [`im2col`] replaced: one
    /// bounds check and one index computation per element.
    fn im2col_reference(input: &Tensor, n: usize, geom: &Conv2dGeometry) -> Tensor {
        let k = geom.kernel;
        let mut cols = Tensor::zeros(&[geom.col_rows(), geom.col_cols()]);
        let ncols = geom.col_cols();
        let data = input.data();
        let cols_data = cols.data_mut();
        for c in 0..geom.in_channels {
            for kh in 0..k {
                for kw in 0..k {
                    let base = ((c * k + kh) * k + kw) * ncols;
                    for oh in 0..geom.out_h {
                        let ih = (oh * geom.stride + kh) as isize - geom.padding as isize;
                        if ih < 0 || ih >= geom.in_h as isize {
                            continue;
                        }
                        let in_row_base =
                            ((n * geom.in_channels + c) * geom.in_h + ih as usize) * geom.in_w;
                        for ow in 0..geom.out_w {
                            let iw = (ow * geom.stride + kw) as isize - geom.padding as isize;
                            if iw < 0 || iw >= geom.in_w as isize {
                                continue;
                            }
                            cols_data[base + oh * geom.out_w + ow] =
                                data[in_row_base + iw as usize];
                        }
                    }
                }
            }
        }
        cols
    }

    /// The element-wise scatter the run-wise [`col2im_sample`] replaced.
    fn col2im_reference(cols: &Tensor, sample: &mut [f32], geom: &Conv2dGeometry) {
        let k = geom.kernel;
        let ncols = geom.col_cols();
        let cols_data = cols.data();
        let (in_h, in_w) = (geom.in_h, geom.in_w);
        for c in 0..geom.in_channels {
            for kh in 0..k {
                for kw in 0..k {
                    let base = ((c * k + kh) * k + kw) * ncols;
                    for oh in 0..geom.out_h {
                        let ih = (oh * geom.stride + kh) as isize - geom.padding as isize;
                        if ih < 0 || ih >= in_h as isize {
                            continue;
                        }
                        let out_row_base = (c * in_h + ih as usize) * in_w;
                        for ow in 0..geom.out_w {
                            let iw = (ow * geom.stride + kw) as isize - geom.padding as isize;
                            if iw < 0 || iw >= in_w as isize {
                                continue;
                            }
                            sample[out_row_base + iw as usize] +=
                                cols_data[base + oh * geom.out_w + ow];
                        }
                    }
                }
            }
        }
    }

    /// Kernels 1–5, strides 1–3 and paddings 0–2 over non-square inputs,
    /// including padding ≥ kernel, where whole runs fall in the padding.
    fn geometry_table() -> Vec<Conv2dGeometry> {
        let mut table = Vec::new();
        for k in 1..=5 {
            for s in 1..=3 {
                for p in 0..=2 {
                    for (h, w) in [(5, 7), (6, 3), (1, 4)] {
                        if let Ok(g) = Conv2dGeometry::new(2, 1, k, s, p, h, w) {
                            table.push(g);
                        }
                    }
                }
            }
        }
        assert!(table.len() > 100, "table too small: {}", table.len());
        table
    }

    fn assert_bits(got: &[f32], want: &[f32], what: &str, g: &Conv2dGeometry) {
        assert_eq!(got.len(), want.len(), "{what} {g:?}");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what} {g:?} element {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn run_wise_lowering_matches_element_wise_reference_bit_for_bit() {
        for g in geometry_table() {
            let x = Tensor::from_fn(&[2, g.in_channels, g.in_h, g.in_w], |i| {
                ((i as f32) * 0.37).sin()
            });
            for n in 0..2 {
                let got = im2col(&x, n, &g).unwrap();
                assert_bits(got.data(), im2col_reference(&x, n, &g).data(), "im2col", &g);
            }
            // col2im accumulates, so start from a non-zero sample and mix
            // magnitudes: any change in the order of the additions into
            // one element would change its rounding.
            let (rows, ncols) = (g.col_rows(), g.col_cols());
            let y = Tensor::from_fn(&[rows, ncols], |i| {
                ((i as f32) * 0.71).cos() * (1.0 + (i % 7) as f32 * 97.0)
            });
            let init: Vec<f32> = (0..g.in_channels * g.in_h * g.in_w)
                .map(|i| ((i as f32) * 0.13).sin())
                .collect();
            let mut want = init.clone();
            col2im_reference(&y, &mut want, &g);
            let mut got = init.clone();
            col2im_sample(y.data(), ncols, &mut got, &g);
            assert_bits(&got, &want, "col2im", &g);
            // The same columns read out of a wider matrix at a column
            // offset; the NaN padding proves no other column is read.
            let (offset, width) = (3, ncols + 5);
            let wide: Vec<f32> = (0..rows * width)
                .map(|i| {
                    let (r, c) = (i / width, i % width);
                    if (offset..offset + ncols).contains(&c) {
                        y.at2(r, c - offset)
                    } else {
                        f32::NAN
                    }
                })
                .collect();
            let mut strided = init.clone();
            col2im_sample(&wide[offset..], width, &mut strided, &g);
            assert_bits(&strided, &want, "col2im from a wide matrix", &g);
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        for g in geometry_table() {
            let shape = [1, g.in_channels, g.in_h, g.in_w];
            let x = Tensor::from_fn(&shape, |i| ((i * 37 % 11) as f32) - 5.0);
            let y = Tensor::from_fn(&[g.col_rows(), g.col_cols()], |i| {
                ((i * 17 % 7) as f32) - 3.0
            });
            let cols = im2col(&x, 0, &g).unwrap();
            let lhs: f64 = cols
                .data()
                .iter()
                .zip(y.data())
                .map(|(&a, &b)| f64::from(a) * f64::from(b))
                .sum();
            let mut xgrad = Tensor::zeros(&shape);
            col2im(&y, &mut xgrad, 0, &g).unwrap();
            let rhs: f64 = x
                .data()
                .iter()
                .zip(xgrad.data())
                .map(|(&a, &b)| f64::from(a) * f64::from(b))
                .sum();
            assert!((lhs - rhs).abs() < 1e-6, "{g:?}: {lhs} vs {rhs}");
        }
    }

    /// The direct kernels' row copies give the same bits in both frames:
    /// the zero-padded fill, then [`copy_out`] of the padded planes read
    /// as wide rows, at every row width from 1 to 17 and 67 (the fixed
    /// widths 4, 8 and 16 have loops of their own).
    #[test]
    fn padded_fill_and_copy_out_match_across_frames() {
        use crate::simd::{assert_frames_agree, specials};
        for w in (1..=17).chain([67]) {
            for (planes, h, pad) in [(1, 1, 0), (2, 3, 1), (3, 2, 2)] {
                let src = specials(planes * h * w, w);
                let (hp, wp) = (h + 2 * pad, w + 2 * pad);
                let run = || {
                    let mut padded = Padded {
                        buf: Vec::new(),
                        layout: None,
                    };
                    let buf = padded.fill(&src, planes, (h, w), pad, 5).to_vec();
                    for c in 0..planes {
                        for y in 0..h {
                            let at = (c * hp + y + pad) * wp + pad;
                            let want = &src[(c * h + y) * w..][..w];
                            let got = &buf[at..at + w];
                            assert!(got
                                .iter()
                                .zip(want)
                                .all(|(g, s)| g.to_bits() == s.to_bits()));
                        }
                    }
                    let mut out = vec![f32::NAN; planes * h * w];
                    copy_out(&buf[..planes * hp * wp], hp * wp, wp, (h, w), &mut out);
                    buf.into_iter().chain(out).collect()
                };
                assert_frames_agree(&format!("fill/copy_out {planes}×{h}×{w} pad {pad}"), run);
            }
        }
    }

    #[test]
    fn shape_validation() {
        let g = Conv2dGeometry::new(1, 1, 3, 1, 1, 4, 4).unwrap();
        let bad = Tensor::zeros(&[1, 2, 4, 4]);
        assert!(im2col(&bad, 0, &g).is_err());
        let cols = Tensor::zeros(&[9, 16]);
        let mut out = Tensor::zeros(&[1, 2, 4, 4]);
        assert!(col2im(&cols, &mut out, 0, &g).is_err());
    }
}
