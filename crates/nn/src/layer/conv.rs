use crate::layer::Grads;
use crate::NnError;
use cap_tensor::{
    conv_forward, conv_input_grad, im2col, kaiming_normal, matmul_transpose_b, Conv2dGeometry,
    Tensor, TensorError,
};
use rand::Rng;

/// Work of copying one weight element in channel surgery, in FLOPs of
/// the direct conv kernels (the unit of `cap_par::WORK_FLOOR`): on one
/// thread of an AVX-512 VM a filter element took 0.3–0.7 ns and a
/// kept-channel plane element 0.6–3 ns, and 40 FLOPs take 1 ns at the
/// kernels' 40 GFLOP/s.
const COPY_COST_PER_ELEMENT: usize = 20;

/// Bytes of per-sample weight gradients one wave of the weight gradient
/// holds before they are summed, whatever the thread count: a whole
/// batch of 32 for every ResNet56 conv at width 0.25, six or seven
/// samples for a width-0.25 VGG16's 128-filter convs.
const WEIGHT_GRAD_WAVE_BYTES: usize = 4 << 20;

/// A 2-D convolution layer with square kernels. cap-tensor's
/// [`conv_forward`] and [`conv_input_grad`] pick the kernel per
/// geometry (direct windows or im2col + GEMM); the weight gradient
/// lowers each sample with im2col.
///
/// The layer owns its weight `[out_channels, in_channels, k, k]`, optional
/// bias `[out_channels]`, accumulated gradients, and — when
/// [`Conv2d::set_record_activations`] is enabled — the activation output
/// and its gradient from the most recent forward/backward pair. The
/// recorded pair is exactly what the paper's Taylor importance score
/// (Eq. 4) needs: `Θ'(a, x) = |a · ∂L/∂a|` evaluated at the filter's
/// output feature map.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Tensor,
    bias: Option<Tensor>,
    stride: usize,
    padding: usize,
    grad_weight: Tensor,
    grad_bias: Option<Tensor>,
    // Forward caches: the input, which the weight gradient lowers.
    cached_input: Option<Tensor>,
    cached_geom: Option<Conv2dGeometry>,
    cached_batch: usize,
    // Importance-score recording (paper Eq. 3-4).
    record_activations: bool,
    recorded_output: Option<Tensor>,
    recorded_output_grad: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-normal weights.
    ///
    /// `bias` is typically `false` when the convolution is followed by a
    /// batch-norm layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if any of the structural
    /// parameters is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Result<Self, NnError> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0 {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "conv2d parameters must be non-zero: in={in_channels} out={out_channels} k={kernel} stride={stride}"
                ),
            });
        }
        let weight = kaiming_normal(&[out_channels, in_channels, kernel, kernel], rng);
        let grad_weight = Tensor::zeros(weight.shape());
        let (bias_t, grad_bias) = if bias {
            (
                Some(Tensor::zeros(&[out_channels])),
                Some(Tensor::zeros(&[out_channels])),
            )
        } else {
            (None, None)
        };
        Ok(Conv2d {
            weight,
            bias: bias_t,
            stride,
            padding,
            grad_weight,
            grad_bias,
            cached_input: None,
            cached_geom: None,
            cached_batch: 0,
            record_activations: false,
            recorded_output: None,
            recorded_output_grad: None,
        })
    }

    /// Reconstructs a convolution from raw parts (used by checkpoint
    /// loading). Gradients start zeroed.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `weight` is not 4-D square-
    /// kernelled, `bias` has the wrong length, or `stride` is zero.
    pub fn from_parts(
        weight: Tensor,
        bias: Option<Tensor>,
        stride: usize,
        padding: usize,
    ) -> Result<Self, NnError> {
        if weight.ndim() != 4 || weight.dim(2) != weight.dim(3) {
            return Err(NnError::InvalidConfig {
                reason: format!("conv weight must be [out,in,k,k], got {:?}", weight.shape()),
            });
        }
        if stride == 0 {
            return Err(NnError::InvalidConfig {
                reason: "stride must be non-zero".to_string(),
            });
        }
        if let Some(b) = &bias {
            if b.numel() != weight.dim(0) {
                return Err(NnError::InvalidConfig {
                    reason: format!(
                        "bias length {} does not match {} filters",
                        b.numel(),
                        weight.dim(0)
                    ),
                });
            }
        }
        let grad_weight = Tensor::zeros(weight.shape());
        let grad_bias = bias.as_ref().map(|b| Tensor::zeros(b.shape()));
        Ok(Conv2d {
            weight,
            bias,
            stride,
            padding,
            grad_weight,
            grad_bias,
            cached_input: None,
            cached_geom: None,
            cached_batch: 0,
            record_activations: false,
            recorded_output: None,
            recorded_output_grad: None,
        })
    }

    /// Number of output channels (filters).
    pub fn out_channels(&self) -> usize {
        self.weight.dim(0)
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.weight.dim(1)
    }

    /// Kernel side length.
    pub fn kernel(&self) -> usize {
        self.weight.dim(2)
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// The weight tensor `[out, in, k, k]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable access to the weight tensor.
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// The accumulated weight gradient.
    pub fn grad_weight(&self) -> &Tensor {
        &self.grad_weight
    }

    /// Mutable access to the accumulated weight gradient.
    pub fn grad_weight_mut(&mut self) -> &mut Tensor {
        &mut self.grad_weight
    }

    /// The bias vector, if the layer has one.
    pub fn bias(&self) -> Option<&Tensor> {
        self.bias.as_ref()
    }

    /// Enables or disables recording of the activation output and its
    /// gradient for importance scoring.
    pub fn set_record_activations(&mut self, on: bool) {
        self.record_activations = on;
        if !on {
            self.recorded_output = None;
            self.recorded_output_grad = None;
        }
    }

    /// The output feature map `[N, out, oh, ow]` captured during the last
    /// forward pass, if recording is enabled.
    pub fn recorded_output(&self) -> Option<&Tensor> {
        self.recorded_output.as_ref()
    }

    /// The gradient of the loss w.r.t. the output feature map, captured
    /// during the last backward pass, if recording is enabled.
    pub fn recorded_output_grad(&self) -> Option<&Tensor> {
        self.recorded_output_grad.as_ref()
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        if let Some(gb) = &mut self.grad_bias {
            gb.fill(0.0);
        }
    }

    /// Forward pass over an NCHW batch, taken by value: it moves into
    /// the cache the weight gradient lowers.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for non-4-D inputs or channel
    /// mismatches, and propagates geometry errors.
    pub fn forward(&mut self, x: Tensor) -> Result<Tensor, NnError> {
        if x.ndim() != 4 || x.dim(1) != self.in_channels() {
            return Err(NnError::BadInput {
                layer: "Conv2d",
                expected: format!("[N, {}, H, W]", self.in_channels()),
                got: x.shape().to_vec(),
            });
        }
        let n = x.dim(0);
        let geom = Conv2dGeometry::new(
            self.in_channels(),
            self.out_channels(),
            self.kernel(),
            self.stride,
            self.padding,
            x.dim(2),
            x.dim(3),
        )?;
        let mut out = Tensor::zeros(&[n, self.out_channels(), geom.out_h, geom.out_w]);
        conv_forward(x.data(), self.weight.data(), &geom, out.data_mut())?;
        if let Some(b) = &self.bias {
            let (oh, ow) = (geom.out_h, geom.out_w);
            let plane = oh * ow;
            let data = out.data_mut();
            for s in 0..n {
                for (c, &bv) in b.data().iter().enumerate() {
                    let base = (s * geom.out_channels + c) * plane;
                    for v in &mut data[base..base + plane] {
                        *v += bv;
                    }
                }
            }
        }
        self.cached_input = Some(x);
        self.cached_geom = Some(geom);
        self.cached_batch = n;
        if self.record_activations {
            self.recorded_output = Some(out.clone());
        }
        Ok(out)
    }

    /// Backward pass over the output gradient, taken by value: returns
    /// the gradient w.r.t. the input and, under [`Grads::Full`], adds
    /// the batch's weight/bias gradients to the accumulators;
    /// [`Grads::InputOnly`] neither reads nor writes them. The input
    /// gradient is bit-identical in both modes. A recording layer keeps
    /// `grad_out` as [`Conv2d::recorded_output_grad`] without a copy.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingCache`] if called before `forward`, or
    /// [`NnError::BadInput`] if `grad_out` does not match the cached
    /// forward geometry.
    pub fn backward(&mut self, grad_out: Tensor, grads: Grads) -> Result<Tensor, NnError> {
        let grad_in = self.gradients(&grad_out, grads)?;
        if self.record_activations {
            self.recorded_output_grad = Some(grad_out);
        }
        Ok(grad_in)
    }

    /// Returns the input gradient, and under [`Grads::Full`] adds the
    /// batch's weight and bias gradients to the accumulators.
    fn gradients(&mut self, grad_out: &Tensor, grads: Grads) -> Result<Tensor, NnError> {
        let geom = self
            .cached_geom
            .ok_or(NnError::MissingCache { layer: "Conv2d" })?;
        let n = self.cached_batch;
        if grad_out.shape() != [n, geom.out_channels, geom.out_h, geom.out_w] {
            return Err(NnError::BadInput {
                layer: "Conv2d backward",
                expected: format!(
                    "[{n}, {}, {}, {}]",
                    geom.out_channels, geom.out_h, geom.out_w
                ),
                got: grad_out.shape().to_vec(),
            });
        }
        let mut grad_in = Tensor::zeros(&[n, geom.in_channels, geom.in_h, geom.in_w]);
        conv_input_grad(
            grad_out.data(),
            self.weight.data(),
            &geom,
            grad_in.data_mut(),
        )?;
        if grads == Grads::Full {
            self.accumulate_param_grads(grad_out, n, &geom)?;
        }
        Ok(grad_in)
    }

    /// Adds this batch's weight and bias gradients to the accumulators.
    fn accumulate_param_grads(
        &mut self,
        grad_out: &Tensor,
        n: usize,
        geom: &Conv2dGeometry,
    ) -> Result<(), NnError> {
        let k = geom.kernel;
        let mut grad_wmat = Tensor::zeros(&[geom.out_channels, geom.in_channels * k * k]);
        let per_sample = geom.out_channels * geom.out_h * geom.out_w;
        // Per-sample weight gradients run in waves, each wave one
        // region, and are reduced serially in ascending sample order
        // below — the exact summation order of the serial loop — so
        // results are bit-identical for any wave size and thread count.
        let wave = weight_grad_wave(n, grad_wmat.numel(), geom.sample_flops());
        let x = self
            .cached_input
            .as_ref()
            .ok_or(NnError::MissingCache { layer: "Conv2d" })?;
        for s0 in (0..n).step_by(wave) {
            let count = wave.min(n - s0);
            let mut gws: Vec<Option<Result<Tensor, TensorError>>> =
                std::iter::repeat_with(|| None).take(count).collect();
            let samples = gws.iter_mut().zip(s0..).map(|(gw, s)| {
                move || {
                    *gw = Some(
                        Tensor::from_vec(
                            vec![geom.out_channels, geom.out_h * geom.out_w],
                            grad_out.data()[s * per_sample..(s + 1) * per_sample].to_vec(),
                        )
                        .and_then(|g| {
                            // dW contribution: g · colsᵀ, lowered from the input.
                            matmul_transpose_b(&g, &im2col(x, s, geom)?)
                        }),
                    );
                }
            });
            cap_par::run_region(count * geom.sample_flops(), samples);
            // `run_region` has run every task, so every slot is filled.
            for gw in gws.into_iter().flatten() {
                grad_wmat.axpy(1.0, &gw?)?;
            }
        }
        let gw4 = grad_wmat.reshape(self.weight.shape())?;
        self.grad_weight.axpy(1.0, &gw4)?;
        if let Some(gb) = &mut self.grad_bias {
            let plane = geom.out_h * geom.out_w;
            let data = grad_out.data();
            for s in 0..n {
                for c in 0..geom.out_channels {
                    let base = (s * geom.out_channels + c) * plane;
                    let sum: f32 = data[base..base + plane].iter().sum();
                    gb.data_mut()[c] += sum;
                }
            }
        }
        Ok(())
    }

    /// Drops the forward caches `backward` reads (the input and the
    /// geometry).
    pub fn clear_cache(&mut self) {
        self.cached_input = None;
        self.cached_geom = None;
    }

    /// Keeps only the output channels (filters) listed in `keep`,
    /// physically shrinking the weight, bias and gradient tensors.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `keep` is empty, unsorted,
    /// contains duplicates, or references a filter that does not exist.
    pub fn retain_output_channels(&mut self, keep: &[usize]) -> Result<(), NnError> {
        validate_keep(keep, self.out_channels(), "output channels")?;
        let (in_c, k) = (self.in_channels(), self.kernel());
        let fsize = in_c * k * k;
        // Surviving filters copy as one region: chunk i is exactly
        // filter keep[i], so writes are disjoint and the result is a pure
        // permutation-select — identical for any thread count.
        let mut w = vec![0.0f32; keep.len() * fsize];
        let work = w.len() * COPY_COST_PER_ELEMENT;
        let src = self.weight.data();
        let filters = w
            .chunks_mut(fsize)
            .zip(keep)
            .map(|(chunk, &f)| move || chunk.copy_from_slice(&src[f * fsize..(f + 1) * fsize]));
        cap_par::run_region(work, filters);
        self.weight = Tensor::from_vec(vec![keep.len(), in_c, k, k], w)?;
        self.grad_weight = Tensor::zeros(self.weight.shape());
        if let Some(b) = &self.bias {
            let nb: Vec<f32> = keep.iter().map(|&f| b.data()[f]).collect();
            self.bias = Some(Tensor::from_vec(vec![keep.len()], nb)?);
            self.grad_bias = Some(Tensor::zeros(&[keep.len()]));
        }
        self.clear_cache();
        self.recorded_output = None;
        self.recorded_output_grad = None;
        Ok(())
    }

    /// Keeps only the input channels listed in `keep`, matching a pruning
    /// of the producing layer's filters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for an invalid keep-set.
    pub fn retain_input_channels(&mut self, keep: &[usize]) -> Result<(), NnError> {
        validate_keep(keep, self.in_channels(), "input channels")?;
        let (out_c, k) = (self.out_channels(), self.kernel());
        let plane = k * k;
        // Each chunk is one (filter, kept-channel) kernel plane; the
        // chunk index determines both source and destination, so the
        // copy is a pure select.
        let in_c = self.in_channels();
        let mut w = vec![0.0f32; out_c * keep.len() * plane];
        let work = w.len() * COPY_COST_PER_ELEMENT;
        let src = self.weight.data();
        let planes = w.chunks_mut(plane).enumerate().map(|(i, chunk)| {
            let base = ((i / keep.len()) * in_c + keep[i % keep.len()]) * plane;
            move || chunk.copy_from_slice(&src[base..base + plane])
        });
        cap_par::run_region(work, planes);
        self.weight = Tensor::from_vec(vec![out_c, keep.len(), k, k], w)?;
        self.grad_weight = Tensor::zeros(self.weight.shape());
        self.clear_cache();
        Ok(())
    }

    /// Number of parameters (weights + bias).
    pub fn num_params(&self) -> usize {
        self.weight.numel() + self.bias.as_ref().map_or(0, Tensor::numel)
    }

    /// Visits `(param, grad)` pairs mutably, weight first.
    pub(crate) fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        if let (Some(b), Some(gb)) = (&mut self.bias, &mut self.grad_bias) {
            f(b, gb);
        }
    }
}

pub(crate) fn validate_keep(keep: &[usize], limit: usize, what: &str) -> Result<(), NnError> {
    if keep.is_empty() {
        return Err(NnError::InvalidConfig {
            reason: format!("keep-set for {what} must not be empty"),
        });
    }
    let sorted = keep.windows(2).all(|w| w[0] < w[1]);
    if !sorted {
        return Err(NnError::InvalidConfig {
            reason: format!("keep-set for {what} must be strictly increasing"),
        });
    }
    if keep.last().is_some_and(|&last| last >= limit) {
        return Err(NnError::InvalidConfig {
            reason: format!("keep-set for {what} references index >= {limit}"),
        });
    }
    Ok(())
}

/// Samples per wave of the weight gradient: as many `product_len`-float
/// products as fit in [`WEIGHT_GRAD_WAVE_BYTES`], at least one and at
/// most the batch of `n`. When the batch takes several waves, a wave
/// that the pool splits is trimmed to a multiple of its ways, so that
/// every thread gets as many samples (seven 128-filter products would
/// split 4/3 over two threads).
fn weight_grad_wave(n: usize, product_len: usize, sample_flops: usize) -> usize {
    let wave = (WEIGHT_GRAD_WAVE_BYTES / (product_len * std::mem::size_of::<f32>()).max(1))
        .clamp(1, n.max(1));
    let ways = cap_par::parallelism_for(wave * sample_flops);
    if wave < n && wave > ways {
        wave - wave % ways
    } else {
        wave
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, true, &mut rng()).unwrap();
        let x = Tensor::ones(&[2, 3, 6, 6]);
        let y = conv.forward(x).unwrap();
        assert_eq!(y.shape(), &[2, 8, 6, 6]);
    }

    #[test]
    fn rejects_bad_input() {
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, false, &mut rng()).unwrap();
        assert!(conv.forward(Tensor::ones(&[2, 4, 6, 6])).is_err());
        assert!(conv.forward(Tensor::ones(&[2, 3, 6])).is_err());
        let g = Tensor::ones(&[2, 8, 6, 6]);
        assert!(conv.backward(g, Grads::Full).is_err()); // no forward yet
    }

    #[test]
    fn backward_weight_gradient_matches_finite_difference() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, true, &mut rng()).unwrap();
        let x = cap_tensor::randn(&[1, 2, 4, 4], 0.0, 1.0, &mut rng());
        // Loss = sum(output); dL/dout = ones.
        let y = conv.forward(x.clone()).unwrap();
        let g = Tensor::ones(y.shape());
        conv.zero_grad();
        conv.backward(g, Grads::Full).unwrap();
        let analytic = conv.grad_weight().clone();

        let eps = 1e-3f32;
        for idx in [0usize, 5, 17, 30] {
            let orig = conv.weight().data()[idx];
            conv.weight_mut().data_mut()[idx] = orig + eps;
            let y1 = cap_tensor::sum_all(&conv.forward(x.clone()).unwrap());
            conv.weight_mut().data_mut()[idx] = orig - eps;
            let y2 = cap_tensor::sum_all(&conv.forward(x.clone()).unwrap());
            conv.weight_mut().data_mut()[idx] = orig;
            let fd = ((y1 - y2) / (2.0 * f64::from(eps))) as f32;
            let an = analytic.data()[idx];
            assert!(
                (fd - an).abs() < 1e-2 * (1.0 + an.abs()),
                "idx {idx}: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn backward_input_gradient_matches_finite_difference() {
        let mut conv = Conv2d::new(2, 3, 3, 2, 1, false, &mut rng()).unwrap();
        let mut x = cap_tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, &mut rng());
        let y = conv.forward(x.clone()).unwrap();
        let g = Tensor::ones(y.shape());
        let gin = conv.backward(g, Grads::Full).unwrap();

        let eps = 1e-3f32;
        for idx in [0usize, 7, 23, 49] {
            let orig = x.data()[idx];
            x.data_mut()[idx] = orig + eps;
            let y1 = cap_tensor::sum_all(&conv.forward(x.clone()).unwrap());
            x.data_mut()[idx] = orig - eps;
            let y2 = cap_tensor::sum_all(&conv.forward(x.clone()).unwrap());
            x.data_mut()[idx] = orig;
            let fd = ((y1 - y2) / (2.0 * f64::from(eps))) as f32;
            let an = gin.data()[idx];
            assert!(
                (fd - an).abs() < 1e-2 * (1.0 + an.abs()),
                "idx {idx}: {fd} vs {an}"
            );
        }
    }

    #[test]
    fn weight_gradient_lowers_the_cached_input_in_ascending_sample_order() {
        // A direct-kernel geometry, a strided one that lowers, and 128
        // filters of 128 channels, whose 590 KB per-sample gradients
        // split a batch of 9 into two waves.
        for (in_c, out_c, side, batch, stride) in
            [(3, 5, 6, 4, 1), (3, 5, 6, 4, 2), (128, 128, 2, 9, 1)]
        {
            let mut conv = Conv2d::new(in_c, out_c, 3, stride, 1, false, &mut rng()).unwrap();
            let x = cap_tensor::randn(&[batch, in_c, side, side], 0.0, 1.0, &mut rng());
            let y = conv.forward(x.clone()).unwrap();
            let g = Tensor::from_fn(y.shape(), |i| ((i as f32) * 0.37).sin());
            conv.zero_grad();
            conv.backward(g.clone(), Grads::Full).unwrap();
            let geom = conv.cached_geom.unwrap();
            let per_out = geom.out_channels * geom.col_cols();
            let mut want = Tensor::zeros(&[geom.out_channels, geom.col_rows()]);
            for s in 0..batch {
                let gs = Tensor::from_vec(
                    vec![geom.out_channels, geom.col_cols()],
                    g.data()[s * per_out..(s + 1) * per_out].to_vec(),
                )
                .unwrap();
                let cols = im2col(&x, s, &geom).unwrap();
                want.axpy(1.0, &matmul_transpose_b(&gs, &cols).unwrap())
                    .unwrap();
            }
            let got = conv.grad_weight().data();
            assert_eq!(got.len(), want.numel());
            for (i, (a, b)) in got.iter().zip(want.data()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "stride {stride}, element {i}");
            }
        }
    }

    #[test]
    fn empty_input_map_has_zero_weight_gradient() {
        // A 1×1 kernel with padding 1 turns a 0×0 map into a 2×2 output
        // of padding alone: every lowered column is zero.
        let mut conv = Conv2d::new(2, 3, 1, 1, 1, true, &mut rng()).unwrap();
        let y = conv.forward(Tensor::zeros(&[2, 2, 0, 0])).unwrap();
        assert_eq!(y.shape(), [2, 3, 2, 2]);
        conv.zero_grad();
        let gin = conv
            .backward(Tensor::full(y.shape(), 0.5), Grads::Full)
            .unwrap();
        assert_eq!(gin.shape(), [2, 2, 0, 0]);
        assert!(conv.grad_weight().data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn recording_captures_output_and_grad() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, false, &mut rng()).unwrap();
        conv.set_record_activations(true);
        let y = conv.forward(Tensor::ones(&[1, 1, 4, 4])).unwrap();
        let g = Tensor::full(y.shape(), 0.5);
        conv.backward(g.clone(), Grads::Full).unwrap();
        assert_eq!(conv.recorded_output().unwrap(), &y);
        assert_eq!(conv.recorded_output_grad().unwrap(), &g);
        conv.set_record_activations(false);
        assert!(conv.recorded_output().is_none());
    }

    #[test]
    fn retain_output_channels_selects_filters() {
        let mut conv = Conv2d::new(2, 4, 1, 1, 0, true, &mut rng()).unwrap();
        let w_before = conv.weight().clone();
        conv.retain_output_channels(&[1, 3]).unwrap();
        assert_eq!(conv.out_channels(), 2);
        assert_eq!(conv.weight().data()[0..2], w_before.data()[2..4]);
        assert_eq!(conv.weight().data()[2..4], w_before.data()[6..8]);
    }

    #[test]
    fn retain_input_channels_selects_slices() {
        let mut conv = Conv2d::new(3, 2, 1, 1, 0, false, &mut rng()).unwrap();
        let w_before = conv.weight().clone();
        conv.retain_input_channels(&[0, 2]).unwrap();
        assert_eq!(conv.in_channels(), 3 - 1);
        // filter 0: channels 0 and 2 of the original
        assert_eq!(conv.weight().data()[0], w_before.data()[0]);
        assert_eq!(conv.weight().data()[1], w_before.data()[2]);
    }

    #[test]
    fn retain_validates_keep_sets() {
        let mut conv = Conv2d::new(2, 4, 1, 1, 0, false, &mut rng()).unwrap();
        assert!(conv.retain_output_channels(&[]).is_err());
        assert!(conv.retain_output_channels(&[2, 1]).is_err());
        assert!(conv.retain_output_channels(&[1, 1]).is_err());
        assert!(conv.retain_output_channels(&[4]).is_err());
    }

    #[test]
    fn pruned_conv_matches_sliced_dense_output() {
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, true, &mut rng()).unwrap();
        let x = cap_tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, &mut rng());
        let full = conv.forward(x.clone()).unwrap();
        let keep = [0usize, 2];
        conv.retain_output_channels(&keep).unwrap();
        let pruned = conv.forward(x).unwrap();
        for (new_f, &old_f) in keep.iter().enumerate() {
            for h in 0..5 {
                for w in 0..5 {
                    assert!((pruned.at4(0, new_f, h, w) - full.at4(0, old_f, h, w)).abs() < 1e-5);
                }
            }
        }
    }
}
