use crate::layer::Grads;
use crate::NnError;
use cap_tensor::{
    conv_forward, conv_input_grad, im2col, kaiming_normal, matmul_transpose_b, Conv2dGeometry,
    Tensor,
};
use rand::Rng;

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

    /// Forward pass over an NCHW batch.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for non-4-D inputs or channel
    /// mismatches, and propagates geometry errors.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        self.forward_owned(x.clone())
    }

    /// [`Conv2d::forward`] taking the input by value: it moves into the
    /// cache the weight gradient lowers.
    pub(crate) fn forward_owned(&mut self, x: Tensor) -> Result<Tensor, NnError> {
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
        let per_in = geom.in_channels * geom.in_h * geom.in_w;
        let per_sample = self.out_channels() * geom.out_h * geom.out_w;
        // Samples are independent: each task owns one sample's output
        // slice, and the per-sample arithmetic is identical to the
        // serial loop, so any thread count produces bit-identical
        // results.
        let mut slots: Vec<Option<Result<(), NnError>>> = (0..n).map(|_| None).collect();
        {
            let geom = &geom;
            let (xs, weight) = (x.data(), self.weight.data());
            let tasks: Vec<cap_par::ScopedTask<'_>> = out.data_mut()[..n * per_sample]
                .chunks_mut(per_sample)
                .zip(slots.iter_mut())
                .enumerate()
                .map(|(s, (chunk, slot))| {
                    Box::new(move || {
                        let sample = &xs[s * per_in..(s + 1) * per_in];
                        *slot =
                            Some(conv_forward(sample, weight, geom, chunk).map_err(NnError::from));
                    }) as cap_par::ScopedTask<'_>
                })
                .collect();
            cap_par::run_tasks(tasks);
        }
        for slot in slots {
            slot.ok_or(NnError::TaskNotRun {
                layer: "Conv2d::forward",
            })??;
        }
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

    /// Backward pass: accumulates weight/bias gradients and returns the
    /// gradient w.r.t. the input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingCache`] if called before `forward`, or
    /// [`NnError::BadInput`] if `grad_out` does not match the cached
    /// forward geometry.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        self.backward_ref(grad_out, Grads::Full)
    }

    /// Backward pass that returns the gradient w.r.t. the input and
    /// neither reads nor writes the weight/bias gradients. The input
    /// gradient (and the recorded output gradient) is bit-identical to
    /// [`Conv2d::backward`]'s.
    ///
    /// # Errors
    ///
    /// As [`Conv2d::backward`].
    pub fn backward_input_only(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        self.backward_ref(grad_out, Grads::InputOnly)
    }

    /// The borrowed backward: copies the gradient only to record it.
    fn backward_ref(&mut self, grad_out: &Tensor, grads: Grads) -> Result<Tensor, NnError> {
        let grad_in = self.gradients(grad_out, grads)?;
        if self.record_activations {
            self.recorded_output_grad = Some(grad_out.clone());
        }
        Ok(grad_in)
    }

    /// The backward taking the output gradient by value: a recording
    /// layer keeps it as [`Conv2d::recorded_output_grad`] without a copy.
    pub(crate) fn backward_owned(
        &mut self,
        grad_out: Tensor,
        grads: Grads,
    ) -> Result<Tensor, NnError> {
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
        // Per-sample weight gradients run in parallel waves and are
        // reduced serially in ascending sample order below — the exact
        // summation order of the serial loop — so results are
        // bit-identical for any thread count. The wave bounds memory to
        // `threads` per-sample gw tensors instead of the whole batch.
        let wave = cap_par::effective_parallelism().max(1);
        let x = self
            .cached_input
            .as_ref()
            .ok_or(NnError::MissingCache { layer: "Conv2d" })?;
        let mut s0 = 0;
        while s0 < n {
            let count = wave.min(n - s0);
            let gws = cap_par::parallel_map(count, |i| {
                let s = s0 + i;
                let g = Tensor::from_vec(
                    vec![geom.out_channels, geom.out_h * geom.out_w],
                    grad_out.data()[s * per_sample..(s + 1) * per_sample].to_vec(),
                )?;
                // dW contribution: g · colsᵀ, lowered from the input.
                matmul_transpose_b(&g, &im2col(x, s, geom)?)
            });
            for gw in gws {
                grad_wmat.axpy(1.0, &gw?)?;
            }
            s0 += count;
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
        // Surviving filters copy in parallel: chunk i is exactly filter
        // keep[i], so writes are disjoint and the result is a pure
        // permutation-select — identical for any thread count.
        let mut w = vec![0.0f32; keep.len() * fsize];
        let src = self.weight.data();
        cap_par::parallel_chunks_mut(&mut w, fsize, |i, chunk| {
            let f = keep[i];
            chunk.copy_from_slice(&src[f * fsize..(f + 1) * fsize]);
        });
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
        // parallel copy is a pure select.
        let in_c = self.in_channels();
        let mut w = vec![0.0f32; out_c * keep.len() * plane];
        let src = self.weight.data();
        cap_par::parallel_chunks_mut(&mut w, plane, |i, chunk| {
            let f = i / keep.len();
            let c = keep[i % keep.len()];
            let base = (f * in_c + c) * plane;
            chunk.copy_from_slice(&src[base..base + plane]);
        });
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
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 8, 6, 6]);
    }

    #[test]
    fn rejects_bad_input() {
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, false, &mut rng()).unwrap();
        assert!(conv.forward(&Tensor::ones(&[2, 4, 6, 6])).is_err());
        assert!(conv.forward(&Tensor::ones(&[2, 3, 6])).is_err());
        assert!(conv.backward(&Tensor::ones(&[2, 8, 6, 6])).is_err()); // no forward yet
    }

    #[test]
    fn backward_weight_gradient_matches_finite_difference() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, true, &mut rng()).unwrap();
        let x = cap_tensor::randn(&[1, 2, 4, 4], 0.0, 1.0, &mut rng());
        // Loss = sum(output); dL/dout = ones.
        let y = conv.forward(&x).unwrap();
        let g = Tensor::ones(y.shape());
        conv.zero_grad();
        conv.backward(&g).unwrap();
        let analytic = conv.grad_weight().clone();

        let eps = 1e-3f32;
        for idx in [0usize, 5, 17, 30] {
            let orig = conv.weight().data()[idx];
            conv.weight_mut().data_mut()[idx] = orig + eps;
            let y1 = cap_tensor::sum_all(&conv.forward(&x).unwrap());
            conv.weight_mut().data_mut()[idx] = orig - eps;
            let y2 = cap_tensor::sum_all(&conv.forward(&x).unwrap());
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
        let y = conv.forward(&x).unwrap();
        let g = Tensor::ones(y.shape());
        let gin = conv.backward(&g).unwrap();

        let eps = 1e-3f32;
        for idx in [0usize, 7, 23, 49] {
            let orig = x.data()[idx];
            x.data_mut()[idx] = orig + eps;
            let y1 = cap_tensor::sum_all(&conv.forward(&x).unwrap());
            x.data_mut()[idx] = orig - eps;
            let y2 = cap_tensor::sum_all(&conv.forward(&x).unwrap());
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
        // A direct-kernel geometry and a strided one that lowers.
        for stride in [1, 2] {
            let mut conv = Conv2d::new(3, 5, 3, stride, 1, false, &mut rng()).unwrap();
            let x = cap_tensor::randn(&[4, 3, 6, 6], 0.0, 1.0, &mut rng());
            let y = conv.forward(&x).unwrap();
            let g = Tensor::from_fn(y.shape(), |i| ((i as f32) * 0.37).sin());
            conv.zero_grad();
            conv.backward(&g).unwrap();
            let geom = conv.cached_geom.unwrap();
            let per_out = geom.out_channels * geom.col_cols();
            let mut want = Tensor::zeros(&[geom.out_channels, geom.col_rows()]);
            for s in 0..4 {
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
    fn recording_captures_output_and_grad() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, false, &mut rng()).unwrap();
        conv.set_record_activations(true);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let y = conv.forward(&x).unwrap();
        let g = Tensor::full(y.shape(), 0.5);
        conv.backward(&g).unwrap();
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
        let full = conv.forward(&x).unwrap();
        let keep = [0usize, 2];
        conv.retain_output_channels(&keep).unwrap();
        let pruned = conv.forward(&x).unwrap();
        for (new_f, &old_f) in keep.iter().enumerate() {
            for h in 0..5 {
                for w in 0..5 {
                    assert!((pruned.at4(0, new_f, h, w) - full.at4(0, old_f, h, w)).abs() < 1e-5);
                }
            }
        }
    }
}
