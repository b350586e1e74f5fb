use crate::layer::conv::validate_keep;
use crate::layer::Grads;
use crate::NnError;
use cap_tensor::Tensor;

/// Fixed-order pairwise tree reduction over per-sample `[f64; 2]`
/// partials, per channel. Adjacent pairs are combined until one value
/// remains, so the summation grouping depends only on the sample
/// count — never on the thread count — and batch statistics stay
/// bit-identical for any `CAP_THREADS`.
fn tree_reduce_pairs(mut levels: Vec<Vec<[f64; 2]>>) -> Vec<[f64; 2]> {
    while levels.len() > 1 {
        let mut next = Vec::with_capacity(levels.len().div_ceil(2));
        let mut iter = levels.into_iter();
        while let Some(mut left) = iter.next() {
            if let Some(right) = iter.next() {
                for (l, r) in left.iter_mut().zip(right.iter()) {
                    l[0] += r[0];
                    l[1] += r[1];
                }
            }
            next.push(left);
        }
        levels = next;
    }
    levels.into_iter().next().unwrap_or_default()
}

/// Per-sample `[a, b]` partials for every channel, computed in
/// parallel (one task per sample), then tree-reduced in fixed order.
/// `f` maps the plane of one (sample, channel) pair, by its index
/// `s · c + ch`, to its `[a, b]` sums, accumulated from `0.0` in
/// ascending element order.
fn channel_partials(n: usize, c: usize, f: impl Fn(usize) -> [f64; 2] + Sync) -> Vec<[f64; 2]> {
    if n == 0 {
        return vec![[0.0f64; 2]; c];
    }
    let per_sample: Vec<Vec<[f64; 2]>> =
        cap_par::parallel_map(n, |s| (s * c..(s + 1) * c).map(&f).collect());
    tree_reduce_pairs(per_sample)
}

/// `(x − μ)·σ⁻¹` in f64: the forward rounds it to x̂ and scales it into
/// `y`, and an eval-mode `Grads::Full` backward recomputes x̂ from it.
#[inline(always)]
fn normalise(x: f32, mean: f64, inv_std: f64) -> f64 {
    (f64::from(x) - mean) * inv_std
}

/// `[Σg, Σg·x̂]` over one plane, from `0.0` in ascending element order.
#[inline]
fn grad_sums(g: &[f32], xhat: impl Iterator<Item = f32>) -> [f64; 2] {
    let mut acc = [0.0f64; 2];
    for (&g, xh) in g.iter().zip(xhat) {
        let g = f64::from(g);
        acc[0] += g;
        acc[1] += g * f64::from(xh);
    }
    acc
}

/// One sample's normalisation, channel plane by channel plane: `y =
/// γ·x̂ + β` with `x̂ = (x − μ)·σ⁻¹` in f64, and in training x̂ (rounded)
/// written over `x`.
struct NormaliseSample<'a> {
    x: &'a mut [f32],
    out: &'a mut [f32],
    plane: usize,
    means: &'a [f64],
    inv_stds: &'a [f64],
    gamma: &'a [f32],
    beta: &'a [f32],
    training: bool,
}

impl cap_tensor::ElementPass for NormaliseSample<'_> {
    #[inline(always)]
    fn run(self) {
        match self.plane {
            4 => self.planes::<4>(),
            16 => self.planes::<16>(),
            _ => self.planes::<0>(),
        }
    }
}

impl NormaliseSample<'_> {
    /// The pass over planes of `P` elements, or of `self.plane` for
    /// `P = 0`. A constant plane lets the 2×2 and 4×4 maps compile to a
    /// few whole vectors; a loop of unknown length runs planes shorter
    /// than its vector step one element at a time.
    #[inline(always)]
    fn planes<const P: usize>(self) {
        let plane = if P == 0 { self.plane } else { P };
        let planes = self
            .x
            .chunks_exact_mut(plane)
            .zip(self.out.chunks_exact_mut(plane));
        for (ch, (x, out)) in planes.enumerate() {
            let (mean, inv_std) = (self.means[ch], self.inv_stds[ch]);
            let (g, b) = (f64::from(self.gamma[ch]), f64::from(self.beta[ch]));
            if self.training {
                for (xh, y) in x.iter_mut().zip(out) {
                    let norm = normalise(*xh, mean, inv_std);
                    *xh = norm as f32;
                    *y = (g * norm + b) as f32;
                }
            } else {
                for (&mut v, y) in x.iter_mut().zip(out) {
                    *y = (g * normalise(v, mean, inv_std) + b) as f32;
                }
            }
        }
    }
}

/// One sample's input gradient, written over its output gradient `g`:
/// `k·g` per channel after an eval-mode forward, and with x̂ (training)
/// `k·(g − Σg/n − x̂·Σg·x̂/n)`, where `k = γ·σ⁻¹`.
struct InputGradSample<'a> {
    g: &'a mut [f32],
    xhat: Option<&'a [f32]>,
    plane: usize,
    ks: &'a [f64],
    sums: &'a [[f64; 2]],
    count: f64,
}

impl cap_tensor::ElementPass for InputGradSample<'_> {
    #[inline(always)]
    fn run(self) {
        match self.plane {
            4 => self.planes::<4>(),
            16 => self.planes::<16>(),
            _ => self.planes::<0>(),
        }
    }
}

impl InputGradSample<'_> {
    /// The pass over planes of `P` elements, or of `self.plane` for
    /// `P = 0`, as in [`NormaliseSample::planes`].
    #[inline(always)]
    fn planes<const P: usize>(self) {
        let (plane, count) = (if P == 0 { self.plane } else { P }, self.count);
        for (ch, g) in self.g.chunks_exact_mut(plane).enumerate() {
            let k = self.ks[ch];
            match self.xhat {
                Some(xhat) => {
                    let [sum_g, sum_gx] = self.sums[ch];
                    let mean_g = sum_g / count;
                    for (gi, &xh) in g.iter_mut().zip(&xhat[ch * plane..][..plane]) {
                        *gi =
                            (k * (f64::from(*gi) - mean_g - f64::from(xh) * sum_gx / count)) as f32;
                    }
                }
                None => {
                    for gi in g {
                        *gi = (k * f64::from(*gi)) as f32;
                    }
                }
            }
        }
    }
}

/// Batch normalisation over the channel dimension of an NCHW tensor.
///
/// In training mode the layer normalises with batch statistics and updates
/// exponential running estimates; in evaluation mode it uses the running
/// estimates. The learnable scale `gamma` doubles as the sparsity handle
/// for the SSS baseline, which regularises `|gamma|` towards zero.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Vec<f64>,
    running_var: Vec<f64>,
    momentum: f64,
    eps: f64,
    // Caches for backward: x̂ after a training-mode forward, the input
    // after an eval-mode one (x̂ is recomputed from it only when a
    // `Grads::Full` backward needs Σg·x̂).
    cached_map: Option<Tensor>,
    cached_mean: Vec<f64>,
    cached_inv_std: Vec<f64>,
    cached_shape: Vec<usize>,
    cached_training: bool,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps with
    /// `gamma = 1`, `beta = 0`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `channels == 0`.
    pub fn new(channels: usize) -> Result<Self, NnError> {
        if channels == 0 {
            return Err(NnError::InvalidConfig {
                reason: "batch-norm channel count must be non-zero".to_string(),
            });
        }
        Ok(BatchNorm2d {
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            cached_map: None,
            cached_mean: Vec::new(),
            cached_inv_std: Vec::new(),
            cached_shape: Vec::new(),
            cached_training: false,
        })
    }

    /// Reconstructs a batch-norm layer from raw parts (used by checkpoint
    /// loading).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the part lengths disagree or
    /// are zero.
    pub fn from_parts(
        gamma: Tensor,
        beta: Tensor,
        running_mean: Vec<f64>,
        running_var: Vec<f64>,
    ) -> Result<Self, NnError> {
        let c = gamma.numel();
        if c == 0 || beta.numel() != c || running_mean.len() != c || running_var.len() != c {
            return Err(NnError::InvalidConfig {
                reason: "batch-norm parts must share a non-zero channel count".to_string(),
            });
        }
        let mut bn = BatchNorm2d::new(c)?;
        bn.gamma = gamma;
        bn.beta = beta;
        bn.running_mean = running_mean;
        bn.running_var = running_var;
        Ok(bn)
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.gamma.numel()
    }

    /// The shift parameter `beta`.
    pub fn beta(&self) -> &Tensor {
        &self.beta
    }

    /// The running mean estimates.
    pub fn running_mean(&self) -> &[f64] {
        &self.running_mean
    }

    /// The running variance estimates.
    pub fn running_var(&self) -> &[f64] {
        &self.running_var
    }

    /// The scale parameter `gamma`.
    pub fn gamma(&self) -> &Tensor {
        &self.gamma
    }

    /// Mutable access to `gamma` (used by scaling-factor baselines).
    pub fn gamma_mut(&mut self) -> &mut Tensor {
        &mut self.gamma
    }

    /// The accumulated gradient of `gamma`.
    pub fn grad_gamma(&self) -> &Tensor {
        &self.grad_gamma
    }

    /// Mutable access to the `gamma` gradient (used by the SSS baseline's
    /// sparsity regulariser).
    pub fn grad_gamma_mut(&mut self) -> &mut Tensor {
        &mut self.grad_gamma
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_gamma.fill(0.0);
        self.grad_beta.fill(0.0);
    }

    /// Forward pass over an input taken by value. In training mode x̂ is
    /// written over it; in eval mode it is cached unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if `x` is not `[N, C, H, W]` with the
    /// layer's channel count, or, in training mode, if it holds no value
    /// per channel (`N·H·W = 0`), whose batch mean would be `0/0`.
    pub fn forward(&mut self, mut x: Tensor, training: bool) -> Result<Tensor, NnError> {
        if x.ndim() != 4 || x.dim(1) != self.channels() {
            return Err(NnError::BadInput {
                layer: "BatchNorm2d",
                expected: format!("[N, {}, H, W]", self.channels()),
                got: x.shape().to_vec(),
            });
        }
        if training && x.numel() == 0 {
            return Err(NnError::BadInput {
                layer: "BatchNorm2d",
                expected: "at least one value per channel in training mode".to_string(),
                got: x.shape().to_vec(),
            });
        }
        let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let count = (n * h * w) as f64;
        let plane = h * w;
        let mut out = Tensor::zeros(x.shape());
        let mut inv_stds = vec![0.0f64; c];
        // Per-channel batch statistics: per-sample partials in
        // parallel, fixed-order tree reduction across samples.
        let stats: Vec<[f64; 2]> = if training {
            let x_data = x.data();
            channel_partials(n, c, |p| {
                let mut acc = [0.0f64; 2];
                for &v in &x_data[p * plane..(p + 1) * plane] {
                    let v = f64::from(v);
                    acc[0] += v;
                    acc[1] += v * v;
                }
                acc
            })
        } else {
            Vec::new()
        };
        let mut means = vec![0.0f64; c];
        for ch in 0..c {
            let (mean, var) = if training {
                let [sum, sq] = stats[ch];
                let mean = sum / count;
                let var = (sq / count - mean * mean).max(0.0);
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean;
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var;
                (mean, var)
            } else {
                (self.running_mean[ch], self.running_var[ch])
            };
            means[ch] = mean;
            inv_stds[ch] = 1.0 / (var + self.eps).sqrt();
        }
        // Normalisation writes are pure per-element maps; one task per
        // sample (each owns a contiguous `c · plane` slice of `out`, and
        // in training of `x`), walking it one channel plane at a time.
        {
            let (means, inv_stds) = (&means, &inv_stds);
            let (gamma, beta) = (self.gamma.data(), self.beta.data());
            // At least 1: an empty map has no chunks to hand out.
            let sample = (c * plane).max(1);
            let tasks: Vec<cap_par::ScopedTask<'_>> = x
                .data_mut()
                .chunks_mut(sample)
                .zip(out.data_mut().chunks_mut(sample))
                .map(|(x, out)| {
                    let task: cap_par::ScopedTask<'_> = Box::new(move || {
                        cap_tensor::run_pass(NormaliseSample {
                            x,
                            out,
                            plane,
                            means,
                            inv_stds,
                            gamma,
                            beta,
                            training,
                        });
                    });
                    task
                })
                .collect();
            cap_par::run_tasks(tasks);
        }
        self.cached_shape = x.shape().to_vec();
        self.cached_map = Some(x);
        self.cached_mean = means;
        self.cached_inv_std = inv_stds;
        self.cached_training = training;
        Ok(out)
    }

    /// Backward pass over a gradient taken by value, which the input
    /// gradient is written over.
    ///
    /// After a training-mode forward the full batch-statistic coupling is
    /// differentiated; after an eval-mode forward the layer is the fixed
    /// affine map `γ·(x − μ̂)/σ̂ + β`, so the input gradient is simply
    /// `γ·σ̂⁻¹·g` — the case used when scoring a frozen, pre-trained
    /// network (paper Eq. 3–4). [`Grads::InputOnly`] skips the γ/β
    /// gradients, which after an eval-mode forward leaves the per-channel
    /// sums uncomputed; under [`Grads::Full`] their x̂ is recomputed from
    /// the cached input, the same expression the forward rounds.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingCache`] if called before `forward`, or
    /// [`NnError::BadInput`] on shape mismatch.
    pub fn backward(&mut self, mut grad_out: Tensor, grads: Grads) -> Result<Tensor, NnError> {
        let cached = self.cached_map.as_ref().ok_or(NnError::MissingCache {
            layer: "BatchNorm2d",
        })?;
        if grad_out.shape() != self.cached_shape.as_slice() {
            return Err(NnError::BadInput {
                layer: "BatchNorm2d backward",
                expected: format!("{:?}", self.cached_shape),
                got: grad_out.shape().to_vec(),
            });
        }
        let (n, c, h, w) = (
            self.cached_shape[0],
            self.cached_shape[1],
            self.cached_shape[2],
            self.cached_shape[3],
        );
        let plane = h * w;
        let count = (n * h * w) as f64;
        let training = self.cached_training;
        // Per-channel (Σg, Σg·x̂): per-sample partials in parallel,
        // fixed-order tree reduction across samples. Needed by the
        // training-mode input gradient and by the γ/β gradients.
        let go_data = grad_out.data();
        let cached_data = cached.data();
        let sums: Vec<[f64; 2]> = if training || grads == Grads::Full {
            let (means, inv_stds) = (&self.cached_mean, &self.cached_inv_std);
            channel_partials(n, c, |p| {
                let span = p * plane..(p + 1) * plane;
                let g = &go_data[span.clone()];
                if training {
                    grad_sums(g, cached_data[span].iter().copied())
                } else {
                    let (mean, inv_std) = (means[p % c], inv_stds[p % c]);
                    let xhat = cached_data[span]
                        .iter()
                        .map(|&v| normalise(v, mean, inv_std) as f32);
                    grad_sums(g, xhat)
                }
            })
        } else {
            Vec::new()
        };
        if grads == Grads::Full {
            for (ch, [sum_g, sum_gx]) in sums.iter().enumerate() {
                self.grad_beta.data_mut()[ch] += *sum_g as f32;
                self.grad_gamma.data_mut()[ch] += *sum_gx as f32;
            }
        }
        let ks: Vec<f64> = (0..c)
            .map(|ch| f64::from(self.gamma.data()[ch]) * self.cached_inv_std[ch])
            .collect();
        let (ks, sums) = (&ks, &sums);
        cap_par::parallel_chunks_mut(grad_out.data_mut(), c * plane, |s, g| {
            cap_tensor::run_pass(InputGradSample {
                g,
                xhat: training.then(|| &cached_data[s * c * plane..(s + 1) * c * plane]),
                plane,
                ks,
                sums,
                count,
            });
        });
        Ok(grad_out)
    }

    /// Drops the forward caches `backward` reads (x̂ or the input, the
    /// means, the inverse standard deviations and the input shape).
    pub(crate) fn clear_cache(&mut self) {
        self.cached_map = None;
        self.cached_mean = Vec::new();
        self.cached_inv_std = Vec::new();
        self.cached_shape = Vec::new();
    }

    /// Keeps only the listed channels, matching a pruning of the
    /// producing convolution's filters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for an invalid keep-set.
    pub fn retain_channels(&mut self, keep: &[usize]) -> Result<(), NnError> {
        validate_keep(keep, self.channels(), "batch-norm channels")?;
        let pick = |t: &Tensor| -> Vec<f32> { keep.iter().map(|&i| t.data()[i]).collect() };
        self.gamma = Tensor::from_vec(vec![keep.len()], pick(&self.gamma))?;
        self.beta = Tensor::from_vec(vec![keep.len()], pick(&self.beta))?;
        self.grad_gamma = Tensor::zeros(&[keep.len()]);
        self.grad_beta = Tensor::zeros(&[keep.len()]);
        self.running_mean = keep.iter().map(|&i| self.running_mean[i]).collect();
        self.running_var = keep.iter().map(|&i| self.running_var[i]).collect();
        self.clear_cache();
        Ok(())
    }

    /// Number of learnable parameters.
    pub fn num_params(&self) -> usize {
        2 * self.channels()
    }

    pub(crate) fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.gamma, &mut self.grad_gamma);
        f(&mut self.beta, &mut self.grad_beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `channel_partials` as it was before the slice-wise rewrite: one
    /// closure call per element index.
    fn indexed_channel_partials(
        n: usize,
        c: usize,
        plane: usize,
        f: impl Fn(usize) -> [f64; 2] + Sync,
    ) -> Vec<[f64; 2]> {
        if n == 0 {
            return vec![[0.0f64; 2]; c];
        }
        let per_sample: Vec<Vec<[f64; 2]>> = cap_par::parallel_map(n, |s| {
            let mut acc = vec![[0.0f64; 2]; c];
            for (ch, slot) in acc.iter_mut().enumerate() {
                let base = (s * c + ch) * plane;
                for i in base..base + plane {
                    let [a, b] = f(i);
                    slot[0] += a;
                    slot[1] += b;
                }
            }
            acc
        });
        tree_reduce_pairs(per_sample)
    }

    /// `forward` after its shape check as it was before the slice-wise
    /// rewrite, every element addressed by index. It runs the samples
    /// one after another instead of one task each, which changes no value.
    /// Like the layer before it cached its eval-mode input, it computes x̂
    /// in both modes; it returns `(y, x̂)`, and [`indexed_backward`] reads
    /// that x̂.
    fn indexed_forward(bn: &mut BatchNorm2d, x: &Tensor, training: bool) -> (Tensor, Tensor) {
        let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let count = (n * h * w) as f64;
        let plane = h * w;
        let mut out = Tensor::zeros(x.shape());
        let mut xhat = Tensor::zeros(x.shape());
        let mut inv_stds = vec![0.0f64; c];
        let stats: Vec<[f64; 2]> = if training {
            indexed_channel_partials(n, c, plane, |i| {
                let v = f64::from(x.data()[i]);
                [v, v * v]
            })
        } else {
            Vec::new()
        };
        let mut means = vec![0.0f64; c];
        for ch in 0..c {
            let (mean, var) = if training {
                let [sum, sq] = stats[ch];
                let mean = sum / count;
                let var = (sq / count - mean * mean).max(0.0);
                bn.running_mean[ch] =
                    (1.0 - bn.momentum) * bn.running_mean[ch] + bn.momentum * mean;
                bn.running_var[ch] = (1.0 - bn.momentum) * bn.running_var[ch] + bn.momentum * var;
                (mean, var)
            } else {
                (bn.running_mean[ch], bn.running_var[ch])
            };
            means[ch] = mean;
            inv_stds[ch] = 1.0 / (var + bn.eps).sqrt();
        }
        let x_data = x.data();
        let sample = c * plane;
        for (s, (xh_chunk, out_chunk)) in xhat
            .data_mut()
            .chunks_mut(sample)
            .zip(out.data_mut().chunks_mut(sample))
            .enumerate()
        {
            for ch in 0..c {
                let base = (s * c + ch) * plane;
                let local = ch * plane;
                let g = f64::from(bn.gamma.data()[ch]);
                let b = f64::from(bn.beta.data()[ch]);
                for off in 0..plane {
                    let xh = (f64::from(x_data[base + off]) - means[ch]) * inv_stds[ch];
                    xh_chunk[local + off] = xh as f32;
                    out_chunk[local + off] = (g * xh + b) as f32;
                }
            }
        }
        bn.cached_map = None;
        bn.cached_inv_std = inv_stds;
        bn.cached_shape = x.shape().to_vec();
        bn.cached_training = training;
        (out, xhat)
    }

    /// The backward after its cache and shape checks as it was before
    /// the slice-wise rewrite, serial like [`indexed_forward`], reading
    /// the x̂ that forward returned.
    fn indexed_backward(
        bn: &mut BatchNorm2d,
        xhat: &Tensor,
        grad_out: &Tensor,
        grads: Grads,
    ) -> Tensor {
        let (n, c, h, w) = (
            bn.cached_shape[0],
            bn.cached_shape[1],
            bn.cached_shape[2],
            bn.cached_shape[3],
        );
        let plane = h * w;
        let count = (n * h * w) as f64;
        let training = bn.cached_training;
        let mut grad_in = Tensor::zeros(grad_out.shape());
        let sums: Vec<[f64; 2]> = if training || grads == Grads::Full {
            indexed_channel_partials(n, c, plane, |i| {
                let g = f64::from(grad_out.data()[i]);
                [g, g * f64::from(xhat.data()[i])]
            })
        } else {
            Vec::new()
        };
        if grads == Grads::Full {
            for (ch, [sum_g, sum_gx]) in sums.iter().enumerate() {
                bn.grad_beta.data_mut()[ch] += *sum_g as f32;
                bn.grad_gamma.data_mut()[ch] += *sum_gx as f32;
            }
        }
        let ks: Vec<f64> = (0..c)
            .map(|ch| f64::from(bn.gamma.data()[ch]) * bn.cached_inv_std[ch])
            .collect();
        let go_data = grad_out.data();
        let xh_data = xhat.data();
        for (s, gi_chunk) in grad_in.data_mut().chunks_mut(c * plane).enumerate() {
            for ch in 0..c {
                let base = (s * c + ch) * plane;
                let local = ch * plane;
                let k = ks[ch];
                for off in 0..plane {
                    let g = f64::from(go_data[base + off]);
                    let gi = if training {
                        let [sum_g, sum_gx] = sums[ch];
                        let xh = f64::from(xh_data[base + off]);
                        k * (g - sum_g / count - xh * sum_gx / count)
                    } else {
                        k * g
                    };
                    gi_chunk[local + off] = gi as f32;
                }
            }
        }
        grad_in
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    /// The layer's x̂: cached after a training-mode forward, recomputed
    /// from the cached input (as an eval-mode `Grads::Full` backward
    /// does) after an eval-mode one.
    fn xhat(bn: &BatchNorm2d) -> Vec<f32> {
        let cached = bn.cached_map.as_ref().unwrap();
        if bn.cached_training {
            return cached.data().to_vec();
        }
        let (c, plane) = (bn.cached_shape[1], bn.cached_shape[2] * bn.cached_shape[3]);
        let stats = |i: usize| {
            let ch = i / plane % c;
            (bn.cached_mean[ch], bn.cached_inv_std[ch])
        };
        cached
            .data()
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let (mean, inv_std) = stats(i);
                normalise(v, mean, inv_std) as f32
            })
            .collect()
    }

    fn bits64(v: &[f64]) -> Vec<u64> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    /// Channel 0 cycles through NaN, ±∞, ±0.0, subnormals and ordinary
    /// values; channel 1 through the finite ones only, so its batch
    /// statistics stay finite while channel 0's go NaN.
    fn special(i: usize, ch: usize) -> f32 {
        const ANY: [f32; 10] = [
            f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            1e-40,
            f32::NEG_INFINITY,
            -1e-40,
            1.5,
            f32::MIN_POSITIVE,
            -2.25,
        ];
        const FINITE: [f32; 7] = [0.75, -0.0, 1e-40, 0.0, -3.5, -1e-42, 2.0];
        if ch == 0 {
            ANY[i % ANY.len()]
        } else {
            FINITE[i % FINITE.len()]
        }
    }

    #[test]
    fn slice_loops_match_the_indexed_loops_bit_for_bit() {
        let c = 2;
        for n in [1, 3] {
            for w in [1, 7] {
                for training in [true, false] {
                    for grads in [Grads::Full, Grads::InputOnly] {
                        let what = format!("n={n} plane={w} training={training} {grads:?}");
                        let shape = [n, c, 1, w];
                        let x = Tensor::from_fn(&shape, |i| special(i, i / w % c));
                        let g = Tensor::from_fn(&shape, |i| special(i + 3, i / w % c));
                        // Channel 1's running mean sits just off its 0.75
                        // inputs, so x − μ cancels to a few ulps of μ and a
                        // reassociated normalisation shows in f32.
                        let mut bn = BatchNorm2d::from_parts(
                            Tensor::from_vec(vec![c], vec![1.3, -0.7]).unwrap(),
                            Tensor::from_vec(vec![c], vec![0.25, -1.5]).unwrap(),
                            vec![0.5, 0.75 + 1e-12],
                            vec![2.0, 0.25],
                        )
                        .unwrap();
                        bn.grad_gamma_mut().fill(0.5);
                        let mut reference = bn.clone();
                        let y = bn.forward(x.clone(), training).unwrap();
                        let (y_ref, xhat_ref) = indexed_forward(&mut reference, &x, training);
                        assert_eq!(bits(y.data()), bits(y_ref.data()), "{what}: output");
                        assert_eq!(bits(&xhat(&bn)), bits(xhat_ref.data()), "{what}: x-hat");
                        assert_eq!(
                            bits64(&bn.cached_inv_std),
                            bits64(&reference.cached_inv_std)
                        );
                        assert_eq!(bits64(bn.running_mean()), bits64(reference.running_mean()));
                        assert_eq!(bits64(bn.running_var()), bits64(reference.running_var()));
                        let gi = bn.backward(g.clone(), grads).unwrap();
                        let gi_ref = indexed_backward(&mut reference, &xhat_ref, &g, grads);
                        assert_eq!(bits(gi.data()), bits(gi_ref.data()), "{what}: input grad");
                        assert_eq!(
                            bits(bn.grad_gamma().data()),
                            bits(reference.grad_gamma().data())
                        );
                        assert_eq!(bits(bn.grad_beta.data()), bits(reference.grad_beta.data()));
                        // Channel 1 saw no NaN or ∞, so its results are finite.
                        let finite = |t: &Tensor| {
                            (0..n).all(|s| (0..w).all(|i| t.at4(s, 1, 0, i).is_finite()))
                        };
                        assert!(finite(&y) && finite(&gi), "{what}: channel 1");
                    }
                }
            }
        }
    }

    #[test]
    fn eval_forward_then_full_backward_matches_the_xhat_caching_loop() {
        // The path TPP's scoring takes: an eval-mode forward, which now
        // caches the input, then a full backward, which recomputes x̂
        // for Σg·x̂. The reference caches x̂ at the forward, as the layer
        // did before. Running means sit near the inputs (x − μ cancels)
        // and variances span small to large inverse deviations.
        let (n, c, h, w) = (3, 5, 4, 6);
        let x = Tensor::from_fn(&[n, c, h, w], |i| {
            ((i as f32) * 0.37).sin() * (1.0 + (i % 11) as f32 * 13.0)
        });
        let g = Tensor::from_fn(x.shape(), |i| ((i as f32) * 0.53).cos() * 0.1);
        let mut bn = BatchNorm2d::from_parts(
            Tensor::from_fn(&[c], |ch| 0.3 + ch as f32 * 0.45),
            Tensor::from_fn(&[c], |ch| ch as f32 * -0.2),
            (0..c)
                .map(|ch| f64::from(x.data()[ch * h * w]) + 1e-9)
                .collect(),
            (0..c).map(|ch| 10f64.powi(ch as i32 - 2)).collect(),
        )
        .unwrap();
        bn.grad_gamma_mut().fill(0.25);
        let mut reference = bn.clone();
        let y = bn.forward(x.clone(), false).unwrap();
        let (y_ref, xhat_ref) = indexed_forward(&mut reference, &x, false);
        assert_eq!(bits(y.data()), bits(y_ref.data()), "output");
        let gi = bn.backward(g.clone(), Grads::Full).unwrap();
        let gi_ref = indexed_backward(&mut reference, &xhat_ref, &g, Grads::Full);
        assert_eq!(
            bits(bn.grad_gamma().data()),
            bits(reference.grad_gamma().data()),
            "gamma grad"
        );
        assert_eq!(
            bits(bn.grad_beta.data()),
            bits(reference.grad_beta.data()),
            "beta grad"
        );
        assert_eq!(bits(gi.data()), bits(gi_ref.data()), "input grad");
    }

    #[test]
    fn training_forward_normalises_batch() {
        let mut bn = BatchNorm2d::new(2).unwrap();
        let x = Tensor::from_fn(&[4, 2, 3, 3], |i| (i % 13) as f32);
        let y = bn.forward(x, true).unwrap();
        // Per-channel mean ~0, var ~1.
        for ch in 0..2 {
            let mut vals = Vec::new();
            for s in 0..4 {
                for h in 0..3 {
                    for w in 0..3 {
                        vals.push(f64::from(y.at4(s, ch, h, w)));
                    }
                }
            }
            let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
            let var: f64 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1).unwrap();
        let x = Tensor::full(&[2, 1, 2, 2], 4.0);
        for _ in 0..200 {
            bn.forward(x.clone(), true).unwrap();
        }
        // Constant input: batch var 0, running mean -> 4. Eval normalises
        // a 4.0 input to ~0.
        let y = bn.forward(x, false).unwrap();
        assert!(
            y.data().iter().all(|&v| v.abs() < 1e-2),
            "{:?}",
            &y.data()[..2]
        );
    }

    #[test]
    fn backward_matches_finite_difference_through_loss() {
        let mut bn = BatchNorm2d::new(2).unwrap();
        bn.gamma_mut().data_mut()[0] = 1.3;
        bn.gamma_mut().data_mut()[1] = 0.7;
        let mut x = Tensor::from_fn(&[2, 2, 2, 2], |i| ((i * 7 % 11) as f32) * 0.3 - 1.0);
        // Loss = weighted sum of outputs to make per-element grads distinct.
        let wts = Tensor::from_fn(&[2, 2, 2, 2], |i| ((i % 5) as f32) - 2.0);
        bn.forward(x.clone(), true).unwrap();
        let gin = bn.backward(wts.clone(), Grads::Full).unwrap();
        let eps = 1e-3f32;
        for idx in [0usize, 3, 9, 15] {
            let orig = x.data()[idx];
            let loss = |bn: &mut BatchNorm2d, x: &Tensor| -> f64 {
                let y = bn.forward(x.clone(), true).unwrap();
                y.data()
                    .iter()
                    .zip(wts.data())
                    .map(|(&a, &b)| f64::from(a) * f64::from(b))
                    .sum()
            };
            x.data_mut()[idx] = orig + eps;
            let l1 = loss(&mut bn, &x);
            x.data_mut()[idx] = orig - eps;
            let l2 = loss(&mut bn, &x);
            x.data_mut()[idx] = orig;
            let fd = ((l1 - l2) / (2.0 * f64::from(eps))) as f32;
            let an = gin.data()[idx];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                "idx {idx}: {fd} vs {an}"
            );
        }
    }

    #[test]
    fn eval_backward_is_fixed_affine_gradient() {
        let mut bn = BatchNorm2d::new(1).unwrap();
        bn.gamma_mut().data_mut()[0] = 2.0;
        // Shape running stats away from the defaults.
        let x = Tensor::from_fn(&[4, 1, 2, 2], |i| (i as f32) * 0.5 - 2.0);
        for _ in 0..100 {
            bn.forward(x.clone(), true).unwrap();
        }
        bn.forward(x, false).unwrap();
        let g = Tensor::ones(&[4, 1, 2, 2]);
        let gin = bn.backward(g, Grads::Full).unwrap();
        // In eval mode dL/dx = gamma / sqrt(running_var + eps) uniformly.
        let v = gin.data()[0];
        assert!(gin.data().iter().all(|&a| (a - v).abs() < 1e-6));
        assert!(v > 0.0);
        // And it must differ from the training-mode gradient, which sums
        // to ~0 per channel.
        let sum: f32 = gin.data().iter().sum();
        assert!(sum.abs() > 1.0);
    }

    #[test]
    fn retain_channels_keeps_state() {
        let mut bn = BatchNorm2d::new(4).unwrap();
        bn.gamma_mut()
            .data_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        bn.retain_channels(&[1, 3]).unwrap();
        assert_eq!(bn.channels(), 2);
        assert_eq!(bn.gamma().data(), &[2.0, 4.0]);
        assert!(bn.retain_channels(&[5]).is_err());
    }

    #[test]
    fn rejects_bad_shapes() {
        let mut bn = BatchNorm2d::new(3).unwrap();
        assert!(bn.forward(Tensor::ones(&[1, 2, 2, 2]), true).is_err());
        assert!(bn
            .backward(Tensor::ones(&[1, 3, 2, 2]), Grads::Full)
            .is_err());
        assert!(BatchNorm2d::new(0).is_err());
    }

    #[test]
    fn empty_inputs_pass_eval_and_are_rejected_in_training() {
        let mut bn = BatchNorm2d::new(3).unwrap();
        for shape in [[2, 3, 0, 4], [0, 3, 4, 4]] {
            let x = Tensor::zeros(&shape);
            assert!(bn.forward(x.clone(), true).is_err(), "{shape:?}");
            assert_eq!(bn.running_mean(), &[0.0; 3], "{shape:?}: statistics kept");
            assert_eq!(bn.forward(x.clone(), false).unwrap().shape(), x.shape());
            let g = bn.backward(x.clone(), Grads::InputOnly).unwrap();
            assert_eq!(g.shape(), x.shape());
        }
    }
}
