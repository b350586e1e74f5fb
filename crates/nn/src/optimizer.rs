use crate::{Network, NnError};
use cap_tensor::Tensor;

/// Stochastic gradient descent with classical momentum and decoupled L2
/// weight decay, the optimiser used by the paper (lr 0.01, momentum 0.9,
/// weight decay 5e-4, batch 256).
///
/// The optimiser keys its velocity buffers by parameter position; any
/// structural change to the network (pruning, adding layers) invalidates
/// the buffers, which is detected by shape and causes an automatic reset
/// of the affected buffer.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocities: Vec<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimiser.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for a non-positive learning rate
    /// or negative momentum / weight decay.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Result<Self, NnError> {
        if lr <= 0.0 || !lr.is_finite() {
            return Err(NnError::InvalidConfig {
                reason: format!("learning rate must be positive, got {lr}"),
            });
        }
        if !(0.0..1.0).contains(&momentum) || weight_decay < 0.0 {
            return Err(NnError::InvalidConfig {
                reason: format!("momentum {momentum} or weight decay {weight_decay} out of range"),
            });
        }
        Ok(Sgd {
            lr,
            momentum,
            weight_decay,
            velocities: Vec::new(),
        })
    }

    /// The paper's optimiser setting: lr 0.01, momentum 0.9, wd 5e-4.
    pub fn paper() -> Self {
        Sgd::new(0.01, 0.9, 5e-4).expect("paper constants are valid")
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Sets the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one update step using the gradients accumulated in `net`.
    ///
    /// Velocity buffers are created lazily and reset whenever a
    /// parameter's shape changes (e.g. after pruning).
    pub fn step(&mut self, net: &mut Network) {
        let mut idx = 0usize;
        let lr = self.lr;
        let momentum = self.momentum;
        let wd = self.weight_decay;
        let velocities = &mut self.velocities;
        net.visit_params_mut(&mut |w, g| {
            if velocities.len() <= idx {
                velocities.push(Tensor::zeros(w.shape()));
            }
            if velocities[idx].shape() != w.shape() {
                velocities[idx] = Tensor::zeros(w.shape());
            }
            let wd_active = wd > 0.0 && w.ndim() > 1; // no decay on biases/BN
            cap_tensor::run_pass(MomentumStep {
                w: w.data_mut(),
                g: g.data(),
                v: velocities[idx].data_mut(),
                lr,
                momentum,
                wd: wd_active.then_some(wd),
            });
            idx += 1;
        });
        velocities.truncate(idx);
    }

    /// Drops all velocity state (call after structural changes if a clean
    /// restart is desired; `step` also self-heals on shape mismatch).
    pub fn reset(&mut self) {
        self.velocities.clear();
    }
}

/// One parameter's update: `grad = g (+ wd·w)`, `v = momentum·v +
/// grad`, `w −= lr·v`.
struct MomentumStep<'a> {
    w: &'a mut [f32],
    g: &'a [f32],
    v: &'a mut [f32],
    lr: f32,
    momentum: f32,
    /// The weight decay, on parameters that take it.
    wd: Option<f32>,
}

impl cap_tensor::ElementPass for MomentumStep<'_> {
    #[inline(always)]
    fn run(self) {
        let (lr, momentum) = (self.lr, self.momentum);
        let params = self.w.iter_mut().zip(self.g).zip(self.v.iter_mut());
        for ((w, &g), v) in params {
            let grad = match self.wd {
                Some(wd) => g + wd * *w,
                None => g,
            };
            let vel = momentum * *v + grad;
            *v = vel;
            *w -= lr * vel;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Conv2d, Relu};
    use crate::layer::{GlobalAvgPool, Linear};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(3)
    }

    fn net(rng: &mut rand::rngs::StdRng) -> Network {
        let mut net = Network::new();
        net.push(Conv2d::new(1, 2, 3, 1, 1, true, rng).unwrap());
        net.push(Relu::new());
        net.push(GlobalAvgPool::new());
        net.push(Linear::new(2, 2, rng).unwrap());
        net
    }

    #[test]
    fn config_validation() {
        assert!(Sgd::new(0.0, 0.9, 0.0).is_err());
        assert!(Sgd::new(0.1, 1.5, 0.0).is_err());
        assert!(Sgd::new(0.1, 0.9, -1.0).is_err());
        assert!(Sgd::new(0.1, 0.0, 0.0).is_ok());
    }

    #[test]
    fn step_descends_a_simple_quadratic() {
        // Minimise sum(w²) via grads = 2w; every step must shrink weights.
        let mut r = rng();
        let mut network = net(&mut r);
        let mut opt = Sgd::new(0.1, 0.0, 0.0).unwrap();
        let mut norm_before = 0.0;
        network.visit_params_mut(&mut |w, _| norm_before += w.l2_norm().powi(2));
        for _ in 0..5 {
            network.zero_grad();
            network.visit_params_mut(&mut |w, g| {
                for i in 0..w.numel() {
                    g.data_mut()[i] = 2.0 * w.data()[i];
                }
            });
            opt.step(&mut network);
        }
        let mut norm_after = 0.0;
        network.visit_params_mut(&mut |w, _| norm_after += w.l2_norm().powi(2));
        assert!(
            norm_after < norm_before * 0.5,
            "{norm_after} vs {norm_before}"
        );
    }

    #[test]
    fn momentum_accelerates_along_constant_gradient() {
        let mut r = rng();
        let mut network = net(&mut r);
        let mut plain = Sgd::new(0.01, 0.0, 0.0).unwrap();
        let mut heavy = Sgd::new(0.01, 0.9, 0.0).unwrap();
        let mut n_plain = network.clone();
        let mut n_heavy = network.clone();
        let run = |net: &mut Network, opt: &mut Sgd| {
            for _ in 0..10 {
                net.zero_grad();
                net.visit_params_mut(&mut |_, g| g.fill(1.0));
                opt.step(net);
            }
        };
        run(&mut n_plain, &mut plain);
        run(&mut n_heavy, &mut heavy);
        // With momentum the parameters travel further.
        let mut d_plain = 0.0;
        let mut d_heavy = 0.0;
        let mut orig = Vec::new();
        network.visit_params_mut(&mut |w, _| orig.push(w.clone()));
        let mut i = 0;
        n_plain.visit_params_mut(&mut |w, _| {
            d_plain += w.sub(&orig[i]).unwrap().l2_norm();
            i += 1;
        });
        i = 0;
        n_heavy.visit_params_mut(&mut |w, _| {
            d_heavy += w.sub(&orig[i]).unwrap().l2_norm();
            i += 1;
        });
        assert!(d_heavy > d_plain * 2.0);
    }

    #[test]
    fn velocities_self_heal_after_pruning() {
        let mut r = rng();
        let mut network = net(&mut r);
        let mut opt = Sgd::paper();
        network.zero_grad();
        network.visit_params_mut(&mut |_, g| g.fill(0.1));
        opt.step(&mut network);
        // Prune the conv output channels; shapes change.
        if let Some(c) = network.layers_mut()[0].as_conv_mut() {
            c.retain_output_channels(&[0]).unwrap();
        }
        if let crate::layer::Layer::Linear(l) = &mut network.layers_mut()[3] {
            l.retain_input_features(&[0]).unwrap();
        }
        network.zero_grad();
        network.visit_params_mut(&mut |_, g| g.fill(0.1));
        opt.step(&mut network); // must not panic
    }
}
