//! First-order optimizers.
//!
//! Optimizers hold per-parameter state keyed by the layer's stable
//! parameter visitation order (see [`Layer::visit_params`]), so the same
//! optimizer instance must always be stepped against the same network.

use litho_tensor::Tensor;

use crate::layer::Layer;

/// Magnitudes of one parameter tensor's most recent optimizer update,
/// in the layer's stable [`Layer::visit_params`] order.
///
/// The update-to-weight `ratio` is the classic training-health signal: a
/// healthy step moves each parameter tensor by roughly 1e-3 of its norm;
/// ratios near zero mean the layer has stopped learning, ratios near or
/// above one mean the optimizer is overshooting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UpdateStat {
    /// ℓ2 norm of the applied update Δw.
    pub update_l2: f32,
    /// ℓ2 norm of the parameter value after the update.
    pub weight_l2: f32,
    /// `update_l2 / weight_l2` (epsilon-guarded).
    pub ratio: f32,
}

impl UpdateStat {
    fn new(update_sq: f64, weight_sq: f64) -> UpdateStat {
        let update_l2 = update_sq.sqrt() as f32;
        let weight_l2 = weight_sq.sqrt() as f32;
        UpdateStat {
            update_l2,
            weight_l2,
            ratio: update_l2 / (weight_l2 + 1e-12),
        }
    }
}

/// A gradient-based parameter update rule.
pub trait Optimizer {
    /// Applies one update step using the gradients currently accumulated in
    /// `net`, then leaves the gradients untouched (call
    /// [`Layer::zero_grad`] before the next backward pass).
    fn step(&mut self, net: &mut dyn Layer);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// Enables collection of per-parameter [`UpdateStat`]s on subsequent
    /// [`Optimizer::step`] calls. Off by default; health monitors toggle
    /// it on only for sampled steps so untracked steps pay nothing.
    fn set_update_tracking(&mut self, _enabled: bool) {}

    /// Per-parameter statistics of the most recent tracked step (empty
    /// when tracking is off or no step ran since it was enabled).
    fn update_stats(&self) -> &[UpdateStat] {
        &[]
    }
}

/// Adam (Kingma & Ba, paper reference \[24\]).
///
/// The paper trains both networks with `lr = 2e-4`, `β₁ = 0.5`,
/// `β₂ = 0.999` — the standard GAN configuration; [`Adam::paper`] builds
/// exactly that.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    track_updates: bool,
    update_stats: Vec<UpdateStat>,
}

impl Adam {
    /// Creates an Adam optimizer with explicit hyper-parameters.
    pub fn new(lr: f32, beta1: f32, beta2: f32) -> Self {
        Adam {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
            track_updates: false,
            update_stats: Vec::new(),
        }
    }

    /// The paper's training configuration: `lr = 2e-4`, β = (0.5, 0.999).
    pub fn paper() -> Self {
        Adam::new(2e-4, 0.5, 0.999)
    }
}

impl Optimizer for Adam {
    fn step(&mut self, net: &mut dyn Layer) {
        self.t += 1;
        let lr = self.lr;
        let (b1, b2, eps, t) = (self.beta1, self.beta2, self.eps, self.t);
        let bias1 = 1.0 - b1.powi(t as i32);
        let bias2 = 1.0 - b2.powi(t as i32);
        let mut idx = 0;
        let m_state = &mut self.m;
        let v_state = &mut self.v;
        let track = self.track_updates;
        let stats = &mut self.update_stats;
        stats.clear();
        net.visit_params(&mut |p| {
            if m_state.len() <= idx {
                m_state.push(Tensor::zeros(p.value.dims()));
                v_state.push(Tensor::zeros(p.value.dims()));
            }
            debug_assert_eq!(m_state[idx].dims(), p.value.dims(), "optimizer/network mismatch");
            let m = m_state[idx].as_mut_slice();
            let v = v_state[idx].as_mut_slice();
            let val = p.value.as_mut_slice();
            let grad = p.grad.as_slice();
            if track {
                let mut update_sq = 0.0f64;
                let mut weight_sq = 0.0f64;
                for i in 0..val.len() {
                    let g = grad[i];
                    m[i] = b1 * m[i] + (1.0 - b1) * g;
                    v[i] = b2 * v[i] + (1.0 - b2) * g * g;
                    let m_hat = m[i] / bias1;
                    let v_hat = v[i] / bias2;
                    let delta = lr * m_hat / (v_hat.sqrt() + eps);
                    val[i] -= delta;
                    update_sq += (delta as f64) * (delta as f64);
                    weight_sq += (val[i] as f64) * (val[i] as f64);
                }
                stats.push(UpdateStat::new(update_sq, weight_sq));
            } else {
                for i in 0..val.len() {
                    let g = grad[i];
                    m[i] = b1 * m[i] + (1.0 - b1) * g;
                    v[i] = b2 * v[i] + (1.0 - b2) * g * g;
                    let m_hat = m[i] / bias1;
                    let v_hat = v[i] / bias2;
                    val[i] -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
            idx += 1;
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn set_update_tracking(&mut self, enabled: bool) {
        self.track_updates = enabled;
        if !enabled {
            self.update_stats.clear();
        }
    }

    fn update_stats(&self) -> &[UpdateStat] {
        &self.update_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{l1_loss, mse_loss, Layer, Linear, Phase, Sequential};
    use litho_tensor::Tensor;
    use litho_tensor::rng::SeedableRng;

    fn train_quadratic(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        // Minimise ||W x - target||² for a fixed x: loss must go to ~0.
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(0);
        let mut net = Sequential::new();
        net.push(Linear::new(3, 2, &mut rng));
        let x = Tensor::from_vec(vec![1.0, -0.5, 2.0], &[1, 3]).unwrap();
        let target = Tensor::from_vec(vec![0.7, -0.3], &[1, 2]).unwrap();
        let mut last = f32::INFINITY;
        for _ in 0..steps {
            net.zero_grad();
            let y = net.forward(&x, Phase::Train).unwrap();
            let lv = mse_loss(&y, &target).unwrap();
            net.backward(&lv.grad).unwrap();
            opt.step(&mut net);
            last = lv.loss;
        }
        last
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05, 0.9, 0.999);
        assert!(train_quadratic(&mut opt, 300) < 1e-4);
    }

    #[test]
    fn adam_converges_on_l1() {
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(1);
        let mut net = Sequential::new();
        net.push(Linear::new(2, 1, &mut rng));
        let mut opt = Adam::new(0.02, 0.9, 0.999);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let target = Tensor::from_vec(vec![5.0], &[1, 1]).unwrap();
        let mut last = f32::INFINITY;
        for _ in 0..2000 {
            net.zero_grad();
            let y = net.forward(&x, Phase::Train).unwrap();
            let lv = l1_loss(&y, &target).unwrap();
            net.backward(&lv.grad).unwrap();
            opt.step(&mut net);
            last = lv.loss;
        }
        assert!(last < 0.05, "l1 loss {last}");
    }

    #[test]
    fn update_tracking_reports_per_param_ratios() {
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(2);
        let mut net = Sequential::new();
        net.push(Linear::new(3, 2, &mut rng));
        let x = Tensor::from_vec(vec![1.0, -0.5, 2.0], &[1, 3]).unwrap();
        let target = Tensor::from_vec(vec![0.7, -0.3], &[1, 2]).unwrap();

        let mut opt = Adam::new(0.05, 0.9, 0.999);
        assert!(opt.update_stats().is_empty(), "tracking is off by default");
        opt.set_update_tracking(true);
        net.zero_grad();
        let y = net.forward(&x, Phase::Train).unwrap();
        let lv = mse_loss(&y, &target).unwrap();
        net.backward(&lv.grad).unwrap();
        opt.step(&mut net);
        let stats = opt.update_stats();
        assert_eq!(stats.len(), 2, "Linear has weight + bias");
        for s in stats {
            assert!(s.update_l2.is_finite() && s.update_l2 > 0.0);
            assert!(s.ratio.is_finite());
        }
        opt.set_update_tracking(false);
        assert!(opt.update_stats().is_empty());
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::paper();
        assert!((opt.learning_rate() - 2e-4).abs() < 1e-9);
        opt.set_learning_rate(1e-3);
        assert!((opt.learning_rate() - 1e-3).abs() < 1e-9);
    }
}
