use litho_tensor::{Result, Tensor, TensorError};

use crate::layer::{Layer, Param, Phase};

/// Batch normalisation over the channel axis of NCHW tensors
/// (Ioffe & Szegedy, paper reference \[23\]).
///
/// In [`Phase::Train`] the layer normalises with batch statistics and
/// updates exponential running statistics; in [`Phase::Eval`] it uses the
/// running statistics, so a freshly initialised layer acts close to the
/// identity on unit-variance data.
#[derive(Debug)]
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    cache: Option<BnCache>,
    /// Workspace for the normalised activations of a train forward, reused
    /// every step; cycles through the train cache like the conv layers'
    /// saved inputs.
    ws_x_hat: Tensor,
}

#[derive(Debug)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps with the
    /// conventional `eps = 1e-5` and running-stat momentum `0.1`.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cache: None,
            ws_x_hat: crate::util::empty(),
        }
    }

    /// Running mean per channel (for tests and serialization).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// Running variance per channel.
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    /// Overwrites the running statistics (used by the weight loader).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if lengths differ from the
    /// channel count.
    pub fn set_running_stats(&mut self, mean: &[f32], var: &[f32]) -> Result<()> {
        if mean.len() != self.channels || var.len() != self.channels {
            return Err(TensorError::LengthMismatch {
                expected: self.channels,
                actual: mean.len().min(var.len()),
            });
        }
        self.running_mean.copy_from_slice(mean);
        self.running_var.copy_from_slice(var);
        Ok(())
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, phase: Phase) -> Result<Tensor> {
        let [n, c, h, w] = input.shape().as_nchw()?;
        if c != self.channels {
            return Err(TensorError::InvalidArgument(format!(
                "BatchNorm2d expects {} channels, got {c}",
                self.channels
            )));
        }
        let plane = h * w;
        let count = (n * plane) as f32;
        let _span = litho_tensor::profile::kernel_span(
            || format!("batchnorm[{n}x{c}x{h}x{w}]"),
            litho_tensor::profile::KernelCost::batchnorm(n * c * plane),
        );
        let src = input.as_slice();
        let mut out = Tensor::zeros(&[n, c, h, w]);

        let (mean, var) = if phase == Phase::Train {
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            for (ci, m) in mean.iter_mut().enumerate() {
                let mut sum = 0.0f64;
                for b in 0..n {
                    let off = (b * c + ci) * plane;
                    sum += src[off..off + plane].iter().map(|&v| v as f64).sum::<f64>();
                }
                *m = (sum / count as f64) as f32;
            }
            for ci in 0..c {
                let m = mean[ci] as f64;
                let mut sum = 0.0f64;
                for b in 0..n {
                    let off = (b * c + ci) * plane;
                    sum += src[off..off + plane]
                        .iter()
                        .map(|&v| {
                            let d = v as f64 - m;
                            d * d
                        })
                        .sum::<f64>();
                }
                var[ci] = (sum / count as f64) as f32;
            }
            for ci in 0..c {
                self.running_mean[ci] =
                    (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean[ci];
                self.running_var[ci] =
                    (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var[ci];
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        // Backward reads x_hat, so only a train forward keeps it; an eval
        // forward writes each plane's x_hat to one reused plane instead.
        let train = phase == Phase::Train;
        let mut eval_plane = Vec::new();
        if train {
            crate::util::ensure_shape(&mut self.ws_x_hat, &[n, c, h, w]);
        } else {
            eval_plane.resize(plane, 0.0);
        }
        {
            // Kernel level resolved once per forward; the scalar level is
            // the exact reference loop, AVX2 fuses gamma*xh+beta per lane.
            let level = litho_tensor::active_level();
            let gamma = self.gamma.value.as_slice();
            let beta = self.beta.value.as_slice();
            let xh = self.ws_x_hat.as_mut_slice();
            let dst = out.as_mut_slice();
            for b in 0..n {
                for ci in 0..c {
                    let off = (b * c + ci) * plane;
                    let xh = if train {
                        &mut xh[off..off + plane]
                    } else {
                        &mut eval_plane[..]
                    };
                    litho_tensor::simd::bn_normalize_affine(
                        level,
                        &src[off..off + plane],
                        xh,
                        &mut dst[off..off + plane],
                        mean[ci],
                        inv_std[ci],
                        gamma[ci],
                        beta[ci],
                    );
                }
            }
        }

        if train {
            // Lend x_hat to the cache; backward returns it to the workspace.
            self.cache = Some(BnCache {
                x_hat: std::mem::replace(&mut self.ws_x_hat, crate::util::empty()),
                inv_std,
            });
        } else {
            self.cache = None;
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self.cache.take().ok_or_else(|| {
            TensorError::InvalidArgument("BatchNorm2d::backward called before train forward".into())
        })?;
        let [n, c, h, w] = grad_output.shape().as_nchw()?;
        if grad_output.dims() != cache.x_hat.dims() {
            return Err(TensorError::ShapeMismatch {
                left: grad_output.dims().to_vec(),
                right: cache.x_hat.dims().to_vec(),
            });
        }
        let plane = h * w;
        let count = (n * plane) as f32;
        let _span = litho_tensor::profile::kernel_span(
            || format!("batchnorm_bwd[{n}x{c}x{h}x{w}]"),
            litho_tensor::profile::KernelCost::batchnorm(n * c * plane),
        );
        let dy = grad_output.as_slice();
        let xh = cache.x_hat.as_slice();
        let gamma = self.gamma.value.as_slice();
        let level = litho_tensor::active_level();

        // Per-channel reductions; the scalar level folds in the reference
        // plane order, so it is bit-identical to the naive loop.
        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xh = vec![0.0f32; c];
        for b in 0..n {
            for ci in 0..c {
                let off = (b * c + ci) * plane;
                litho_tensor::simd::bn_sum_and_dot(
                    level,
                    &dy[off..off + plane],
                    &xh[off..off + plane],
                    &mut sum_dy[ci],
                    &mut sum_dy_xh[ci],
                );
            }
        }

        // Parameter gradients.
        {
            let dg = self.gamma.grad.as_mut_slice();
            let db = self.beta.grad.as_mut_slice();
            for ci in 0..c {
                dg[ci] += sum_dy_xh[ci];
                db[ci] += sum_dy[ci];
            }
        }

        // Input gradient:
        // dx = gamma * inv_std * (dy - mean(dy) - x_hat * mean(dy*x_hat))
        let mut dx = Tensor::zeros(&[n, c, h, w]);
        {
            let out = dx.as_mut_slice();
            for b in 0..n {
                for ci in 0..c {
                    let off = (b * c + ci) * plane;
                    let k = gamma[ci] * cache.inv_std[ci];
                    let mean_dy = sum_dy[ci] / count;
                    let mean_dy_xh = sum_dy_xh[ci] / count;
                    litho_tensor::simd::bn_backward_dx(
                        level,
                        &dy[off..off + plane],
                        &xh[off..off + plane],
                        &mut out[off..off + plane],
                        k,
                        mean_dy,
                        mean_dy_xh,
                    );
                }
            }
        }
        // Return the lent x_hat buffer to the workspace for the next step.
        self.ws_x_hat = cache.x_hat;
        Ok(dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn name(&self) -> String {
        format!("BatchNorm2d({})", self.channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litho_tensor::rng::{Rng, SeedableRng};

    #[test]
    fn train_output_is_normalized() {
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(0);
        let mut bn = BatchNorm2d::new(2);
        let data: Vec<f32> = (0..2 * 2 * 4 * 4).map(|_| rng.gen_range(-3.0..5.0)).collect();
        let x = Tensor::from_vec(data, &[2, 2, 4, 4]).unwrap();
        let y = bn.forward(&x, Phase::Train).unwrap();
        // Per-channel mean ~0, variance ~1.
        for ci in 0..2 {
            let mut vals = Vec::new();
            for b in 0..2 {
                for i in 0..16 {
                    vals.push(y.as_slice()[(b * 2 + ci) * 16 + i]);
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>()
                / vals.len() as f32;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        bn.set_running_stats(&[2.0], &[4.0]).unwrap();
        let x = Tensor::full(&[1, 1, 2, 2], 4.0);
        let y = bn.forward(&x, Phase::Eval).unwrap();
        // (4 - 2) / sqrt(4 + eps) ≈ 1.
        for &v in y.as_slice() {
            assert!((v - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn eval_forward_keeps_no_workspace() {
        let mut bn = BatchNorm2d::new(2);
        bn.set_running_stats(&[0.5, -1.0], &[2.0, 0.25]).unwrap();
        let x = Tensor::from_vec((0..2 * 2 * 3 * 3).map(|v| v as f32).collect(), &[2, 2, 3, 3])
            .unwrap();
        let eval = bn.forward(&x, Phase::Eval).unwrap();
        assert!(bn.ws_x_hat.is_empty(), "eval forward grew the x_hat workspace");
        // Same bits as normalising every plane with the running statistics.
        let [n, c, plane] = [2, 2, 9];
        let mut want = vec![0.0f32; x.len()];
        for b in 0..n {
            for ci in 0..c {
                let (mean, var) = (bn.running_mean()[ci], bn.running_var()[ci]);
                let inv_std = 1.0 / (var + bn.eps).sqrt();
                let off = (b * c + ci) * plane;
                let mut xh = vec![0.0; plane];
                litho_tensor::simd::bn_normalize_affine(
                    litho_tensor::active_level(),
                    &x.as_slice()[off..off + plane],
                    &mut xh,
                    &mut want[off..off + plane],
                    mean,
                    inv_std,
                    1.0,
                    0.0,
                );
            }
        }
        assert_eq!(eval.as_slice(), &want[..]);
    }

    #[test]
    fn running_stats_move_toward_batch_stats() {
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(1);
        let mut bn = BatchNorm2d::new(1);
        let data: Vec<f32> = (0..64).map(|_| 10.0 + rng.gen_range(-0.1f32..0.1)).collect();
        let x = Tensor::from_vec(data, &[4, 1, 4, 4]).unwrap();
        for _ in 0..50 {
            bn.forward(&x, Phase::Train).unwrap();
        }
        assert!((bn.running_mean()[0] - 10.0).abs() < 0.1);
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut bn = BatchNorm2d::new(3);
        assert!(bn.forward(&Tensor::zeros(&[1, 2, 2, 2]), Phase::Train).is_err());
    }

    #[test]
    fn gradient_check() {
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(5);
        let bn = BatchNorm2d::new(3);
        let _ = &mut rng;
        crate::gradcheck::check_layer(Box::new(bn), &[2, 3, 3, 3], 1e-2, 2e-2);
    }
}
