//! `train_small`: one alternating cGAN D/G update plus one centre-CNN
//! update per operation, at `NetConfig::scaled(64)` and the paper's batch
//! of 4.

use std::time::Instant;

use litho_dataset::{generate, DatasetConfig};
use litho_nn::{bce_with_logits, l1_loss, mse_loss, Adam, Layer, Optimizer, Phase, Sequential};
use litho_sim::ProcessConfig;
use litho_tensor::rng::{SeedableRng, SliceRandom, StdRng};
use litho_tensor::{Result, Tensor, TensorError};
use lithogan::{CenterCnn, Cgan, NetConfig, TrainConfig, TrainPair};

use super::{all_finite, layer_type_values, per_ms, tensor_values, Plan, Scale, Workload};
use crate::metrics::{Checks, Values};
use crate::trace::Recorder;

pub struct TrainSmall {
    cgan: Cgan,
    center: CenterCnn,
    pairs: Vec<TrainPair>,
    centers: Vec<(Tensor, (f32, f32))>,
    cfg: TrainConfig,
    image_size: usize,
    /// Optimizers of the call-by-call replica (the models' own are private).
    opt_g: Adam,
    opt_d: Adam,
    opt_c: Adam,
    /// Seconds of the last `op`'s two public calls.
    last_calls: [f64; 2],
}

/// The shuffled sample order the `train_epoch` methods draw from `seed`.
fn shuffled(seed: u64, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    order
}

fn net_finite(net: &mut Sequential) -> bool {
    let mut ok = true;
    net.visit_params(&mut |p| ok &= all_finite(p.value.as_slice()));
    ok
}

impl TrainSmall {
    fn params_finite(&mut self) -> bool {
        net_finite(self.cgan.generator_mut())
            & net_finite(self.cgan.discriminator_mut())
            & net_finite(self.center.network_mut())
    }

    #[cfg(test)]
    pub fn param_bits(&mut self) -> Vec<u32> {
        let mut bits = Vec::new();
        let mut collect = |net: &mut Sequential| {
            net.visit_params(&mut |p| bits.extend(p.value.as_slice().iter().map(|v| v.to_bits())));
        };
        collect(self.cgan.generator_mut());
        collect(self.cgan.discriminator_mut());
        collect(self.center.network_mut());
        bits
    }

    #[cfg(test)]
    pub fn poison_generator(&mut self) {
        let mut first = true;
        self.cgan.generator_mut().visit_params(&mut |p| {
            if std::mem::take(&mut first) {
                p.value.as_mut_slice()[0] = f32::NAN;
            }
        });
    }
}

impl Workload for TrainSmall {
    const NOMINAL_OP_S: f64 = 0.25;

    fn setup(plan: &Plan) -> Result<Self> {
        let (image_size, batch) = match plan.scale {
            Scale::Full => (64, TrainConfig::paper().batch_size),
            Scale::Tiny => (16, 2),
        };
        let mut data = DatasetConfig::scaled(ProcessConfig::n10(), batch, image_size);
        data.seed = plan.seed;
        let samples = generate(&data)?.0.samples;
        if samples.len() != batch {
            return Err(TensorError::InvalidArgument(format!(
                "seed {} produced {} of {batch} training clips",
                plan.seed,
                samples.len()
            )));
        }
        let pairs = samples
            .iter()
            .map(|s| TrainPair::from_dataset(&s.mask, &s.golden_centered))
            .collect::<Result<Vec<_>>>()?;
        let centers = samples
            .iter()
            .map(|s| (s.mask.clone(), s.center_px))
            .collect();
        let net = NetConfig::scaled(image_size);
        let cfg = TrainConfig {
            batch_size: batch,
            seed: plan.seed,
            ..TrainConfig::paper()
        };
        let adam = || Adam::new(cfg.learning_rate, cfg.beta1, cfg.beta2);
        Ok(TrainSmall {
            cgan: Cgan::with_train_config(&net, &cfg, plan.seed),
            center: CenterCnn::new(&net, plan.seed.wrapping_add(7)),
            pairs,
            centers,
            image_size,
            opt_g: adam(),
            opt_d: adam(),
            opt_c: adam(),
            cfg,
            last_calls: [0.0; 2],
        })
    }

    fn clips_per_op(&self) -> usize {
        self.pairs.len()
    }

    fn op(&mut self, index: usize, checks: &mut Checks) -> Result<f64> {
        let t0 = Instant::now();
        let (g_loss, d_loss) = self.cgan.train_epoch(&self.pairs, &self.cfg, index)?;
        let t1 = Instant::now();
        let c_loss = self.center.train_epoch(&self.centers, &self.cfg, index)?;
        let t2 = Instant::now();
        self.last_calls = [(t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64()];
        let ok = all_finite(&[g_loss, d_loss, c_loss]) && self.params_finite();
        checks.record(ok, || {
            format!("train step {index}: non-finite loss or parameter")
        });
        Ok((t2 - t0).as_secs_f64())
    }

    fn traced_op(&mut self, index: usize, rec: &mut Recorder, checks: &mut Checks) -> Result<f64> {
        let t_op = Instant::now();
        let n = self.pairs.len();
        let lambda = self.cfg.lambda;

        // cGAN: the alternating D/G update of `Cgan::train_epoch`.
        let (x, y, ones, zeros) = rec.time("core.glue", || {
            let order = shuffled(self.cfg.seed.wrapping_add(index as u64), n);
            let pick = |f: fn(&TrainPair) -> &Tensor| -> Result<Tensor> {
                Tensor::stack(
                    &order
                        .iter()
                        .map(|&i| f(&self.pairs[i]).clone())
                        .collect::<Vec<_>>(),
                )
            };
            Ok::<_, TensorError>((
                pick(|p| &p.input)?,
                pick(|p| &p.target)?,
                Tensor::ones(&[n, 1]),
                Tensor::zeros(&[n, 1]),
            ))
        })?;
        let fake = rec.window("nn.G.fwd", || {
            self.cgan.generator_mut().forward(&x, Phase::Train)
        })?;
        rec.time("nn.adam", || self.cgan.discriminator_mut().zero_grad());
        let real_pair = rec.time("core.glue", || Tensor::concat_channels(&[&x, &y]))?;
        let real_logits = rec.window("nn.D.fwd", || {
            self.cgan
                .discriminator_mut()
                .forward(&real_pair, Phase::Train)
        })?;
        let real_loss = rec.time("core.glue", || bce_with_logits(&real_logits, &ones))?;
        rec.window("nn.D.bwd", || {
            self.cgan.discriminator_mut().backward(&real_loss.grad)
        })?;
        let fake_pair = rec.time("core.glue", || Tensor::concat_channels(&[&x, &fake]))?;
        let fake_logits = rec.window("nn.D.fwd", || {
            self.cgan
                .discriminator_mut()
                .forward(&fake_pair, Phase::Train)
        })?;
        let fake_loss = rec.time("core.glue", || bce_with_logits(&fake_logits, &zeros))?;
        rec.window("nn.D.bwd", || {
            self.cgan.discriminator_mut().backward(&fake_loss.grad)
        })?;
        rec.time("nn.adam", || self.opt_d.step(self.cgan.discriminator_mut()));

        rec.time("nn.adam", || self.cgan.generator_mut().zero_grad());
        let fake = rec.window("nn.G.fwd", || {
            self.cgan.generator_mut().forward(&x, Phase::Train)
        })?;
        let fake_pair = rec.time("core.glue", || Tensor::concat_channels(&[&x, &fake]))?;
        let logits = rec.window("nn.D.fwd", || {
            self.cgan
                .discriminator_mut()
                .forward(&fake_pair, Phase::Train)
        })?;
        let adv = rec.time("core.glue", || bce_with_logits(&logits, &ones))?;
        let d_input_grad = rec.window("nn.D.bwd", || {
            self.cgan.discriminator_mut().backward(&adv.grad)
        })?;
        let (g_grad, recon_loss) = rec.time("core.glue", || {
            let in_ch = x.dims()[1];
            let parts = d_input_grad.split_channels(&[in_ch, fake.dims()[1]])?;
            let mut g_grad = parts[1].clone();
            let recon = l1_loss(&fake, &y)?;
            g_grad.add_scaled_assign(&recon.grad, lambda)?;
            Ok::<_, TensorError>((g_grad, recon.loss))
        })?;
        rec.window("nn.G.bwd", || self.cgan.generator_mut().backward(&g_grad))?;
        rec.time("nn.adam", || self.opt_g.step(self.cgan.generator_mut()));

        // Centre CNN: the update of `CenterCnn::train_epoch`.
        let mid = (self.image_size as f32 - 1.0) / 2.0;
        let scale = self.image_size as f32 / 8.0;
        let (cx, target) = rec.time("core.glue", || {
            let order = shuffled(
                self.cfg
                    .seed
                    .wrapping_add(0xCE17)
                    .wrapping_add(index as u64),
                n,
            );
            let xs: Vec<Tensor> = order
                .iter()
                .map(|&i| self.centers[i].0.map(|v| v * 2.0 - 1.0))
                .collect();
            let mut target = Tensor::zeros(&[n, 2]);
            for (row, &i) in order.iter().enumerate() {
                let (cy, cx) = self.centers[i].1;
                target.set(&[row, 0], (cy - mid) / scale)?;
                target.set(&[row, 1], (cx - mid) / scale)?;
            }
            Ok::<_, TensorError>((Tensor::stack(&xs)?, target))
        })?;
        rec.time("nn.adam", || self.center.network_mut().zero_grad());
        let pred = rec.window("nn.C.fwd", || {
            self.center.network_mut().forward(&cx, Phase::Train)
        })?;
        let c_loss = rec.time("core.glue", || mse_loss(&pred, &target))?;
        rec.window("nn.C.bwd", || {
            self.center.network_mut().backward(&c_loss.grad)
        })?;
        rec.time("nn.adam", || self.opt_c.step(self.center.network_mut()));
        let wall = t_op.elapsed().as_secs_f64();

        let losses = [
            real_loss.loss,
            fake_loss.loss,
            adv.loss,
            recon_loss,
            c_loss.loss,
        ];
        let ok = all_finite(&losses) && self.params_finite();
        checks.record(ok, || {
            format!("traced train step {index}: non-finite loss or parameter")
        });
        Ok(wall)
    }

    fn core_calls(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("core.cgan_step_ms", self.last_calls[0]),
            ("core.center_step_ms", self.last_calls[1]),
        ]
    }

    fn layer_values(&self, rec: &Recorder, traced_ops: usize, out: &mut Values) {
        for (row, span) in [
            ("nn.G.fwd_ms", "nn.G.fwd"),
            ("nn.G.bwd_ms", "nn.G.bwd"),
            ("nn.D.fwd_ms", "nn.D.fwd"),
            ("nn.D.bwd_ms", "nn.D.bwd"),
            ("nn.C.fwd_ms", "nn.C.fwd"),
            ("nn.C.bwd_ms", "nn.C.bwd"),
            ("nn.adam_ms", "nn.adam"),
        ] {
            out.insert(row, per_ms(rec.span_secs(span), traced_ops));
        }
        layer_type_values(rec, traced_ops, out);
        tensor_values(rec, traced_ops, traced_ops * self.pairs.len(), out);
    }
}
