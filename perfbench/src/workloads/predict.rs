//! `predict_paper`: eval-mode `LithoGan::predict_batch` at the paper's
//! 256 × 256 architecture in batches of 8 held-out clips, each prediction
//! scored against its golden window.

use std::time::Instant;

use litho_dataset::{generate, DatasetConfig, Sample};
use litho_metrics::MetricAccumulator;
use litho_nn::{Layer, Phase};
use litho_sim::ProcessConfig;
use litho_tensor::{Result, Tensor, TensorError};
use lithogan::{LithoGan, NetConfig};

use super::{layer_type_values, per_ms, tensor_values, Plan, Scale, Workload};
use crate::metrics::{Checks, Values};
use crate::trace::Recorder;

pub struct PredictPaper {
    model: LithoGan,
    masks: Vec<Tensor>,
    goldens: Vec<Tensor>,
    nm_per_px: f64,
    image_size: usize,
    /// Outputs of the last public-API batch, which the replica must match.
    last: Vec<Tensor>,
    /// Inject a non-finite prediction (self-tests only).
    poison: bool,
    /// Seconds of the last `op`'s `predict_batch` call.
    last_call: f64,
}

impl PredictPaper {
    /// Scores a batch of predictions; one check per prediction plus one
    /// for the batch's mean EDE.
    fn score(&self, outputs: &[Tensor], checks: &mut Checks) -> Result<()> {
        let mut acc = MetricAccumulator::new(self.nm_per_px);
        for (pred, golden) in outputs.iter().zip(&self.goldens) {
            acc.add(pred, golden)?;
        }
        let ede = acc.summary().ede_mean_nm;
        let dims = [self.image_size, self.image_size];
        for (i, pred) in outputs.iter().enumerate() {
            let ok = pred.dims() == dims
                && pred
                    .as_slice()
                    .iter()
                    .all(|v| v.is_finite() && (0.0..=1.0).contains(v));
            checks.record(ok, || {
                format!("prediction {i}: wrong shape, non-finite or outside [0, 1]")
            });
        }
        checks.record(outputs.len() == self.masks.len() && ede.is_finite(), || {
            format!("batch of {}: mean EDE {ede} nm", outputs.len())
        });
        Ok(())
    }

    #[cfg(test)]
    pub fn poison_next_batch(&mut self) {
        self.poison = true;
    }
}

impl Workload for PredictPaper {
    const NOMINAL_OP_S: f64 = 13.5;

    fn setup(plan: &Plan) -> Result<Self> {
        let (net, batch) = match plan.scale {
            Scale::Full => (NetConfig::paper(), 8),
            Scale::Tiny => (NetConfig::scaled(16), 2),
        };
        let mut data = DatasetConfig::scaled(ProcessConfig::n10(), batch, net.image_size);
        data.seed = plan.seed;
        let (dataset, _) = generate(&data)?;
        if dataset.len() != batch {
            return Err(TensorError::InvalidArgument(format!(
                "seed {} produced {} of {batch} held-out clips",
                plan.seed,
                dataset.len()
            )));
        }
        Ok(PredictPaper {
            model: LithoGan::new(&net, plan.seed),
            masks: dataset.samples.iter().map(|s| s.mask.clone()).collect(),
            goldens: dataset.samples.iter().map(|s| s.golden.clone()).collect(),
            nm_per_px: data.golden_nm_per_px(),
            image_size: net.image_size,
            last: Vec::new(),
            poison: false,
            last_call: 0.0,
        })
    }

    fn clips_per_op(&self) -> usize {
        self.masks.len()
    }

    fn op(&mut self, _index: usize, checks: &mut Checks) -> Result<f64> {
        let masks: Vec<&Tensor> = self.masks.iter().collect();
        let t0 = Instant::now();
        let mut outputs = self.model.predict_batch(&masks)?;
        let t1 = Instant::now();
        if std::mem::take(&mut self.poison) {
            outputs[0].as_mut_slice()[0] = f32::NAN;
        }
        self.score(&outputs, checks)?;
        let t2 = Instant::now();
        self.last_call = (t1 - t0).as_secs_f64();
        self.last = outputs;
        Ok((t2 - t0).as_secs_f64())
    }

    fn traced_op(&mut self, index: usize, rec: &mut Recorder, checks: &mut Checks) -> Result<f64> {
        let t_op = Instant::now();
        let n = self.masks.len();
        let s = self.image_size;
        // `Cgan::predict_batch` and `CenterCnn::predict_batch` each stack
        // the masks, mapped from [0, 1] to [-1, 1].
        let stacked = |masks: &[Tensor]| -> Result<Tensor> {
            let mut data = Vec::with_capacity(masks.len() * masks[0].len());
            for m in masks {
                data.extend(m.as_slice().iter().map(|&v| v * 2.0 - 1.0));
            }
            Tensor::from_vec(data, &[masks.len(), 3, s, s])
        };
        let x = rec.time("core.glue", || stacked(&self.masks))?;
        let y = rec.window("nn.G.fwd_eval", || {
            self.model.cgan.generator_mut().forward(&x, Phase::Eval)
        })?;
        let (shapes, x) = rec.time("core.glue", || {
            let plane = s * s;
            let shapes = (0..n)
                .map(|i| {
                    let data = y.as_slice()[i * plane..(i + 1) * plane]
                        .iter()
                        .map(|&v| (v + 1.0) / 2.0)
                        .collect();
                    Tensor::from_vec(data, &[s, s])
                })
                .collect::<Result<Vec<_>>>()?;
            Ok::<_, TensorError>((shapes, stacked(&self.masks)?))
        })?;
        let out = rec.window("nn.C.fwd_eval", || {
            self.model.center.network_mut().forward(&x, Phase::Eval)
        })?;
        let adjusted = rec.time("core.glue", || {
            let mid = (s as f32 - 1.0) / 2.0;
            let scale = s as f32 / 8.0;
            (0..n)
                .map(|i| {
                    let center = (
                        mid + out.at(&[i, 0])? * scale,
                        mid + out.at(&[i, 1])? * scale,
                    );
                    Sample::recenter_to(&shapes[i], center)
                })
                .collect::<Result<Vec<_>>>()
        })?;
        rec.time("metrics.score", || self.score(&adjusted, checks))?;
        let wall = t_op.elapsed().as_secs_f64();
        let same = adjusted.len() == self.last.len()
            && adjusted.iter().zip(&self.last).all(|(a, b)| {
                a.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(b.as_slice().iter().map(|v| v.to_bits()))
            });
        checks.record(same, || {
            format!("traced batch {index} differs from predict_batch")
        });
        Ok(wall)
    }

    fn core_calls(&self) -> Vec<(&'static str, f64)> {
        vec![("core.predict_batch_ms", self.last_call)]
    }

    fn layer_values(&self, rec: &Recorder, traced_ops: usize, out: &mut Values) {
        out.insert(
            "nn.G.fwd_eval_ms",
            per_ms(rec.span_secs("nn.G.fwd_eval"), traced_ops),
        );
        out.insert(
            "nn.C.fwd_eval_ms",
            per_ms(rec.span_secs("nn.C.fwd_eval"), traced_ops),
        );
        out.insert(
            "metrics.score_ms",
            per_ms(rec.span_secs("metrics.score"), traced_ops),
        );
        layer_type_values(rec, traced_ops, out);
        tensor_values(rec, traced_ops, traced_ops * self.masks.len(), out);
    }
}
