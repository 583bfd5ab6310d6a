//! The workloads and the loop that measures them.
//!
//! Every workload does a fixed number of operations after a warm-up that
//! is not timed. The count follows from `--seconds` and a nominal
//! per-operation cost, never from the clock, so a slow run does the same
//! work as a fast one. Inputs come from the workload seed alone.

mod golden;
mod predict;
mod train;

use std::collections::BTreeMap;
use std::time::Instant;

use litho_tensor::{Result, TensorError};

use crate::metrics::{median, release_free_memory, reset_peak_rss, Checks, Values};
use crate::trace::Recorder;

pub use golden::Golden;
pub use predict::PredictPaper;
pub use train::TrainSmall;

/// Workload names, as `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &["predict_paper", "golden", "train_small"];

/// Independent set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Untimed operations before measuring.
const WARMUP_OPS: usize = 1;

/// Input sizes: the measured shapes, or a tiny set for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// What one run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

impl Plan {
    fn ops(&self, nominal_op_s: f64) -> usize {
        ((self.seconds / nominal_op_s).round() as usize).max(1)
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Typical seconds per operation at full scale on a 2-core host.
    const NOMINAL_OP_S: f64;

    /// Generates the inputs and builds the models (timed as `setup_s`).
    fn setup(plan: &Plan) -> Result<Self>;

    /// Clips one operation processes.
    fn clips_per_op(&self) -> usize;

    /// One operation through the program's public API. Returns the timed
    /// seconds; output checks run after the timing stops.
    fn op(&mut self, index: usize, checks: &mut Checks) -> Result<f64>;

    /// The same operation driven call by call, each call a span of `rec`.
    /// Returns the operation's wall seconds (extra probes excluded).
    fn traced_op(&mut self, index: usize, rec: &mut Recorder, checks: &mut Checks) -> Result<f64>;

    /// Seconds of each `core` public call the last `op` made, keyed by
    /// its per-layer row (`core.cgan_step_ms`, ...).
    fn core_calls(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// End-of-run checks.
    fn finish(&mut self, _checks: &mut Checks) -> Result<()> {
        Ok(())
    }

    /// Per-layer values from `traced_ops` replica operations in `rec`.
    fn layer_values(&self, rec: &Recorder, traced_ops: usize, out: &mut Values);
}

/// Result of one run.
pub struct Outcome {
    pub checks: Checks,
    pub values: Values,
    pub ops: usize,
}

/// Runs workload `name` under `plan`.
pub fn run(name: &str, plan: &Plan) -> Result<Outcome> {
    match name {
        "predict_paper" => drive::<PredictPaper>(plan),
        "golden" => drive::<Golden>(plan),
        "train_small" => drive::<TrainSmall>(plan),
        other => Err(TensorError::InvalidArgument(format!(
            "unknown workload {other:?}; expected one of {NAMES:?}"
        ))),
    }
}

fn drive<W: Workload>(plan: &Plan) -> Result<Outcome> {
    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up and hand its memory back first, so
        // every repeat starts like the first one in a fresh process.
        drop(workload.take());
        release_free_memory();
        let t0 = Instant::now();
        workload = Some(W::setup(plan)?);
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up");
    // `peak_rss_mb` covers the operations: the set-ups' transient peaks
    // (thread-timing dependent inside `generate`) are excluded,
    // while everything set-up keeps alive still counts.
    if !reset_peak_rss() {
        eprintln!("peak RSS could not be reset; peak_rss_mb includes set-up");
    }
    let mut checks = Checks::default();
    let ops = plan.ops(W::NOMINAL_OP_S);
    // Warm-up operations draw inputs from indices the timed ones never use.
    let warmup_base = 1 << 20;
    for i in 0..WARMUP_OPS {
        w.op(warmup_base + i, &mut checks)?;
    }

    let mut values = Values::new();
    if !plan.trace {
        let secs = (0..ops)
            .map(|i| w.op(i, &mut checks))
            .collect::<Result<Vec<_>>>()?;
        eprintln!("set-up seconds: {}", summary(&setup_secs));
        eprintln!("op seconds: {}", summary(&secs));
        values.insert("clips_per_s", w.clips_per_op() as f64 / median(&secs));
        values.insert("setup_s", median(&setup_secs));
    } else {
        // A: public API, telemetry off. B: the same calls with telemetry,
        // pool profiling and the kernel sink on, for the overhead share;
        // A and B alternate so both see the same machine. C: the
        // call-by-call replica that yields the per-layer rows.
        let n = ops.div_ceil(2);
        let mut scratch = Recorder::new();
        let (mut a, mut b) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut core = BTreeMap::<&'static str, Vec<f64>>::new();
        for i in 0..n {
            a.push(w.op(2 * i, &mut checks)?);
            for (row, secs) in w.core_calls() {
                core.entry(row).or_default().push(secs);
            }
            b.push(scratch.window("program", || w.op(2 * i + 1, &mut checks))?);
        }
        let mut rec = Recorder::new();
        let c = (2 * n..3 * n)
            .map(|i| w.traced_op(i, &mut rec, &mut checks))
            .collect::<Result<Vec<_>>>()?;
        let wall: f64 = c.iter().sum();
        w.layer_values(&rec, n, &mut values);
        for (row, secs) in &core {
            values.insert(row, median(secs) * 1e3);
        }
        values.insert("core.glue_share", rec.span_secs("core.glue") / wall);
        values.insert("unattributed_share", 1.0 - rec.covered_secs() / wall);
        values.insert("telemetry.overhead_share", median(&b) / median(&a) - 1.0);
        eprintln!(
            "untraced {:.4} clips/s, traced {:.4} clips/s",
            w.clips_per_op() as f64 / median(&a),
            w.clips_per_op() as f64 / median(&b)
        );
    }
    w.finish(&mut checks)?;
    Ok(Outcome {
        checks,
        values,
        ops,
    })
}

/// `n`, min, median and max of a sample, for the log.
fn summary(values: &[f64]) -> String {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    format!(
        "n {} min {min:.4} median {:.4} max {max:.4}",
        values.len(),
        median(values)
    )
}

/// Milliseconds per unit: `secs` summed over `units` operations or clips.
fn per_ms(secs: f64, units: usize) -> f64 {
    secs * 1e3 / units.max(1) as f64
}

/// Whether every value is finite.
fn all_finite(values: &[f32]) -> bool {
    values.iter().all(|v| v.is_finite())
}

/// Tensor kernel rows shared by every workload.
fn tensor_values(rec: &Recorder, units: usize, clips: usize, out: &mut Values) {
    let gemm = rec.kernel("gemm");
    let fused = rec.kernel("conv_bwd_fused");
    let fft = rec.kernel("fft2");
    let mut bn = rec.kernel("batchnorm");
    let bn_bwd = rec.kernel("batchnorm_bwd");
    bn.secs += bn_bwd.secs;
    bn.flops += bn_bwd.flops;
    out.insert("tensor.gemm_ms", per_ms(gemm.secs, units));
    out.insert("tensor.gemm_gflops", gemm.gflops());
    out.insert("tensor.im2col_ms", per_ms(rec.kernel("im2col").secs, units));
    out.insert("tensor.col2im_ms", per_ms(rec.kernel("col2im").secs, units));
    out.insert("tensor.batchnorm_ms", per_ms(bn.secs, units));
    out.insert("tensor.batchnorm_gflops", bn.gflops());
    out.insert("tensor.conv_bwd_fused_ms", per_ms(fused.secs, units));
    out.insert("tensor.conv_bwd_fused_gflops", fused.gflops());
    out.insert("tensor.fft2_ms", per_ms(fft.secs, units));
    out.insert("tensor.fft2_gflops", fft.gflops());
    out.insert(
        "tensor.gflop_per_clip",
        rec.kernel_flops() / 1e9 / clips.max(1) as f64,
    );
    out.insert("tensor.pool_utilization", rec.pool_utilization());
}

/// `nn` per-layer-type rows, per operation.
fn layer_type_values(rec: &Recorder, units: usize, out: &mut Values) {
    for row in [
        "nn.conv.fwd_ms",
        "nn.conv.bwd_ms",
        "nn.deconv.fwd_ms",
        "nn.deconv.bwd_ms",
        "nn.batchnorm.fwd_ms",
        "nn.batchnorm.bwd_ms",
        "nn.other_ms",
    ] {
        out.insert(row, per_ms(rec.layer_type_secs(row), units));
    }
}
