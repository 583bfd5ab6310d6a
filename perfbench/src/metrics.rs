//! The metric table and the result line.
//!
//! Every name here is declared in `BENCHMARK.json` with the same unit; the
//! self-tests hold the two in step. `GLOSSARY.md` explains each metric.

use std::collections::BTreeMap;

/// One declared metric: its name and unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics a user of the system sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    def("clips_per_s", "clips/s"),
    def("setup_s", "s"),
    def("peak_rss_mb", "MB"),
];

/// Per-crate metrics of the traced run. `_ms` rows are per workload
/// operation (a train step, a predict batch or a golden clip).
pub const PER_LAYER: &[MetricDef] = &[
    def("core.cgan_step_ms", "ms"),
    def("core.center_step_ms", "ms"),
    def("core.predict_batch_ms", "ms"),
    def("core.glue_share", "ratio"),
    def("nn.G.fwd_ms", "ms"),
    def("nn.G.bwd_ms", "ms"),
    def("nn.D.fwd_ms", "ms"),
    def("nn.D.bwd_ms", "ms"),
    def("nn.C.fwd_ms", "ms"),
    def("nn.C.bwd_ms", "ms"),
    def("nn.adam_ms", "ms"),
    def("nn.G.fwd_eval_ms", "ms"),
    def("nn.C.fwd_eval_ms", "ms"),
    def("nn.conv.fwd_ms", "ms"),
    def("nn.conv.bwd_ms", "ms"),
    def("nn.deconv.fwd_ms", "ms"),
    def("nn.deconv.bwd_ms", "ms"),
    def("nn.batchnorm.fwd_ms", "ms"),
    def("nn.batchnorm.bwd_ms", "ms"),
    def("nn.other_ms", "ms"),
    def("tensor.gemm_ms", "ms"),
    def("tensor.gemm_gflops", "GFLOP/s"),
    def("tensor.im2col_ms", "ms"),
    def("tensor.col2im_ms", "ms"),
    def("tensor.batchnorm_ms", "ms"),
    def("tensor.batchnorm_gflops", "GFLOP/s"),
    def("tensor.conv_bwd_fused_ms", "ms"),
    def("tensor.conv_bwd_fused_gflops", "GFLOP/s"),
    def("tensor.fft2_ms", "ms"),
    def("tensor.fft2_gflops", "GFLOP/s"),
    def("tensor.gflop_per_clip", "GFLOP"),
    def("tensor.pool_utilization", "ratio"),
    def("sim.rigorous_ms", "ms"),
    def("sim.optical_ms", "ms"),
    def("sim.resist_contour_ms", "ms"),
    def("sim.compact_aerial_ms", "ms"),
    def("layout.clip_gen_ms", "ms"),
    def("layout.opc_ms", "ms"),
    def("layout.opc_iterations", "count"),
    def("layout.raster_ms", "ms"),
    def("dataset.golden_window_ms", "ms"),
    def("dataset.retry_share", "ratio"),
    def("dataset.opc_unconverged_share", "ratio"),
    def("metrics.score_ms", "ms"),
    def("unattributed_share", "ratio"),
    def("telemetry.overhead_share", "ratio"),
];

/// Measured values by metric name. Declared metrics a workload does not
/// exercise are reported as 0 (no calls into that layer were timed).
pub type Values = BTreeMap<&'static str, f64>;

/// Counts operations and failed output checks.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    first_failure: Option<String>,
}

impl Checks {
    /// Records one checked operation; `ok` is whether its outputs passed.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }

    /// The first failed check's description, if any.
    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }
}

/// The last line of the benchmark's standard output.
pub fn result_line(checks: &Checks, defs: &[MetricDef], values: &Values) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values.get(d.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(v),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed,
        metrics.join(", ")
    )
}

/// JSON has no NaN or infinity; a value that is not finite is written as
/// `null`, which the consumer refuses, rather than as a made-up number.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// JSON string literal with the escapes this benchmark's strings need.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Returns freed heap memory to the operating system, so what follows
/// pays for the memory it touches instead of reusing pages whose
/// retention depends on earlier allocation timing.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be
        // called at any time; it only releases free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Releases free memory, then restarts this process's peak resident set
/// size (`VmHWM`) from its current size, so the peak covers only what
/// follows. Returns false where the kernel refuses the reset.
pub fn reset_peak_rss() -> bool {
    release_free_memory();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}
