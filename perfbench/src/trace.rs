//! The traced run's recorder.
//!
//! Spans are the benchmark's own: `time` and `window` wrap one public call
//! each and add its wall time to a named row. A `window` also switches on
//! the program's existing telemetry for the duration of that one call —
//! `Sequential`'s per-layer histograms, the tensor kernel spans with their
//! FLOP counts, and worker-pool profiling — so the numbers of different
//! networks never merge. Everything is aggregated in memory.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use litho_telemetry::{Event, EventKind, Sink, Value};
use litho_tensor::pool;

/// Summed durations and FLOPs of one tensor kernel family.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelTotals {
    pub secs: f64,
    pub flops: f64,
}

impl KernelTotals {
    /// Achieved GFLOP/s, 0 when the kernel never ran.
    pub fn gflops(&self) -> f64 {
        if self.secs > 0.0 {
            self.flops / self.secs / 1e9
        } else {
            0.0
        }
    }
}

type KernelMap = Arc<Mutex<BTreeMap<String, KernelTotals>>>;

/// Folds closing kernel spans (`gemm[..]`, `fft2[..]`, ...) into per-family
/// totals. A kernel span nested inside another kernel span is already part
/// of its parent's time and cost, so only outermost kernels count. Kernels
/// run on pool workers are summed over threads.
struct KernelSink(KernelMap);

impl Sink for KernelSink {
    fn emit(&mut self, event: &Event) {
        if event.kind != EventKind::Span {
            return;
        }
        let (parent, leaf) = event.name.rsplit_once('/').unwrap_or(("", event.name));
        let Some((family, _)) = leaf.split_once('[') else {
            return;
        };
        if parent.contains('[') {
            return;
        }
        let mut totals = KernelTotals::default();
        for (key, value) in event.fields {
            match (*key, value) {
                ("dur_us", Value::F64(us)) => totals.secs = us / 1e6,
                ("flops", Value::U64(f)) => totals.flops = *f as f64,
                _ => {}
            }
        }
        let mut map = self.0.lock().expect("kernel totals lock poisoned");
        let entry = map.entry(family.to_string()).or_default();
        entry.secs += totals.secs;
        entry.flops += totals.flops;
    }
}

/// Per-row wall times of the traced operations.
#[derive(Default)]
pub struct Recorder {
    /// Rows timed directly inside an operation; together they should
    /// cover its wall time.
    spans: BTreeMap<&'static str, f64>,
    /// Values derived from program reports or extra probes; not part of
    /// the coverage sum.
    derived: BTreeMap<&'static str, f64>,
    /// `nn.<type>.<dir>_ms` row → seconds, from `Sequential` histograms.
    layer_types: BTreeMap<&'static str, f64>,
    kernels: KernelMap,
    pool_busy_us: u64,
    pool_thread_us: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Runs `f` as one span of `row`, with the program's telemetry off.
    pub fn time<T>(&mut self, row: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        *self.spans.entry(row).or_default() += t0.elapsed().as_secs_f64();
        out
    }

    /// Runs `f` as one span of `row` with the program's telemetry and pool
    /// profiling on, then folds what they recorded into this recorder.
    pub fn window<T>(&mut self, row: &'static str, f: impl FnOnce() -> T) -> T {
        litho_telemetry::set_sink(Some(Box::new(KernelSink(Arc::clone(&self.kernels)))));
        pool::set_profiling(true);
        litho_telemetry::enable();
        let base = pool::stats();
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        let delta = pool::stats().delta_since(&base);
        litho_telemetry::disable();
        pool::set_profiling(false);
        *self.spans.entry(row).or_default() += secs;
        self.pool_busy_us += delta.busy_us;
        self.pool_thread_us += delta.thread_us;
        for (name, hist) in litho_telemetry::snapshot().histograms {
            if let Some(row) = layer_type_row(&name) {
                *self.layer_types.entry(row).or_default() += hist.sum;
            }
        }
        // Clears the registry and drops the sink for the next window.
        litho_telemetry::reset();
        out
    }

    /// Adds a derived value (a report split, a count, a probe).
    pub fn derive(&mut self, row: &'static str, value: f64) {
        *self.derived.entry(row).or_default() += value;
    }

    pub fn span_secs(&self, row: &str) -> f64 {
        self.spans.get(row).copied().unwrap_or(0.0)
    }

    pub fn derived(&self, row: &str) -> f64 {
        self.derived.get(row).copied().unwrap_or(0.0)
    }

    /// Total seconds of every span row.
    pub fn covered_secs(&self) -> f64 {
        self.spans.values().sum()
    }

    pub fn layer_type_secs(&self, row: &str) -> f64 {
        self.layer_types.get(row).copied().unwrap_or(0.0)
    }

    pub fn kernel(&self, family: &str) -> KernelTotals {
        self.kernels
            .lock()
            .expect("kernel totals lock poisoned")
            .get(family)
            .copied()
            .unwrap_or_default()
    }

    pub fn kernel_flops(&self) -> f64 {
        let map = self.kernels.lock().expect("kernel totals lock poisoned");
        map.values().map(|k| k.flops).sum()
    }

    /// Busy share of the worker pool over the windows' pooled regions.
    pub fn pool_utilization(&self) -> f64 {
        if self.pool_thread_us == 0 {
            0.0
        } else {
            self.pool_busy_us as f64 / self.pool_thread_us as f64
        }
    }
}

/// Maps a `Sequential` histogram (`nn.forward.03.Conv2d(..)`) to its
/// per-layer-type row.
fn layer_type_row(name: &str) -> Option<&'static str> {
    let (fwd, rest) = if let Some(rest) = name.strip_prefix("nn.forward.") {
        (true, rest)
    } else {
        (false, name.strip_prefix("nn.backward.")?)
    };
    let layer = rest.split_once('.').map_or(rest, |(_, l)| l);
    let rows = if layer.starts_with("ConvTranspose2d") {
        ["nn.deconv.fwd_ms", "nn.deconv.bwd_ms"]
    } else if layer.starts_with("Conv2d") {
        ["nn.conv.fwd_ms", "nn.conv.bwd_ms"]
    } else if layer.starts_with("BatchNorm2d") {
        ["nn.batchnorm.fwd_ms", "nn.batchnorm.bwd_ms"]
    } else {
        return Some("nn.other_ms");
    };
    Some(rows[usize::from(!fwd)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_names_map_to_layer_types() {
        assert_eq!(
            layer_type_row("nn.forward.00.Conv2d(3→16, 5x5, s2)"),
            Some("nn.conv.fwd_ms")
        );
        assert_eq!(
            layer_type_row("nn.backward.12.ConvTranspose2d(32→16)"),
            Some("nn.deconv.bwd_ms")
        );
        assert_eq!(
            layer_type_row("nn.forward.01.BatchNorm2d(16)"),
            Some("nn.batchnorm.fwd_ms")
        );
        assert_eq!(
            layer_type_row("nn.backward.02.LeakyReLU(0.2)"),
            Some("nn.other_ms")
        );
        assert_eq!(layer_type_row("train.epoch_seconds"), None);
    }
}
