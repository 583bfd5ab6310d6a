//! Run-to-run comparison and the metric regression gate.
//!
//! `compare <run-a> <run-b>` renders an aligned delta table over the two
//! runs' aggregated metrics and shared span timings. `compare <run>
//! --gate baseline.json [--tol-pct N]` checks the run against a committed
//! baseline and reports every metric that regressed beyond tolerance —
//! the CI hook that keeps the paper's headline numbers from silently
//! drifting.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::json::Json;
use crate::report::{fmt_us, metric_rows, RunData};

/// Suffix of derived achieved-GFLOP/s bench metrics (higher is better).
pub const GFLOPS_SUFFIX: &str = "_gflops";

/// Suffix of derived worker-pool-utilization bench metrics (busy time
/// over wall time across all pool threads; higher is better).
pub const UTIL_SUFFIX: &str = "_util";

/// Suffix of derived arithmetic-intensity bench metrics (FLOPs per byte):
/// a shape constant, recorded for roofline context and never gated.
pub const AI_SUFFIX: &str = "_ai";

/// Run metrics where a larger value is an improvement.
const HIGHER_BETTER: [&str; 5] = [
    "pixel_accuracy",
    "class_accuracy",
    "mean_iou",
    "samples_per_sec",
    "pool_utilization",
];

/// Which way a metric improves — the one policy behind the compare gate,
/// `runs trend` (and the dash and alert drift rules built on it), the
/// kernel perf gate and the bench `--json-out` merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Accuracies, IoU, throughput, GFLOP/s, pool utilization.
    HigherBetter,
    /// Everything else: error distances, times, memory.
    LowerBetter,
    /// A shape constant (`_ai`): never gated, never drifts.
    Constant,
}

impl Direction {
    /// The direction of a metric key. Slice-qualified keys
    /// (`ede_mean_nm{family=chain1d}`) follow their base metric.
    pub fn of(key: &str) -> Direction {
        let base = crate::index::split_slice_key(key).map_or(key, |(metric, _)| metric);
        if HIGHER_BETTER.contains(&base)
            || base.ends_with(GFLOPS_SUFFIX)
            || base.ends_with(UTIL_SUFFIX)
        {
            Direction::HigherBetter
        } else if base.ends_with(AI_SUFFIX) {
            Direction::Constant
        } else {
            Direction::LowerBetter
        }
    }

    /// Is `value` worse than `reference` by more than the relative
    /// tolerance `tol` (0.1 = 10 %)? The band is `reference.abs() * tol`
    /// plus `f64::EPSILON` of slack, so a zero or negative reference
    /// still admits itself. NaN always regresses; a constant never does.
    pub(crate) fn regressed(self, value: f64, reference: f64, tol: f64) -> bool {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let band = reference.abs() * tol + f64::EPSILON;
        // `None` (a NaN on either side) falls outside every band.
        let cmp = |bound: f64| value.partial_cmp(&bound);
        match self {
            Direction::HigherBetter => !matches!(cmp(reference - band), Some(Greater | Equal)),
            Direction::LowerBetter => !matches!(cmp(reference + band), Some(Less | Equal)),
            Direction::Constant => false,
        }
    }

    /// Is `a` strictly worse than `b`? Never for a constant or a NaN.
    pub(crate) fn is_worse(self, a: f64, b: f64) -> bool {
        match self {
            Direction::HigherBetter => a < b,
            Direction::LowerBetter => a > b,
            Direction::Constant => false,
        }
    }

    /// The better of an old and a new observation; a constant takes the
    /// latest, so a cost-model fix propagates.
    pub fn best(self, old: f64, new: f64) -> f64 {
        if self == Direction::Constant || self.is_worse(old, new) {
            new
        } else {
            old
        }
    }

    /// `"higher is better"` / `"lower is better"` / `"constant"`.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Direction::HigherBetter => "higher is better",
            Direction::LowerBetter => "lower is better",
            Direction::Constant => "constant",
        }
    }
}

/// Extracts the gateable metrics of a run: the aggregated per-sample
/// metrics plus `wall_clock_s` and per-span totals under `span:<path>`
/// (seconds).
pub fn run_metrics(run: &RunData) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if let Some(s) = &run.summary {
        out.push(("samples".to_string(), s.samples as f64));
        for (k, v) in metric_rows(s) {
            out.push((k.to_string(), v));
        }
        out.push(("skipped_pairs".to_string(), s.skipped as f64));
        for slice in &s.slices {
            if let Some(ede) = slice.ede_mean_nm {
                out.push((crate::index::slice_metric_key("ede_mean_nm", &slice.family), ede));
            }
        }
    }
    if let Some(wall) = run.manifest.wall_clock_s {
        out.push(("wall_clock_s".to_string(), wall));
    }
    if let Some(rss) = run.manifest.peak_rss_bytes {
        out.push(("peak_rss_mib".to_string(), rss as f64 / (1u64 << 20) as f64));
    }
    if let Some(alloc) = run.manifest.tensor_alloc_bytes {
        out.push((
            "tensor_alloc_mib".to_string(),
            alloc as f64 / (1u64 << 20) as f64,
        ));
    }
    if let Some(t) = &run.trace {
        for s in &t.spans {
            out.push((format!("span:{}", s.path), s.total_us / 1e6));
        }
    }
    out
}

fn lookup(metrics: &[(String, f64)], key: &str) -> Option<f64> {
    metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

/// Renders the side-by-side comparison of two runs.
pub fn render_compare(a: &RunData, b: &RunData) -> String {
    let ma = run_metrics(a);
    let mb = run_metrics(b);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== compare {} vs {} ==",
        a.manifest.run_id, b.manifest.run_id
    );
    if let (Some(da), Some(db)) = (&a.manifest.dataset, &b.manifest.dataset) {
        if da.fingerprint != db.fingerprint {
            let _ = writeln!(
                out,
                "warning: dataset fingerprints differ ({} vs {}) — metric deltas compare different data",
                da.fingerprint, db.fingerprint
            );
        }
    }
    let keys: Vec<&String> = ma
        .iter()
        .map(|(k, _)| k)
        .filter(|k| lookup(&mb, k).is_some())
        .collect();
    let w = keys.iter().map(|k| k.len()).max().unwrap_or(6).max(6);
    let _ = writeln!(
        out,
        "{:<w$} {:>12} {:>12} {:>12} {:>9}",
        "metric", "a", "b", "delta", "delta%"
    );
    for key in keys {
        let va = lookup(&ma, key).expect("key from ma");
        let vb = lookup(&mb, key).expect("filtered on presence in mb");
        let delta = vb - va;
        let pct = if va != 0.0 {
            format!("{:>+8.1}%", delta / va * 100.0)
        } else {
            "        -".to_string()
        };
        let (fa, fb, fd) = if key.starts_with("span:") {
            (
                fmt_us(va * 1e6),
                fmt_us(vb * 1e6),
                format!("{}{}", if delta >= 0.0 { "+" } else { "-" }, fmt_us(delta.abs() * 1e6)),
            )
        } else {
            (format!("{va:.4}"), format!("{vb:.4}"), format!("{delta:+.4}"))
        };
        let _ = writeln!(out, "{key:<w$} {fa:>12} {fb:>12} {fd:>12} {pct}");
    }
    for (label, run) in [("a", a), ("b", b)] {
        if let Some(h) = &run.health {
            let verdict = if h.has_poison() {
                "NaN/Inf POISONED".to_string()
            } else if h.diagnoses.is_empty() {
                "ok".to_string()
            } else {
                let names: Vec<&str> = h.diagnoses.iter().map(|d| d.kind.as_str()).collect();
                format!("{} diagnoses ({})", h.diagnoses.len(), names.join(", "))
            };
            let _ = writeln!(out, "health {label} ({}): {verdict}", run.manifest.run_id);
        }
    }
    out
}

/// A committed regression baseline: metric values plus a default
/// tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Allowed relative degradation, percent.
    pub tol_pct: f64,
    /// The run the baseline was captured from; `runs gc` never deletes
    /// it. Absent in baselines written before this field existed.
    pub run_id: Option<String>,
    pub metrics: Vec<(String, f64)>,
    /// Which bench binary emitted which metric names — the provenance
    /// that lets a read-merge-write `--json-out` drop keys a binary has
    /// stopped emitting without touching other binaries' rows. Empty on
    /// baselines from before the field existed (nothing is ever dropped
    /// from those until a source re-claims its names).
    pub sources: Vec<(String, Vec<String>)>,
}

impl Baseline {
    /// Parses a baseline file:
    /// `{"tol_pct": 25, "metrics": {"ede_mean_nm": 6.5, ...}}`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] for malformed content.
    pub fn from_json_str(text: &str) -> io::Result<Baseline> {
        let invalid =
            |msg: String| io::Error::new(io::ErrorKind::InvalidData, format!("baseline: {msg}"));
        let v = Json::parse(text).map_err(|e| invalid(e.to_string()))?;
        let metrics = match v.get("metrics") {
            Some(Json::Obj(members)) => {
                let mut out = Vec::new();
                for (k, val) in members {
                    let num = val
                        .as_f64()
                        .ok_or_else(|| invalid(format!("metric {k:?} is not a number")))?;
                    out.push((k.clone(), num));
                }
                out
            }
            _ => return Err(invalid("missing \"metrics\" object".to_string())),
        };
        let sources = match v.get("sources") {
            Some(Json::Obj(members)) => members
                .iter()
                .filter_map(|(src, val)| match val {
                    Json::Arr(items) => Some((
                        src.clone(),
                        items
                            .iter()
                            .filter_map(|i| i.as_str().map(str::to_string))
                            .collect(),
                    )),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        Ok(Baseline {
            tol_pct: v.get("tol_pct").and_then(Json::as_f64).unwrap_or(0.0),
            run_id: v.get("run_id").and_then(Json::as_str).map(str::to_string),
            metrics,
            sources,
        })
    }

    /// Reads a baseline file from disk.
    ///
    /// # Errors
    ///
    /// I/O errors or malformed content.
    pub fn load(path: &Path) -> io::Result<Baseline> {
        Self::from_json_str(&std::fs::read_to_string(path)?)
    }

    /// Serializes in the format [`Self::from_json_str`] reads. Useful for
    /// regenerating the committed baseline from a fresh run.
    pub fn to_json_string(&self) -> String {
        let mut members = vec![("tol_pct".to_string(), Json::Num(self.tol_pct))];
        if let Some(id) = &self.run_id {
            members.push(("run_id".to_string(), Json::Str(id.clone())));
        }
        members.push((
            "metrics".to_string(),
            Json::Obj(
                self.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ));
        if !self.sources.is_empty() {
            members.push((
                "sources".to_string(),
                Json::Obj(
                    self.sources
                        .iter()
                        .map(|(src, names)| {
                            (
                                src.clone(),
                                Json::Arr(names.iter().map(|n| Json::Str(n.clone())).collect()),
                            )
                        })
                        .collect(),
                ),
            ));
        }
        let mut out = Json::Obj(members).to_string_compact();
        out.push('\n');
        out
    }

    /// Builds a baseline from a run's current metrics, keeping only the
    /// given keys (all when `keys` is empty).
    pub fn from_run(run: &RunData, tol_pct: f64, keys: &[&str]) -> Baseline {
        let metrics = run_metrics(run)
            .into_iter()
            .filter(|(k, _)| keys.is_empty() || keys.contains(&k.as_str()))
            .collect();
        Baseline {
            tol_pct,
            run_id: Some(run.manifest.run_id.clone()),
            metrics,
            sources: Vec::new(),
        }
    }
}

/// One gate verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    pub metric: String,
    pub baseline: f64,
    pub actual: Option<f64>,
    /// `true` when within tolerance (or an improvement).
    pub pass: bool,
}

/// Outcome of gating one run against a baseline.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    pub checks: Vec<GateCheck>,
    pub tol_pct: f64,
}

impl GateOutcome {
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    pub fn failures(&self) -> impl Iterator<Item = &GateCheck> {
        self.checks.iter().filter(|c| !c.pass)
    }

    /// Human-readable gate table, values as `{:.4}`.
    pub fn render(&self) -> String {
        self.render_with(|_, v| format!("{v:.4}"))
    }

    /// The gate table with values formatted by `fmt(metric, value)` —
    /// the kernel perf gate prints durations.
    pub fn render_with(&self, fmt: impl Fn(&str, f64) -> String) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== gate (tolerance {:.1}%) ==", self.tol_pct);
        let w = self
            .checks
            .iter()
            .map(|c| c.metric.len())
            .max()
            .unwrap_or(6)
            .max(6);
        let _ = writeln!(
            out,
            "{:<w$} {:>12} {:>12} {:>8}  verdict",
            "metric", "baseline", "actual", "ratio"
        );
        for c in &self.checks {
            let (actual, ratio) = match c.actual {
                Some(v) if c.baseline > 0.0 => {
                    (fmt(&c.metric, v), format!("{:.2}x", v / c.baseline))
                }
                Some(v) => (fmt(&c.metric, v), "infx".to_string()),
                None => ("missing".to_string(), "-".to_string()),
            };
            let _ = writeln!(
                out,
                "{:<w$} {:>12} {:>12} {:>8}  {}",
                c.metric,
                fmt(&c.metric, c.baseline),
                actual,
                ratio,
                if c.pass { "ok" } else { "REGRESSED" }
            );
        }
        let _ = writeln!(
            out,
            "gate: {}",
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Gates a run against a baseline. `tol_pct_override` takes precedence
/// over the baseline file's tolerance.
///
/// Independent of metric tolerances, a run whose health stream carries a
/// NaN/Inf sentinel fails outright (`health:nan_free`): its metrics may
/// look in-tolerance while the model is numerically poisoned.
pub fn gate(run: &RunData, baseline: &Baseline, tol_pct_override: Option<f64>) -> GateOutcome {
    let mut outcome = gate_metrics(&run_metrics(run), baseline, tol_pct_override);
    if let Some(h) = &run.health {
        let clean = !h.has_poison();
        outcome.checks.insert(
            0,
            GateCheck {
                metric: "health:nan_free".to_string(),
                baseline: 1.0,
                actual: Some(if clean { 1.0 } else { 0.0 }),
                pass: clean,
            },
        );
    }
    outcome
}

/// Gates `metrics` against every baseline metric by its [`Direction`]:
/// a metric that regressed beyond the tolerance in that direction fails,
/// and so does a baseline metric `metrics` does not report (a
/// silently-vanished metric is itself a regression). Constants produce
/// no check. `tol_pct_override` takes precedence over the baseline
/// file's tolerance.
pub fn gate_metrics(
    metrics: &[(String, f64)],
    baseline: &Baseline,
    tol_pct_override: Option<f64>,
) -> GateOutcome {
    let tol_pct = tol_pct_override.unwrap_or(baseline.tol_pct).max(0.0);
    let checks = baseline
        .metrics
        .iter()
        .filter_map(|(key, base)| {
            let direction = Direction::of(key);
            if direction == Direction::Constant {
                return None;
            }
            let actual = lookup(metrics, key);
            Some(GateCheck {
                metric: key.clone(),
                baseline: *base,
                actual,
                pass: actual.is_some_and(|v| !direction.regressed(v, *base, tol_pct / 100.0)),
            })
        })
        .collect();
    GateOutcome { checks, tol_pct }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_policy_table() {
        use Direction::*;
        let headline = [
            ("samples", LowerBetter),
            ("ede_mean_nm", LowerBetter),
            ("pixel_accuracy", HigherBetter),
            ("class_accuracy", HigherBetter),
            ("mean_iou", HigherBetter),
            ("center_error_nm", LowerBetter),
            ("samples_per_sec", HigherBetter),
            ("pool_utilization", HigherBetter),
            ("peak_workspace_bytes", LowerBetter),
        ];
        assert_eq!(
            headline.map(|(k, _)| k),
            crate::index::HEADLINE_METRICS,
            "every headline metric has a row"
        );
        let others = [
            ("mean_iou{family=array2d}", HigherBetter),
            ("ede_mean_nm{family=chain1d}", LowerBetter),
            ("conv", LowerBetter),
            ("conv_gflops", HigherBetter),
            ("conv_util", HigherBetter),
            ("conv_ai", Constant),
            ("_calibration", LowerBetter),
        ];
        for (key, want) in headline.iter().chain(&others) {
            assert_eq!(Direction::of(key), *want, "{key}");
        }
    }

    #[test]
    fn regressed_is_directional_with_nan_always_regressed() {
        let (hi, lo) = (Direction::HigherBetter, Direction::LowerBetter);
        assert!(!hi.regressed(9.0, 10.0, 0.15) && hi.regressed(8.0, 10.0, 0.15));
        assert!(!hi.regressed(100.0, 10.0, 0.0));
        assert!(!lo.regressed(1.1, 1.0, 0.15) && lo.regressed(1.2, 1.0, 0.15));
        assert!(!lo.regressed(0.1, 1.0, 0.0));
        // The band scales with |reference|: a negative reference admits itself.
        assert!(!lo.regressed(-1.0, -1.0, 0.1) && lo.regressed(-0.8, -1.0, 0.1));
        assert!(hi.regressed(f64::NAN, 1.0, 1.0) && lo.regressed(f64::NAN, 1.0, 1.0));
        assert!(!Direction::Constant.regressed(f64::NAN, 1.0, 0.0));
    }

    #[test]
    fn baseline_round_trip() {
        let b = Baseline {
            tol_pct: 25.0,
            run_id: Some("train-1-2".to_string()),
            metrics: vec![
                ("ede_mean_nm".to_string(), 6.5),
                ("pixel_accuracy".to_string(), 0.93),
            ],
            sources: vec![(
                "nn_kernels".to_string(),
                vec!["ede_mean_nm".to_string(), "pixel_accuracy".to_string()],
            )],
        };
        let parsed = Baseline::from_json_str(&b.to_json_string()).unwrap();
        assert_eq!(parsed, b);
        // Baselines written before run_id/sources existed still parse.
        let legacy = Baseline::from_json_str("{\"tol_pct\":5,\"metrics\":{\"a\":1}}").unwrap();
        assert_eq!(legacy.run_id, None);
        assert!(legacy.sources.is_empty());
        assert!(Baseline::from_json_str("{}").is_err());
        assert!(Baseline::from_json_str("{\"metrics\":{\"a\":\"x\"}}").is_err());
    }
}
