//! Kernel performance gate: compares a freshly-benched
//! `BENCH_KERNELS.json` against the committed baseline and fails on
//! regressions beyond tolerance.
//!
//! Both files use the ledger [`Baseline`] JSON format
//! (`{"tol_pct": N, "metrics": {"<bench>": <best secs/iter>, ...}}`),
//! written by the bench binaries' `--json-out=FILE` flag (best-of-N — see
//! the microbench module for why minimums, not medians, are gated). The
//! verdicts are the ledger's [`gate_metrics`]: each metric gates by its
//! [`Direction`] — plain metrics are wall-clock times (lower is better),
//! `_gflops` and `_util` are rates (higher is better), and `_ai` is a
//! shape constant that is never gated. A baseline bench missing from the
//! current file fails the gate (a vanished bench is itself a
//! regression). Current-only benches are reported but do not gate — they
//! become binding once promoted into the baseline.
//!
//! When both files carry the `_calibration` metric (a fixed workload
//! timed at bench time), current times are rescaled by
//! `min(baseline_cal / current_cal, 1)` before comparison: a host that
//! measures slower than at baseline capture (frequency scaling,
//! shared-CI throttling) has its times discounted, while a faster host
//! is compared raw — never inflated, since the ALU-bound spin speeds up
//! more than memory-bound kernels do.
//!
//! Usage: `perf_gate --current FILE --baseline FILE [--tol-pct N]`
//!
//! Baseline capture: `perf_gate --merge --out OUT FILE...` writes the
//! per-metric *median* across several independent bench passes. A
//! best-ever-window minimum makes an unreproducible baseline on a noisy
//! host; the median of per-pass minimums is what a typical window
//! achieves, which the min-merged current run then has to beat only
//! within tolerance.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use litho_ledger::{gate_metrics, Baseline, Direction, GFLOPS_SUFFIX};
use lithogan_bench::microbench::{fmt_duration, CALIBRATION_METRIC};

enum Args {
    Gate {
        current: PathBuf,
        baseline: PathBuf,
        tol_pct: Option<f64>,
    },
    Merge {
        out: PathBuf,
        passes: Vec<PathBuf>,
    },
}

fn parse_args() -> Result<Args, String> {
    let mut current = None;
    let mut baseline = None;
    let mut tol_pct = None;
    let mut merge = false;
    let mut out = None;
    let mut passes = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        // Accept both `--flag VALUE` and `--flag=VALUE`.
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        let mut value = |name: &str| -> Result<String, String> {
            inline
                .clone()
                .or_else(|| it.next())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--current" => current = Some(PathBuf::from(value("--current")?)),
            "--baseline" => baseline = Some(PathBuf::from(value("--baseline")?)),
            "--tol-pct" => {
                let raw = value("--tol-pct")?;
                tol_pct = Some(
                    raw.parse::<f64>()
                        .map_err(|_| format!("--tol-pct: not a number: {raw}"))?,
                );
            }
            "--merge" => merge = true,
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            other if !other.starts_with("--") => passes.push(PathBuf::from(flag)),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if merge {
        if passes.is_empty() {
            return Err("--merge needs at least one pass FILE".into());
        }
        return Ok(Args::Merge {
            out: out.ok_or("--merge needs --out FILE")?,
            passes,
        });
    }
    Ok(Args::Gate {
        current: current.ok_or("missing --current FILE")?,
        baseline: baseline.ok_or("missing --baseline FILE")?,
        tol_pct,
    })
}

fn lookup(base: &Baseline, key: &str) -> Option<f64> {
    base.metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

/// Per-metric median across bench passes, preserving the first file's
/// metric order and `tol_pct`. Metrics missing from some passes take the
/// median of the passes that have them. Source provenance (which binary
/// claims which metric names) is unioned across passes so the blessed
/// baseline keeps the stale-key bookkeeping `--json-out` relies on.
fn merge_median(passes: &[Baseline]) -> Baseline {
    let mut merged = Baseline {
        tol_pct: passes.first().map_or(15.0, |p| p.tol_pct),
        run_id: None,
        metrics: Vec::new(),
        sources: Vec::new(),
    };
    for pass in passes {
        for (key, _) in &pass.metrics {
            if merged.metrics.iter().any(|(k, _)| k == key) {
                continue;
            }
            let mut vals: Vec<f64> = passes.iter().filter_map(|p| lookup(p, key)).collect();
            vals.sort_by(f64::total_cmp);
            let n = vals.len();
            let median = if n % 2 == 1 {
                vals[n / 2]
            } else {
                (vals[n / 2 - 1] + vals[n / 2]) / 2.0
            };
            merged.metrics.push((key.clone(), median));
        }
        for (src, names) in &pass.sources {
            match merged.sources.iter_mut().find(|(s, _)| s == src) {
                Some(slot) => {
                    for name in names {
                        if !slot.1.contains(name) {
                            slot.1.push(name.clone());
                        }
                    }
                }
                None => merged.sources.push((src.clone(), names.clone())),
            }
        }
    }
    merged
}

/// `baseline_cal / current_cal` when both files carry the calibration
/// metric: multiply current times by this to express them at the
/// baseline host's speed. Clamped to at most 1: a slower host discounts
/// current times, but a faster host never inflates them — the spin is
/// ALU-bound, and memory-bound kernels do not speed up with it, so
/// scaling upward manufactures false regressions.
fn host_speed_scale(current: &Baseline, baseline: &Baseline) -> Option<f64> {
    let cur = lookup(current, CALIBRATION_METRIC)?;
    let base = lookup(baseline, CALIBRATION_METRIC)?;
    (cur > 0.0 && base > 0.0).then_some((base / cur).min(1.0))
}

/// The calibration pre-pass: the current metrics at the baseline host's
/// speed — times × `scale`, `_gflops` ÷ `scale` (a slower host's rate is
/// discounted *up*), `_util` raw (host-speed-independent) — and the
/// baseline to gate them against. `_calibration` is used up here and is
/// never a check.
fn calibrate(current: &Baseline, baseline: &Baseline, scale: f64) -> (Vec<(String, f64)>, Baseline) {
    let current = current
        .metrics
        .iter()
        .filter(|(k, _)| k != CALIBRATION_METRIC)
        .map(|(k, v)| {
            let v = match Direction::of(k) {
                Direction::LowerBetter => v * scale,
                _ if k.ends_with(GFLOPS_SUFFIX) => v / scale,
                _ => *v,
            };
            (k.clone(), v)
        })
        .collect();
    let mut baseline = baseline.clone();
    baseline.metrics.retain(|(k, _)| k != CALIBRATION_METRIC);
    (current, baseline)
}

/// Formats a metric value: duration units for times, plain numbers for
/// the rates (GFLOP/s and utilization are not durations).
fn fmt_value(key: &str, v: f64) -> String {
    if Direction::of(key) == Direction::HigherBetter {
        format!("{v:.3}")
    } else {
        fmt_duration(Duration::from_secs_f64(v.max(0.0)))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_gate: {e}");
            eprintln!("usage: perf_gate --current FILE --baseline FILE [--tol-pct N]");
            eprintln!("       perf_gate --merge --out FILE PASS_FILE...");
            return ExitCode::from(2);
        }
    };
    let load = |path: &PathBuf| {
        Baseline::load(path).unwrap_or_else(|e| {
            eprintln!("perf_gate: {}: {e}", path.display());
            std::process::exit(2);
        })
    };
    let (current, baseline, tol_pct) = match args {
        Args::Merge { out, passes } => {
            let merged = merge_median(&passes.iter().map(load).collect::<Vec<_>>());
            if let Err(e) = std::fs::write(&out, merged.to_json_string()) {
                eprintln!("perf_gate: {}: {e}", out.display());
                return ExitCode::from(2);
            }
            println!(
                "merged {} passes into {} ({} metrics, per-metric median)",
                passes.len(),
                out.display(),
                merged.metrics.len()
            );
            return ExitCode::SUCCESS;
        }
        Args::Gate {
            current,
            baseline,
            tol_pct,
        } => (load(&current), load(&baseline), tol_pct),
    };

    let scale = host_speed_scale(&current, &baseline);
    match scale {
        Some(s) if s < 1.0 => println!(
            "host {:.2}x slower than baseline capture; times normalized",
            1.0 / s
        ),
        Some(_) => println!("host at or above baseline-capture speed; comparing raw times"),
        None => println!("no shared {CALIBRATION_METRIC} metric; comparing raw times"),
    }
    let (current, baseline) = calibrate(&current, &baseline, scale.unwrap_or(1.0));
    let outcome = gate_metrics(&current, &baseline, tol_pct);
    print!("{}", outcome.render_with(fmt_value));

    // Surface benches that exist only in the current file so a stale
    // baseline is visible without failing the gate.
    let new: Vec<&str> = current
        .iter()
        .filter(|(k, _)| {
            Direction::of(k) != Direction::Constant && lookup(&baseline, k).is_none()
        })
        .map(|(k, _)| k.as_str())
        .collect();
    if !new.is_empty() {
        println!("ungated (not in baseline): {}", new.join(", "));
    }

    if outcome.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litho_ledger::GateOutcome;

    fn gate_benches(
        current: &Baseline,
        baseline: &Baseline,
        tol_pct: Option<f64>,
        scale: f64,
    ) -> GateOutcome {
        let (current, baseline) = calibrate(current, baseline, scale);
        gate_metrics(&current, &baseline, tol_pct)
    }

    fn base(metrics: &[(&str, f64)]) -> Baseline {
        Baseline {
            tol_pct: 15.0,
            run_id: None,
            metrics: metrics
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            sources: Vec::new(),
        }
    }

    #[test]
    fn within_tolerance_passes() {
        let outcome = gate_benches(&base(&[("conv", 1.10)]), &base(&[("conv", 1.0)]), None, 1.0);
        assert!(outcome.passed());
    }

    #[test]
    fn beyond_tolerance_fails() {
        let outcome = gate_benches(&base(&[("conv", 1.20)]), &base(&[("conv", 1.0)]), None, 1.0);
        assert!(!outcome.passed());
        assert_eq!(outcome.failures().count(), 1);
    }

    #[test]
    fn missing_bench_fails_and_override_applies() {
        let outcome = gate_benches(&base(&[]), &base(&[("conv", 1.0)]), None, 1.0);
        assert!(!outcome.passed());
        // A generous override admits a big slowdown.
        let outcome = gate_benches(
            &base(&[("conv", 1.9)]),
            &base(&[("conv", 1.0)]),
            Some(100.0),
            1.0,
        );
        assert!(outcome.passed());
    }

    #[test]
    fn speedups_always_pass() {
        let outcome = gate_benches(&base(&[("conv", 0.2)]), &base(&[("conv", 1.0)]), Some(0.0), 1.0);
        assert!(outcome.passed());
    }

    #[test]
    fn calibration_normalizes_a_throttled_host() {
        // Baseline captured on a fast host (cal 1.0); the current run sees
        // everything 2x slower including the calibration spin — the gate
        // must treat that as unchanged performance.
        let baseline = base(&[(CALIBRATION_METRIC, 1.0), ("conv", 1.0)]);
        let current = base(&[(CALIBRATION_METRIC, 2.0), ("conv", 2.0)]);
        let scale = host_speed_scale(&current, &baseline).unwrap();
        let outcome = gate_benches(&current, &baseline, Some(0.0), scale);
        assert!(outcome.passed());
        // A real 2x regression on a same-speed host still fails.
        let current = base(&[(CALIBRATION_METRIC, 1.0), ("conv", 2.0)]);
        let scale = host_speed_scale(&current, &baseline).unwrap();
        let outcome = gate_benches(&current, &baseline, Some(15.0), scale);
        assert!(!outcome.passed());
        // The calibration metric itself is never a gated check.
        assert!(outcome.checks.iter().all(|c| c.metric != CALIBRATION_METRIC));
    }

    #[test]
    fn rate_metrics_gate_higher_is_better() {
        // A GFLOP/s drop beyond tolerance fails; a rise always passes.
        let baseline = base(&[("matmul_gflops", 10.0), ("matmul_util", 0.9)]);
        let ok = base(&[("matmul_gflops", 9.0), ("matmul_util", 0.85)]);
        assert!(gate_benches(&ok, &baseline, Some(15.0), 1.0).passed());
        let fast = base(&[("matmul_gflops", 20.0), ("matmul_util", 1.0)]);
        assert!(gate_benches(&fast, &baseline, Some(0.0), 1.0).passed());
        let slow = base(&[("matmul_gflops", 8.0), ("matmul_util", 0.9)]);
        assert!(!gate_benches(&slow, &baseline, Some(15.0), 1.0).passed());
        let starved = base(&[("matmul_gflops", 10.0), ("matmul_util", 0.5)]);
        assert!(!gate_benches(&starved, &baseline, Some(15.0), 1.0).passed());
    }

    #[test]
    fn throttled_host_discounts_rates_up_but_not_utilization() {
        // Host at half speed: times double, achieved GFLOP/s halve, but
        // pool utilization is speed-independent. The calibration scale
        // must rescue the rate and leave utilization alone.
        let baseline = base(&[
            (CALIBRATION_METRIC, 1.0),
            ("conv", 1.0),
            ("conv_gflops", 10.0),
            ("conv_util", 0.9),
        ]);
        let current = base(&[
            (CALIBRATION_METRIC, 2.0),
            ("conv", 2.0),
            ("conv_gflops", 5.0),
            ("conv_util", 0.9),
        ]);
        let scale = host_speed_scale(&current, &baseline).unwrap();
        assert!(gate_benches(&current, &baseline, Some(0.0), scale).passed());
        // A genuine utilization collapse still fails on the slow host.
        let current = base(&[
            (CALIBRATION_METRIC, 2.0),
            ("conv", 2.0),
            ("conv_gflops", 5.0),
            ("conv_util", 0.4),
        ]);
        assert!(!gate_benches(&current, &baseline, Some(15.0), scale).passed());
    }

    #[test]
    fn arithmetic_intensity_is_never_gated() {
        // Even a wildly different _ai value produces no check at all.
        let baseline = base(&[("conv_ai", 32.0), ("conv", 1.0)]);
        let current = base(&[("conv_ai", 1.0), ("conv", 1.0)]);
        let outcome = gate_benches(&current, &baseline, Some(0.0), 1.0);
        assert!(outcome.passed());
        assert!(outcome.checks.iter().all(|c| c.metric != "conv_ai"));
    }

    #[test]
    fn merge_median_is_per_metric_and_order_preserving() {
        let passes = [
            base(&[("a", 3.0), ("b", 10.0)]),
            base(&[("a", 1.0), ("b", 30.0), ("c", 7.0)]),
            base(&[("a", 2.0), ("b", 20.0)]),
        ];
        let merged = merge_median(&passes);
        assert_eq!(merged.tol_pct, 15.0);
        let keys: Vec<&str> = merged.metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "b", "c"]);
        assert_eq!(lookup(&merged, "a"), Some(2.0));
        assert_eq!(lookup(&merged, "b"), Some(20.0));
        // Present in one pass only: that value is its own median.
        assert_eq!(lookup(&merged, "c"), Some(7.0));
        // Even count takes the midpoint.
        let merged = merge_median(&passes[..2]);
        assert_eq!(lookup(&merged, "a"), Some(2.0));
    }

    #[test]
    fn faster_host_never_inflates_times() {
        // The current host runs the ALU spin 2x faster, but a
        // memory-bound bench only improved 5% — upscaling its time 2x
        // would fake a regression. The scale clamps at 1 (raw compare).
        let baseline = base(&[(CALIBRATION_METRIC, 1.0), ("fft", 1.0)]);
        let current = base(&[(CALIBRATION_METRIC, 0.5), ("fft", 0.95)]);
        let scale = host_speed_scale(&current, &baseline).unwrap();
        assert_eq!(scale, 1.0);
        let outcome = gate_benches(&current, &baseline, Some(0.0), scale);
        assert!(outcome.passed());
        // A genuine regression still fails raw on the faster host.
        let current = base(&[(CALIBRATION_METRIC, 0.5), ("fft", 1.3)]);
        let scale = host_speed_scale(&current, &baseline).unwrap();
        assert!(!gate_benches(&current, &baseline, Some(15.0), scale).passed());
    }
}
