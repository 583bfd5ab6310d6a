//! A small self-contained microbenchmark harness.
//!
//! The sanctioned dependency list has no criterion, so the `benches/`
//! targets (all `harness = false`) use this instead: warm-up, iteration
//! calibration against a minimum sample duration, and a median/mean/min
//! summary over a fixed number of samples. Every result is also recorded
//! in the telemetry registry (`bench.<name>` histograms), so running a
//! bench with `--metrics-out` produces a machine-readable JSONL stream.
//!
//! With `--json-out=FILE`, [`MicroBench::flush_json`] merges the
//! best-observed (minimum) per-iteration seconds of every bench into FILE
//! in the [`litho_ledger::Baseline`] format — several bench binaries can
//! accumulate into one `BENCH_KERNELS.json`, which `perf_gate` then
//! compares against the committed baseline. The minimum, not the median,
//! is recorded: scheduler and frequency noise only ever add time, so
//! best-of-N is the low-variance estimator a regression gate needs on a
//! shared CI host.

use std::cell::RefCell;
use std::hint::black_box;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use litho_ledger::{Baseline, Direction, AI_SUFFIX, GFLOPS_SUFFIX, UTIL_SUFFIX};
use litho_tensor::profile::KernelCost;
use litho_tensor::{Result, TensorError};

/// Synthetic metric embedded in every `--json-out` file: the time of a
/// fixed integer workload measured at flush time. `perf_gate` divides the
/// current file's value by the baseline's to estimate how fast this host
/// is running *right now* relative to when the baseline was captured, and
/// normalizes every bench time by that ratio — cancelling CPU frequency
/// scaling and shared-host throttling, which on a busy CI box can swing
/// absolute times by far more than any sane gate tolerance. The workload
/// is hardcoded here, so code changes cannot shift it.
pub const CALIBRATION_METRIC: &str = "_calibration";

/// Best-of-3 wall time of the fixed calibration spin (a 20M-step
/// xorshift64 fold — CPU-bound, cache-resident, allocation-free).
fn calibration_secs() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for _ in 0..20_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x);
        }
        black_box(acc);
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Summary statistics of one benchmark, all per-iteration.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Benchmark name.
    pub name: String,
    /// Iterations batched into each timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Fastest sample.
    pub min: Duration,
    /// Median sample.
    pub median: Duration,
    /// Mean over all samples.
    pub mean: Duration,
    /// Population standard deviation over samples.
    pub stddev: Duration,
}

/// Harness configuration: sample count and the minimum wall-clock time
/// one timed sample should cover (fast closures are batched until they
/// do, so timer granularity never dominates).
#[derive(Debug, Clone)]
pub struct MicroBench {
    samples: usize,
    min_sample: Duration,
    json_out: Option<PathBuf>,
    /// Provenance name this binary claims its metrics under in the
    /// merged file's `sources` map (see [`MicroBench::flush_json`]).
    source: Option<String>,
    /// `(name, min seconds/iter)` of every completed bench, drained by
    /// [`MicroBench::flush_json`].
    results: RefCell<Vec<(String, f64)>>,
}

impl Default for MicroBench {
    fn default() -> Self {
        MicroBench {
            samples: 15,
            min_sample: Duration::from_millis(20),
            json_out: None,
            source: None,
            results: RefCell::new(Vec::new()),
        }
    }
}

/// The bench binary's provenance name: the executable file stem with
/// cargo's trailing `-<16 hex>` disambiguation hash stripped
/// (`nn_kernels-1d38f2a6c90b74e5` → `nn_kernels`).
fn source_from_exe() -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let stem = exe.file_stem()?.to_str()?.to_string();
    match stem.rsplit_once('-') {
        Some((name, hash))
            if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) =>
        {
            Some(name.to_string())
        }
        _ => Some(stem),
    }
}

impl MicroBench {
    /// Default configuration overridden by the bench flags `--samples=N`,
    /// `--min-sample-ms=N` and `--json-out=FILE` (`--quick` halves samples
    /// and the minimum sample duration), applied in order. `--bench`, which
    /// `cargo bench` passes to every harness, is accepted and ignored.
    ///
    /// # Errors
    ///
    /// Any other argument, or a count that is not a non-negative integer,
    /// is an error naming the flag.
    pub fn parse(args: &[String]) -> Result<Self> {
        let mut mb = MicroBench {
            source: source_from_exe(),
            ..MicroBench::default()
        };
        let count = |flag: &str, v: &str| {
            v.parse::<u64>().map_err(|_| {
                TensorError::InvalidArgument(format!("{flag} expects a count, got {v:?}"))
            })
        };
        for arg in args {
            if let Some(v) = arg.strip_prefix("--samples=") {
                mb.samples = count("--samples", v)? as usize;
            } else if let Some(v) = arg.strip_prefix("--min-sample-ms=") {
                mb.min_sample = Duration::from_millis(count("--min-sample-ms", v)?);
            } else if let Some(v) = arg.strip_prefix("--json-out=") {
                mb.json_out = Some(PathBuf::from(v));
            } else if arg == "--quick" {
                mb.samples = (mb.samples / 2).max(5);
                mb.min_sample /= 2;
            } else if arg != "--bench" {
                return Err(TensorError::InvalidArgument(format!(
                    "unknown bench flag {arg:?} (expected --samples=N, --min-sample-ms=N, \
                     --json-out=FILE or --quick)"
                )));
            }
        }
        Ok(mb)
    }

    /// [`Self::parse`] over the process arguments; on an error, prints it
    /// and exits with status 1 before any bench runs.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        MicroBench::parse(&args).unwrap_or_else(|err| {
            eprintln!("error: {err}");
            std::process::exit(1)
        })
    }

    /// Timed samples per bench (`--samples=N`, halved by `--quick`).
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Explicit `--json-out` destination (tests; CLIs use [`Self::from_args`]).
    pub fn with_json_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.json_out = Some(path.into());
        self
    }

    /// Explicit provenance name (tests; [`Self::from_args`] derives it
    /// from the executable name).
    pub fn with_source(mut self, source: impl Into<String>) -> Self {
        self.source = Some(source.into());
        self
    }

    /// Merges this process's best-observed times into the `--json-out`
    /// file (read-merge-write, so `nn_kernels` and `pipeline` can share
    /// one `BENCH_KERNELS.json`); an existing entry only improves, never
    /// worsens. A no-op without `--json-out`.
    ///
    /// Each binary also *claims* the metric names it emitted under its
    /// provenance name in the file's `sources` map, and any key it
    /// claimed on a previous pass but no longer emits — a renamed or
    /// deleted bench — is dropped from the merged file (unless another
    /// binary also claims it). Without that, read-merge-write accretes
    /// stale rows forever and the perf gate ends up comparing against
    /// benches that no longer exist. `_calibration` is shared by every
    /// binary and is never claimed or dropped.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and malformed existing files.
    pub fn flush_json(&self) -> io::Result<()> {
        let Some(path) = &self.json_out else {
            return Ok(());
        };
        let mut base = match std::fs::read_to_string(path) {
            Ok(text) => Baseline::from_json_str(&text)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Baseline {
                // Default tolerance of the kernel perf gate; kept on merge.
                tol_pct: 15.0,
                run_id: None,
                metrics: Vec::new(),
                sources: Vec::new(),
            },
            Err(e) => return Err(e),
        };
        if let Some(source) = &self.source {
            let emitted: Vec<String> =
                self.results.borrow().iter().map(|(k, _)| k.clone()).collect();
            let stale: Vec<String> = base
                .sources
                .iter()
                .find(|(s, _)| s == source)
                .map(|(_, claimed)| {
                    claimed
                        .iter()
                        .filter(|k| {
                            !emitted.iter().any(|e| e == *k)
                                // Another binary still emits it — keep.
                                && !base
                                    .sources
                                    .iter()
                                    .any(|(s, names)| s != source && names.contains(k))
                        })
                        .cloned()
                        .collect()
                })
                .unwrap_or_default();
            base.metrics.retain(|(k, _)| !stale.contains(k));
            match base.sources.iter_mut().find(|(s, _)| s == source) {
                Some(slot) => slot.1 = emitted,
                None => base.sources.push((source.clone(), emitted)),
            }
        }
        let mut entries = vec![(CALIBRATION_METRIC.to_string(), calibration_secs())];
        entries.extend(self.results.borrow().iter().cloned());
        for (name, best) in entries {
            match base.metrics.iter_mut().find(|(k, _)| *k == name) {
                Some(slot) => slot.1 = merge_metric(&name, slot.1, best),
                None => base.metrics.push((name, best)),
            }
        }
        std::fs::write(path, base.to_json_string())
    }

    /// Times `f`, prints one aligned result line and records the
    /// per-iteration sample durations as a `bench.<name>` histogram.
    pub fn run<R>(&self, name: &str, mut f: impl FnMut() -> R) -> BenchStats {
        // Warm-up doubles as calibration: batch enough iterations that
        // one sample spans at least `min_sample`.
        let t = Instant::now();
        black_box(f());
        let first = t.elapsed().max(Duration::from_nanos(1));
        let iters = (self.min_sample.as_secs_f64() / first.as_secs_f64())
            .ceil()
            .clamp(1.0, 1e6) as u64;

        let mut secs: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples.max(1) {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            secs.push(t.elapsed().as_secs_f64() / iters as f64);
        }
        secs.sort_by(f64::total_cmp);
        let n = secs.len();
        let mean = secs.iter().sum::<f64>() / n as f64;
        let median = if n % 2 == 1 {
            secs[n / 2]
        } else {
            (secs[n / 2 - 1] + secs[n / 2]) / 2.0
        };
        let var = secs.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;

        if litho_telemetry::is_enabled() {
            for &s in &secs {
                litho_telemetry::observe(&format!("bench.{name}"), s);
            }
        }
        self.results.borrow_mut().push((name.to_string(), secs[0]));

        let stats = BenchStats {
            name: name.to_string(),
            iters_per_sample: iters,
            samples: n,
            min: Duration::from_secs_f64(secs[0]),
            median: Duration::from_secs_f64(median),
            mean: Duration::from_secs_f64(mean),
            stddev: Duration::from_secs_f64(var.sqrt()),
        };
        println!(
            "{:<32} {:>10}/iter  (min {}, mean {} ± {}, {}×{} iters)",
            stats.name,
            fmt_duration(stats.median),
            fmt_duration(stats.min),
            fmt_duration(stats.mean),
            fmt_duration(stats.stddev),
            stats.samples,
            stats.iters_per_sample,
        );
        stats
    }

    /// Times `f` like [`Self::run`] and derives roofline companion
    /// metrics from the static `cost` of one iteration: `<name>_gflops`
    /// (achieved GFLOP/s at the best-observed time), `<name>_ai`
    /// (arithmetic intensity — a shape constant, recorded for context)
    /// and `<name>_util` (worker-pool utilization over the timed region,
    /// when the pool did any work). The companions ride into `--json-out`
    /// next to the time, and merge and gate by their ledger
    /// [`Direction`].
    pub fn run_costed<R>(&self, name: &str, cost: KernelCost, f: impl FnMut() -> R) -> BenchStats {
        litho_tensor::pool::set_profiling(true);
        let base = litho_tensor::pool::stats();
        let stats = self.run(name, f);
        let pool = litho_tensor::pool::stats().delta_since(&base);
        let best = stats.min.as_secs_f64();
        let mut line = String::new();
        let mut results = self.results.borrow_mut();
        if cost.flops > 0 {
            let gflops = cost.gflops(best);
            results.push((format!("{name}{GFLOPS_SUFFIX}"), gflops));
            line.push_str(&format!("{gflops:.2} GFLOP/s"));
        }
        if cost.bytes > 0 {
            let ai = cost.arithmetic_intensity();
            results.push((format!("{name}{AI_SUFFIX}"), ai));
            line.push_str(&format!(
                "{}AI {ai:.2} ({})",
                if line.is_empty() { "" } else { ", " },
                cost.bound().as_str()
            ));
        }
        if let Some(util) = pool.utilization() {
            results.push((format!("{name}{UTIL_SUFFIX}"), util));
            line.push_str(&format!(
                "{}pool {:.0}%",
                if line.is_empty() { "" } else { ", " },
                util * 100.0
            ));
        }
        if !line.is_empty() {
            println!("{:<32}   {line}", "");
        }
        stats
    }
}

/// Per-metric merge when several passes accumulate into one `--json-out`
/// file: the better value by the metric's [`Direction`] (scheduler and
/// frequency noise only ever make a pass worse), and the latest value of
/// a shape constant (`_ai`) so a cost-model fix propagates.
fn merge_metric(name: &str, old: f64, new: f64) -> f64 {
    Direction::of(name).best(old, new)
}

/// Formats a duration with an auto-selected unit.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<MicroBench> {
        MicroBench::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_reads_the_bench_flags_in_order() {
        let mb = parse(&["--bench", "--samples=12", "--quick", "--min-sample-ms=7"]).unwrap();
        assert_eq!(mb.samples, 6);
        assert_eq!(mb.min_sample, Duration::from_millis(7));
        assert_eq!(mb.json_out, None);
        let mb = parse(&["--quick", "--samples=12", "--json-out=out.json"]).unwrap();
        assert_eq!(mb.samples, 12);
        assert_eq!(mb.min_sample, Duration::from_millis(10));
        assert_eq!(mb.json_out, Some(PathBuf::from("out.json")));
        let mb = parse(&[]).unwrap();
        assert_eq!((mb.samples, mb.min_sample), (15, Duration::from_millis(20)));
    }

    #[test]
    fn parse_rejects_unknown_flags_and_bad_counts_naming_the_flag() {
        for (args, named) in [
            (&["--bench", "--sampels=3"][..], "--sampels=3"),
            (&["--samples=x"][..], "--samples"),
            (&["--min-sample-ms=-1"][..], "--min-sample-ms"),
            (&["--samples"][..], "--samples"),
            (&["extra"][..], "extra"),
        ] {
            let err = parse(args).unwrap_err().to_string();
            assert!(err.contains(named), "{args:?}: {err}");
        }
    }

    #[test]
    fn run_reports_sane_statistics() {
        let mb = MicroBench {
            samples: 7,
            min_sample: Duration::from_micros(200),
            ..MicroBench::default()
        };
        let mut count = 0u64;
        let stats = mb.run("spin", || {
            count += 1;
            std::hint::black_box((0..100u64).sum::<u64>())
        });
        assert_eq!(stats.samples, 7);
        assert!(stats.iters_per_sample >= 1);
        // Warm-up + samples×iters calls happened.
        assert_eq!(count, 1 + 7 * stats.iters_per_sample);
        assert!(stats.min <= stats.median && stats.median <= stats.mean * 2);
    }

    #[test]
    fn flush_json_min_merges_existing_entries() {
        let path = std::env::temp_dir().join(format!(
            "litho_bench_minmerge_{}.json",
            std::process::id()
        ));
        // Pre-seed an unbeatable time: a real measurement can never go
        // lower, so surviving the merge proves min-merge semantics.
        std::fs::write(&path, r#"{"tol_pct":15,"metrics":{"spin":0.0}}"#).unwrap();
        let mb = MicroBench {
            samples: 3,
            min_sample: Duration::from_micros(50),
            ..MicroBench::default()
        }
        .with_json_out(&path);
        mb.run("spin", || black_box((0..64u64).sum::<u64>()));
        mb.flush_json().unwrap();
        let merged =
            Baseline::from_json_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        let get = |k: &str| merged.metrics.iter().find(|(m, _)| m == k).map(|(_, v)| *v);
        assert_eq!(get("spin"), Some(0.0), "existing faster entry must win");
        assert!(get(CALIBRATION_METRIC).unwrap() > 0.0, "calibration added");
    }

    #[test]
    fn flush_json_drops_stale_keys_of_its_own_source_only() {
        let path = std::env::temp_dir().join(format!(
            "litho_bench_staledrop_{}.json",
            std::process::id()
        ));
        // A previous pass of `kern` emitted `old_bench` (since renamed)
        // and `spin`; `other` still claims `shared`. `_calibration` is
        // never claimed by anyone.
        std::fs::write(
            &path,
            concat!(
                r#"{"tol_pct":15,"metrics":{"old_bench":1.0,"spin":9.0,"shared":2.0,"_calibration":0.5},"#,
                r#""sources":{"kern":["old_bench","spin"],"other":["shared"]}}"#
            ),
        )
        .unwrap();
        let mb = MicroBench {
            samples: 3,
            min_sample: Duration::from_micros(50),
            ..MicroBench::default()
        }
        .with_json_out(&path)
        .with_source("kern");
        mb.run("spin", || black_box((0..64u64).sum::<u64>()));
        mb.flush_json().unwrap();
        let merged =
            Baseline::from_json_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        let get = |k: &str| merged.metrics.iter().find(|(m, _)| m == k).map(|(_, v)| *v);
        assert_eq!(get("old_bench"), None, "stale own key dropped");
        assert!(get("spin").is_some_and(|v| v < 9.0), "re-emitted key min-merged");
        assert_eq!(get("shared"), Some(2.0), "other binary's row untouched");
        assert!(get(CALIBRATION_METRIC).is_some(), "calibration never dropped");
        let kern = merged.sources.iter().find(|(s, _)| s == "kern").unwrap();
        assert_eq!(kern.1, vec!["spin".to_string()], "claims updated");
        assert!(merged.sources.iter().any(|(s, _)| s == "other"));
    }

    #[test]
    fn source_name_strips_cargo_hash() {
        // The test binary itself is `microbench-<hash>` — whatever the
        // stem, the derived name must not keep a 16-hex-digit suffix.
        let src = source_from_exe().unwrap();
        assert!(!src.is_empty());
        if let Some((_, tail)) = src.rsplit_once('-') {
            assert!(!(tail.len() == 16 && tail.bytes().all(|b| b.is_ascii_hexdigit())));
        }
    }

    #[test]
    fn merge_metric_is_direction_aware() {
        // Times: min wins.
        assert_eq!(merge_metric("conv", 1.0, 2.0), 1.0);
        assert_eq!(merge_metric("conv", 2.0, 1.0), 1.0);
        // Rates: max wins.
        assert_eq!(merge_metric("conv_gflops", 10.0, 12.0), 12.0);
        assert_eq!(merge_metric("conv_gflops", 12.0, 10.0), 12.0);
        assert_eq!(merge_metric("conv_util", 0.5, 0.8), 0.8);
        // Shape constants: latest wins, even when smaller.
        assert_eq!(merge_metric("conv_ai", 32.0, 16.0), 16.0);
    }

    #[test]
    fn run_costed_records_roofline_companions() {
        let mb = MicroBench {
            samples: 3,
            min_sample: Duration::from_micros(50),
            ..MicroBench::default()
        };
        mb.run_costed("spin", KernelCost::gemm(64, 64, 64), || {
            // black_box the bound too: a constant range const-folds in
            // release and the whole loop can time at 0 ns.
            black_box((0..black_box(4096u64)).sum::<u64>())
        });
        let results = mb.results.borrow();
        let get = |k: &str| results.iter().find(|(m, _)| m == k).map(|(_, v)| *v);
        assert!(get("spin").is_some());
        assert!(get("spin_gflops").unwrap() > 0.0);
        let ai = KernelCost::gemm(64, 64, 64).arithmetic_intensity();
        assert!((get("spin_ai").unwrap() - ai).abs() < 1e-12);
        // `spin_util` is absent unless a concurrent test drove the global
        // pool during the bench window, so it is deliberately unasserted.
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.000 ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7.000 µs");
        assert_eq!(fmt_duration(Duration::from_nanos(90)), "90.0 ns");
    }
}
