//! `lithogan-cli` — dataset generation, training, evaluation, prediction
//! and run analysis from the command line.
//!
//! ```text
//! lithogan-cli generate --node N10 --clips 140 --size 64 --out data.lgd
//! lithogan-cli train    --data data.lgd --epochs 10 --out model.lgm
//! lithogan-cli eval     --data data.lgd --model model.lgm
//! lithogan-cli predict  --data data.lgd --model model.lgm --index 3 --out-dir out/
//! lithogan-cli report   <run-id|run-dir>
//! lithogan-cli compare  <run-a> <run-b>
//! lithogan-cli compare  <run> --gate baseline.json [--tol-pct N]
//! ```
//!
//! Every workload command records itself into `runs/<id>/` (manifest,
//! per-sample metric records, telemetry trace) unless `--no-run` is
//! given; `report` and `compare` read those directories back. See
//! `lithogan-cli help <command>` for per-command flags.

use litho_dataset::{generate, load_dataset, save_dataset, Dataset, DatasetConfig};
use litho_health::DiagnosisKind;
use litho_layout::image::{overlay_panel, write_ppm};
use litho_ledger::{
    dashboard_svg, diff_eval, fingerprint_file, flamegraph_svg, fmt_unix, fold_lines, gate,
    health_svg, load_index, load_run, reindex, render_attribution, render_compare,
    render_diff_eval, render_health, render_report, render_snapshot, render_trend, render_triage,
    slice_metric_key, trend, trend_svg, triage_svg, validate_run_id, Baseline, DatasetInfo,
    RunData, RunLedger, TrendConfig, WatchConfig, WatchSession,
};
use litho_metrics::MetricAccumulator;
use litho_sim::ProcessConfig;
use litho_tensor::TensorError;
use lithogan::{
    run_dash, AbortCondition, DashConfig, HealthConfig, HealthMonitor, LithoGan, NetConfig, Result,
    TrainConfig,
};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Generate {
        node: String,
        clips: usize,
        size: usize,
        jitter_nm: f64,
        out: String,
    },
    Train {
        data: String,
        epochs: usize,
        seed: u64,
        augment: bool,
        health: bool,
        health_stride: u64,
        abort_on: Option<String>,
        poison_nan_at_epoch: Option<usize>,
        out: String,
    },
    Eval {
        data: String,
        model: String,
    },
    Predict {
        data: String,
        model: String,
        index: usize,
        out_dir: String,
    },
    Report {
        run: String,
    },
    Triage {
        run: String,
        worst: usize,
    },
    Profile {
        run: String,
        top: usize,
    },
    Health {
        run: String,
        fail_on: Option<String>,
    },
    Compare {
        a: String,
        b: Option<String>,
        gate: Option<String>,
        tol_pct: Option<f64>,
        write_baseline: Option<String>,
    },
    RunsLs {
        status: Option<String>,
        command: Option<String>,
        dataset: Option<String>,
        last: Option<usize>,
        json: bool,
    },
    RunsTrend {
        metrics: String,
        slice: Option<String>,
        last: Option<usize>,
        gate: bool,
        tol_pct: Option<f64>,
        drift_runs: Option<usize>,
        out: Option<String>,
    },
    RunsDiffEval {
        a: String,
        b: String,
        gate: bool,
        tol_pct: Option<f64>,
    },
    RunsGc {
        keep: usize,
        baseline: Option<String>,
    },
    Reindex,
    Alerts {
        rules: Option<String>,
        gate: bool,
        json: bool,
    },
    Watch {
        run: String,
        interval_ms: u64,
        timeout_s: Option<u64>,
        wait_s: u64,
    },
    Dash {
        addr: String,
    },
    Help,
    HelpFor(String),
}

const GLOBAL_FLAGS_HELP: &str = "\
global flags (accepted by every command, --flag VALUE or --flag=VALUE):\n  \
  --trace             print a nested span/metric report to stderr on exit\n  \
  --metrics-out FILE  stream telemetry events as JSONL to FILE\n                      \
(default: runs/<id>/trace.jsonl when a run ledger is active)\n  \
  --runs-root DIR     where run ledgers are created/resolved (default: runs)\n  \
  --no-run            do not record this invocation under runs/\n  \
  --threads N         worker-pool width for the compute kernels; 0 = auto\n                      \
(default: LITHO_THREADS env var, else the detected core count)\n  \
  --simd LEVEL        kernel level: auto, avx2 or scalar (default: LITHO_SIMD\n                      \
env var, else CPUID detection; never exceeds the host ISA)";

fn usage() -> String {
    format!(
        "usage:\n  \
         lithogan-cli generate --node <N10|N7> [--clips N] [--size S] [--jitter NM] --out FILE\n  \
         lithogan-cli train    --data FILE [--epochs N] [--seed N] [--augment] [--health] --out FILE\n  \
         lithogan-cli eval     --data FILE --model FILE\n  \
         lithogan-cli predict  --data FILE --model FILE --index I --out-dir DIR\n  \
         lithogan-cli report   <run-id|run-dir>\n  \
         lithogan-cli triage   <run-id|run-dir> [--worst K]\n  \
         lithogan-cli profile  <run-id|run-dir> [--top N]\n  \
         lithogan-cli health   <run-id|run-dir> [--fail-on LIST]\n  \
         lithogan-cli compare  <run-a> [<run-b>] [--gate FILE] [--tol-pct N] [--write-baseline FILE]\n  \
         lithogan-cli runs     ls [--status S] [--command C] [--dataset FP] [--last N] [--json]\n  \
         lithogan-cli runs     trend <metric[,metric...]> [--slice family=F] [--last N] [--gate] [--tol-pct P] [--out FILE]\n  \
         lithogan-cli runs     diff-eval <run-a> <run-b> [--gate] [--tol-pct P]\n  \
         lithogan-cli runs     gc --keep N [--baseline FILE]\n  \
         lithogan-cli reindex\n  \
         lithogan-cli alerts   [--rules FILE] [--gate] [--json]\n  \
         lithogan-cli watch    <run-id|run-dir> [--interval-ms N] [--timeout-s N]\n  \
         lithogan-cli dash     [--addr HOST:PORT]\n  \
         lithogan-cli help     [command]\n\
         {GLOBAL_FLAGS_HELP}"
    )
}

/// Detailed per-command help (satisfies `help <cmd>` and `<cmd> --help`).
fn command_help(cmd: &str) -> String {
    let body = match cmd {
        "generate" => {
            "lithogan-cli generate --node <N10|N7> [--clips N] [--size S] [--jitter NM] --out FILE\n\n\
             Synthesizes a mask/aerial/resist dataset with the in-tree lithography\n\
             simulator and writes it to FILE.\n\n  \
             --node N10|N7   process node preset (default N10)\n  \
             --clips N       number of layout clips (default 140)\n  \
             --size S        image resolution in pixels (default 64)\n  \
             --jitter NM     mask corner jitter in nm (default 3.0)\n  \
             --out FILE      output dataset path (required)"
        }
        "train" => {
            "lithogan-cli train --data FILE [--epochs N] [--seed N] [--augment] [--health] --out FILE\n\n\
             Trains LithoGAN on the 75% train split, saves the model, then\n\
             evaluates the 25% test split; per-sample metrics land in the run's\n\
             samples.jsonl and the loss curve in its trace.\n\n  \
             --data FILE     dataset from `generate` (required)\n  \
             --epochs N      training epochs (default 10)\n  \
             --seed N        RNG seed (default 0)\n  \
             --augment       enable flip/rotate augmentation\n  \
             --health        stream model-health records to the run's health.jsonl\n  \
             --health-stride N        sample every Nth step (default 8, implies --health)\n  \
             --abort-on LIST          abort training on nan and/or collapse (implies --health)\n  \
             --poison-nan-at-epoch N  fault injection: plant a NaN weight at epoch N\n  \
             --out FILE      model output path (required)"
        }
        "health" => {
            "lithogan-cli health <run-id|run-dir> [--fail-on LIST]\n\n\
             Analyzes a run's health.jsonl (from `train --health`): per-layer\n\
             activation/gradient tables, update-to-weight ratios, GAN balance\n\
             signals and the six named diagnoses (vanishing-gradient,\n\
             exploding-update, dead-layer, d-overpowers-g, mode-collapse,\n\
             nan-poisoned) with first-seen epoch/step. Also writes\n\
             runs/<id>/health.svg (sparkline panel).\n\n  \
             --fail-on LIST  comma-separated diagnoses that exit nonzero when\n                  \
             present (aliases: nan, collapse)"
        }
        "eval" => {
            "lithogan-cli eval --data FILE --model FILE\n\n\
             Evaluates a trained model on the test split: EDE, pixel/class\n\
             accuracy, mean IoU and centre error, with one record per sample\n\
             appended to the run ledger.\n\n  \
             --data FILE     dataset from `generate` (required)\n  \
             --model FILE    model from `train` (required)"
        }
        "predict" => {
            "lithogan-cli predict --data FILE --model FILE --index I --out-dir DIR\n\n\
             Runs inference on one sample, writes mask/prediction panels as PPM\n\
             and records that sample's metrics in the run ledger.\n\n  \
             --data FILE     dataset from `generate` (required)\n  \
             --model FILE    model from `train` (required)\n  \
             --index I       sample index (default 0)\n  \
             --out-dir DIR   where to write panels (default .)"
        }
        "report" => {
            "lithogan-cli report <run-id|run-dir>\n\n\
             Renders one recorded run: manifest, aggregated per-sample metrics,\n\
             span timing table with exact p50/p95/p99, critical path and\n\
             counters. Also writes runs/<id>/dashboard.svg (loss curves, EDE\n\
             histogram, stage latency). The argument is a directory path or a\n\
             run id resolved under --runs-root."
        }
        "triage" => {
            "lithogan-cli triage <run-id|run-dir> [--worst K]\n\n\
             Ranks a run's per-sample records by EDE — contours that vanished\n\
             outrank every numeric error — and prints the worst K as a table\n\
             (sample index, clip fingerprint, family, mean and per-edge EDE).\n\
             Also writes runs/<id>/triage.svg: a self-contained gallery with\n\
             one schematic panel per clip (mask target, golden contour,\n\
             predicted contour displaced by the recorded per-edge EDE).\n\
             Legacy records without clip identity still rank; their clip and\n\
             family columns show \"-\".\n\n  \
             --worst K       panels/rows to show (default 10)"
        }
        "profile" => {
            "lithogan-cli profile <run-id|run-dir> [--top N]\n\n\
             Folds a run's trace.jsonl into a self-time profile: writes\n\
             runs/<id>/flamegraph.svg (icicle layout, frames tinted by the\n\
             roofline verdict of their kernel cost model) and\n\
             runs/<id>/flamegraph.folded (Brendan-Gregg folded-stack text),\n\
             and prints a top-N attribution table ranked by self time with\n\
             achieved GFLOP/s, arithmetic intensity and compute- vs\n\
             memory-bound verdict per instrumented kernel.\n\n  \
             --top N         table rows (default 20)\n\n\
             The classification threshold is the host machine balance,\n\
             LITHO_MACHINE_BALANCE (FLOPs per byte, default 8)."
        }
        "compare" => {
            "lithogan-cli compare <run-a> [<run-b>] [--gate FILE] [--tol-pct N] [--write-baseline FILE]\n\n\
             With two runs: aligned metric/latency delta table.\n\
             With --gate: checks <run-a> against a baseline JSON\n\
             ({\"tol_pct\": N, \"metrics\": {...}}) and exits nonzero when any\n\
             metric regressed beyond tolerance — the CI regression gate.\n\n  \
             --gate FILE           baseline to gate against\n  \
             --tol-pct N           tolerance override in percent\n  \
             --write-baseline FILE regenerate a baseline from <run-a>'s metrics\n                        \
             (records <run-a>'s id, which `runs gc` then protects)"
        }
        "runs" => {
            "lithogan-cli runs ls    [--status S] [--command C] [--dataset FP] [--last N] [--json]\n\
             lithogan-cli runs trend <metric[,metric...]> [--slice family=F] [--last N] [--gate]\n                         \
             [--tol-pct P] [--drift-runs N] [--out FILE]\n\
             lithogan-cli runs diff-eval <run-a> <run-b> [--gate] [--tol-pct P]\n\
             lithogan-cli runs gc    --keep N [--baseline FILE]\n\n\
             Fleet-level views over the append-only runs index\n\
             (<runs-root>/index.jsonl, maintained by every finalizing run;\n\
             repair it with `reindex`).\n\n\
             ls    one line per run: id, start, status, dataset fingerprint,\n                   \
             headline EDE and health verdict.\n  \
             --status S      keep runs with this status (ok, error, running,\n                  \
             aborted matches any aborted(...))\n  \
             --command C     keep runs of this command (train, eval, ...)\n  \
             --dataset FP    keep runs whose dataset fingerprint starts with FP\n  \
             --last N        keep only the N most recent\n  \
             --json          one index record per line as JSON, byte-identical\n                  \
             to the index lines and the dash /api/runs entries\n\n\
             trend aligned per-run table of the metric plus a self-contained\n                   \
             trend.svg (written to <runs-root>/trend.svg unless --out).\n                   \
             Drift detection is streak-based: a run is off when beyond\n                   \
             --tol-pct (default 10) of the fleet median, and --drift-runs\n                   \
             (default 2) consecutive off runs confirm a drift.\n  \
             --slice family=F  trend the per-family slice of each metric\n                  \
             (e.g. ede_mean_nm restricted to chain1d clips); runs\n                  \
             without that slice abstain rather than read as zero\n  \
             --gate          exit nonzero when a drift is confirmed (CI)\n\n\
             diff-eval  join two runs' samples.jsonl by clip fingerprint and\n                   \
             bucket every shared clip: regressed / improved /\n                   \
             unchanged vs --tol-pct (default 10), plus clips only one\n                   \
             run evaluated (new / missing). Records without\n                   \
             fingerprints (legacy ledgers) are counted but can't join.\n  \
             --tol-pct P     allowed per-clip EDE growth in percent\n  \
             --gate          exit nonzero when any clip regressed (CI)\n\n\
             gc    remove all but the newest --keep N run directories, never\n                   \
             touching running runs or the run recorded in the baseline\n                   \
             (--baseline FILE, default ci/baseline.json when present),\n                   \
             then rebuild the index."
        }
        "reindex" => {
            "lithogan-cli reindex\n\n\
             Rebuilds <runs-root>/index.jsonl from the surviving run\n\
             directories (manifest + samples.jsonl aggregate + health.jsonl\n\
             verdict) and swaps it in atomically. Use after crashes, manual\n\
             deletion or to adopt pre-index run directories."
        }
        "alerts" => {
            "lithogan-cli alerts [--rules FILE] [--gate] [--json]\n\n\
             Evaluates the fleet's alert rules against the runs index, the\n\
             health verdicts, the trend drift detector and live run activity,\n\
             then prints the active alerts and appends state transitions\n\
             (pending -> firing -> resolved, deduplicated by fingerprint) to\n\
             <runs-root>/alerts.jsonl. Rules come from --rules FILE, else\n\
             <runs-root>/alerts.toml, else a built-in set (page on unhealthy\n\
             runs, warn on ede_mean_nm drift — aggregate and per-family —\n\
             and stalled runs). See `help alerts-rules`-style docs in\n\
             DESIGN.md §4g for the rule schema (threshold / drift /\n\
             slice_drift / health / stale).\n\n  \
             --rules FILE    alert rule config (TOML subset)\n  \
             --gate          exit nonzero while any alert is firing (CI)\n  \
             --json          also print active alerts as JSONL records\n\n\
             Crashed or aborted runs additionally ship a post-mortem in\n\
             runs/<id>/incident/: the telemetry flight-recorder ring, panic\n\
             message + backtrace, manifest snapshot, process counters and the\n\
             last per-layer tensor stats."
        }
        "watch" => {
            "lithogan-cli watch <run-id|run-dir> [--interval-ms N] [--timeout-s N]\n\n\
             Live-follows an in-flight run: incrementally tails its\n\
             trace.jsonl and health.jsonl (tolerating torn lines from the\n\
             concurrent writer), rendering epoch progress, loss deltas, an\n\
             ETA from the epoch cadence and live health verdicts. Alert\n\
             transitions appended to <runs-root>/alerts.jsonl while watching\n\
             are echoed live. Exits 0 when the run finishes ok, nonzero when\n\
             it errors or aborts — so `watch` can stand in for the run's own\n\
             exit code. A run directory removed mid-watch (e.g. by\n\
             `runs gc`) is a hard error, not an endless wait.\n\n  \
             --interval-ms N poll interval (default 200)\n  \
             --timeout-s N   give up after N seconds (default: wait forever)"
        }
        "dash" => {
            "lithogan-cli dash [--addr HOST:PORT]\n\n\
             Serves the runs fleet over HTTP until POST /shutdown, Ctrl-C or\n\
             SIGTERM. Endpoints:\n\n  \
             GET /                       HTML fleet page\n  \
             GET /metrics                Prometheus text exposition: run counts\n                              \
             by status, latest headline metrics per\n                              \
             command, drift-detector state, live gauges\n                              \
             for in-flight runs, dash self metrics\n  \
             GET /api/runs               all index records as JSON\n  \
             GET /api/runs/<id>          one run: index record + manifest\n  \
             GET /api/alerts             active alerts as JSON (evaluates the\n                              \
             alert rules on each request)\n  \
             GET /runs/<id>/dashboard.svg   report dashboard, rendered on demand\n  \
             GET /runs/<id>/health.svg      health sparkline panel\n  \
             GET /runs/<id>/trend.svg       fleet trends (ede/throughput/pool)\n  \
             GET /runs/<id>/flamegraph.svg  self-time flamegraph\n  \
             POST /shutdown              clean stop\n\n  \
             --addr HOST:PORT address to bind (default 127.0.0.1:9091; port 0\n                   \
             picks an ephemeral port, announced on stdout)\n\n\
             The daemon records itself in the runs ledger: request counters and\n\
             latency quantiles land in its trace.jsonl and its manifest is\n\
             finalized on shutdown, so `runs trend` works on dash runs too.\n\
             Addresses in --runs-root; disable the self-run with --no-run."
        }
        _ => return usage(),
    };
    format!("{body}\n\n{GLOBAL_FLAGS_HELP}")
}

/// Global flags, accepted by every command.
#[derive(Debug, Clone, PartialEq)]
struct GlobalOpts {
    trace: bool,
    metrics_out: Option<String>,
    runs_root: String,
    no_run: bool,
    /// Worker-pool width override (`Some(0)` = auto-detect).
    threads: Option<usize>,
    /// Kernel-level override (`--simd auto|avx2|scalar`).
    simd: Option<litho_tensor::KernelLevel>,
}

impl Default for GlobalOpts {
    fn default() -> Self {
        GlobalOpts {
            trace: false,
            metrics_out: None,
            runs_root: "runs".to_string(),
            no_run: false,
            threads: None,
            simd: None,
        }
    }
}

/// Parses a `--simd` operand (`auto` resolves via CPUID inside
/// [`litho_tensor::parse_level`]).
fn parse_simd_arg(value: &str) -> Result<litho_tensor::KernelLevel> {
    litho_tensor::parse_level(value)
        .ok_or_else(|| bad(format!("--simd: unknown level {value:?} (auto|avx2|scalar)")))
}

/// Strips the global flags out of `args` so subcommand parsing never sees
/// them, and returns them parsed.
///
/// # Errors
///
/// Returns an error for a value-taking flag without its value (a
/// dangling `--metrics-out` would otherwise reach the command parser as
/// an unknown flag, with a less precise message).
fn split_global_args(args: &[String]) -> Result<(Vec<String>, GlobalOpts)> {
    let mut opts = GlobalOpts::default();
    let mut rest = Vec::with_capacity(args.len());
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--trace" => opts.trace = true,
            "--no-run" => opts.no_run = true,
            "--metrics-out" => {
                if i + 1 >= args.len() {
                    return Err(bad("--metrics-out requires a file path"));
                }
                opts.metrics_out = Some(args[i + 1].clone());
                i += 1;
            }
            "--runs-root" => {
                if i + 1 >= args.len() {
                    return Err(bad("--runs-root requires a directory path"));
                }
                opts.runs_root = args[i + 1].clone();
                i += 1;
            }
            "--threads" => {
                if i + 1 >= args.len() {
                    return Err(bad("--threads requires a count"));
                }
                opts.threads = Some(args[i + 1].parse().map_err(|_| bad("--threads"))?);
                i += 1;
            }
            "--simd" => {
                if i + 1 >= args.len() {
                    return Err(bad("--simd requires a level (auto|avx2|scalar)"));
                }
                opts.simd = Some(parse_simd_arg(&args[i + 1])?);
                i += 1;
            }
            // `--flag=value` spelling, matching the bench binaries.
            _ if arg.starts_with("--metrics-out=") => {
                opts.metrics_out = Some(arg["--metrics-out=".len()..].to_string());
            }
            _ if arg.starts_with("--runs-root=") => {
                opts.runs_root = arg["--runs-root=".len()..].to_string();
            }
            _ if arg.starts_with("--threads=") => {
                opts.threads = Some(
                    arg["--threads=".len()..]
                        .parse()
                        .map_err(|_| bad("--threads"))?,
                );
            }
            _ if arg.starts_with("--simd=") => {
                opts.simd = Some(parse_simd_arg(&arg["--simd=".len()..])?);
            }
            _ => rest.push(args[i].clone()),
        }
        i += 1;
    }
    Ok((rest, opts))
}

fn bad(msg: impl Into<String>) -> TensorError {
    TensorError::InvalidArgument(msg.into())
}

fn io_err(e: std::io::Error) -> TensorError {
    bad(e.to_string())
}

/// The flags each command accepts, without the leading `--`:
/// `(value-taking, boolean)`. `None` for an unknown command or `runs`
/// subcommand, which `parse` reports itself. `--gate` takes a baseline
/// path in `compare` but is boolean in `runs trend`, so the sets are
/// per-command.
fn command_flags(
    command: &str,
    sub: Option<&str>,
) -> Option<(&'static [&'static str], &'static [&'static str])> {
    Some(match (command, sub) {
        ("generate", _) => (&["node", "clips", "size", "jitter", "out"], &[]),
        ("train", _) => (
            &[
                "data",
                "epochs",
                "seed",
                "health-stride",
                "abort-on",
                "poison-nan-at-epoch",
                "out",
            ],
            &["augment", "health"],
        ),
        ("eval", _) => (&["data", "model"], &[]),
        ("predict", _) => (&["data", "model", "index", "out-dir"], &[]),
        ("report" | "reindex" | "help", _) => (&[], &[]),
        ("triage", _) => (&["worst"], &[]),
        ("profile", _) => (&["top"], &[]),
        ("health", _) => (&["fail-on"], &[]),
        ("compare", _) => (&["gate", "write-baseline", "tol-pct"], &[]),
        ("runs", Some("ls")) => (&["status", "command", "dataset", "last"], &["json"]),
        ("runs", Some("trend")) => (
            &["slice", "last", "tol-pct", "drift-runs", "out"],
            &["gate"],
        ),
        ("runs", Some("diff-eval")) => (&["tol-pct"], &["gate"]),
        ("runs", Some("gc")) => (&["keep", "baseline"], &[]),
        ("alerts", _) => (&["rules"], &["gate", "json"]),
        ("watch", _) => (&["interval-ms", "timeout-s", "wait-s"], &[]),
        ("dash", _) => (&["addr"], &[]),
        _ => return None,
    })
}

/// Parses an argument vector (without the program name or global flags).
///
/// # Errors
///
/// A flag the command does not know — including the `--flag=VALUE`
/// spelling, which only the global flags accept — is an error naming the
/// flag and the command, never silently ignored.
fn parse(args: &[String]) -> Result<Command> {
    let get = |flag: &str| -> Option<String> {
        args.windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].clone())
    };
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let command = args.first().map(String::as_str);
    if has("--help") {
        return Ok(match command {
            Some(cmd) => Command::HelpFor(cmd.to_string()),
            None => Command::Help,
        });
    }
    // Positional operands: everything that is not a flag or a flag value.
    let mut positionals = Vec::new();
    if let Some((value_flags, bool_flags)) =
        command.and_then(|c| command_flags(c, args.get(1).map(String::as_str)))
    {
        let name = match command {
            Some("runs") => format!("runs {}", args[1]),
            _ => command.unwrap_or_default().to_string(),
        };
        let mut rest = args[1..].iter();
        while let Some(a) = rest.next() {
            match a.strip_prefix("--") {
                Some(flag) if value_flags.contains(&flag) => {
                    if rest.next().is_none() {
                        return Err(bad(format!("{name}: {a} needs a value")));
                    }
                }
                Some(flag) if bool_flags.contains(&flag) => {}
                Some(_) => {
                    return Err(bad(format!(
                        "{name}: unknown flag {a:?} (see `{name} --help`)"
                    )));
                }
                None => positionals.push(a.clone()),
            }
        }
    }
    match command {
        Some("generate") => Ok(Command::Generate {
            node: get("--node").unwrap_or_else(|| "N10".into()),
            clips: get("--clips").map_or(Ok(140), |v| v.parse().map_err(|_| bad("--clips")))?,
            size: get("--size").map_or(Ok(64), |v| v.parse().map_err(|_| bad("--size")))?,
            jitter_nm: get("--jitter").map_or(Ok(3.0), |v| v.parse().map_err(|_| bad("--jitter")))?,
            out: get("--out").ok_or_else(|| bad("generate requires --out"))?,
        }),
        Some("train") => Ok(Command::Train {
            data: get("--data").ok_or_else(|| bad("train requires --data"))?,
            epochs: get("--epochs").map_or(Ok(10), |v| v.parse().map_err(|_| bad("--epochs")))?,
            seed: get("--seed").map_or(Ok(0), |v| v.parse().map_err(|_| bad("--seed")))?,
            augment: has("--augment"),
            // Any health-adjacent flag implies the health stream.
            health: has("--health")
                || has("--health-stride")
                || has("--abort-on")
                || has("--poison-nan-at-epoch"),
            health_stride: get("--health-stride")
                .map_or(Ok(8), |v| v.parse().map_err(|_| bad("--health-stride")))?,
            abort_on: get("--abort-on"),
            poison_nan_at_epoch: get("--poison-nan-at-epoch")
                .map(|v| v.parse().map_err(|_| bad("--poison-nan-at-epoch")))
                .transpose()?,
            out: get("--out").ok_or_else(|| bad("train requires --out"))?,
        }),
        Some("eval") => Ok(Command::Eval {
            data: get("--data").ok_or_else(|| bad("eval requires --data"))?,
            model: get("--model").ok_or_else(|| bad("eval requires --model"))?,
        }),
        Some("predict") => Ok(Command::Predict {
            data: get("--data").ok_or_else(|| bad("predict requires --data"))?,
            model: get("--model").ok_or_else(|| bad("predict requires --model"))?,
            index: get("--index").map_or(Ok(0), |v| v.parse().map_err(|_| bad("--index")))?,
            out_dir: get("--out-dir").unwrap_or_else(|| ".".into()),
        }),
        Some("report") => match positionals.as_slice() {
            [run] => Ok(Command::Report { run: run.clone() }),
            _ => Err(bad("report takes exactly one <run-id|run-dir>")),
        },
        Some("triage") => match positionals.as_slice() {
            [run] => Ok(Command::Triage {
                run: run.clone(),
                worst: get("--worst").map_or(Ok(10), |v| v.parse().map_err(|_| bad("--worst")))?,
            }),
            _ => Err(bad("triage takes exactly one <run-id|run-dir>")),
        },
        Some("profile") => match positionals.as_slice() {
            [run] => Ok(Command::Profile {
                run: run.clone(),
                top: get("--top").map_or(Ok(20), |v| v.parse().map_err(|_| bad("--top")))?,
            }),
            _ => Err(bad("profile takes exactly one <run-id|run-dir>")),
        },
        Some("health") => match positionals.as_slice() {
            [run] => Ok(Command::Health {
                run: run.clone(),
                fail_on: get("--fail-on"),
            }),
            _ => Err(bad("health takes exactly one <run-id|run-dir>")),
        },
        Some("compare") => {
            let (a, b) = match positionals.as_slice() {
                [a] => (a.clone(), None),
                [a, b] => (a.clone(), Some(b.clone())),
                _ => return Err(bad("compare takes <run-a> [<run-b>]")),
            };
            let gate = get("--gate");
            let write_baseline = get("--write-baseline");
            if b.is_none() && gate.is_none() && write_baseline.is_none() {
                return Err(bad("compare needs a second run, --gate or --write-baseline"));
            }
            Ok(Command::Compare {
                a,
                b,
                gate,
                tol_pct: get("--tol-pct")
                    .map(|v| v.parse().map_err(|_| bad("--tol-pct")))
                    .transpose()?,
                write_baseline,
            })
        }
        Some("runs") => match args.get(1).map(String::as_str) {
            Some("ls") => Ok(Command::RunsLs {
                status: get("--status"),
                command: get("--command"),
                dataset: get("--dataset"),
                last: get("--last")
                    .map(|v| v.parse().map_err(|_| bad("--last")))
                    .transpose()?,
                json: has("--json"),
            }),
            Some("trend") => {
                // The subcommand word is positional too; skip it.
                let metrics = match positionals.as_slice() {
                    [_, m] => m.clone(),
                    _ => return Err(bad("runs trend takes exactly one <metric[,metric...]>")),
                };
                Ok(Command::RunsTrend {
                    metrics,
                    slice: get("--slice"),
                    last: get("--last")
                        .map(|v| v.parse().map_err(|_| bad("--last")))
                        .transpose()?,
                    gate: has("--gate"),
                    tol_pct: get("--tol-pct")
                        .map(|v| v.parse().map_err(|_| bad("--tol-pct")))
                        .transpose()?,
                    drift_runs: get("--drift-runs")
                        .map(|v| v.parse().map_err(|_| bad("--drift-runs")))
                        .transpose()?,
                    out: get("--out"),
                })
            }
            Some("diff-eval") => {
                let (a, b) = match positionals.as_slice() {
                    [_, a, b] => (a.clone(), b.clone()),
                    _ => return Err(bad("runs diff-eval takes <run-a> <run-b>")),
                };
                Ok(Command::RunsDiffEval {
                    a,
                    b,
                    gate: has("--gate"),
                    tol_pct: get("--tol-pct")
                        .map(|v| v.parse().map_err(|_| bad("--tol-pct")))
                        .transpose()?,
                })
            }
            Some("gc") => Ok(Command::RunsGc {
                keep: get("--keep")
                    .ok_or_else(|| bad("runs gc requires --keep N"))?
                    .parse()
                    .map_err(|_| bad("--keep"))?,
                baseline: get("--baseline"),
            }),
            _ => Err(bad("runs takes a subcommand: ls, trend, diff-eval or gc")),
        },
        Some("reindex") => Ok(Command::Reindex),
        Some("alerts") => Ok(Command::Alerts {
            rules: get("--rules"),
            gate: has("--gate"),
            json: has("--json"),
        }),
        Some("watch") => match positionals.as_slice() {
            [run] => Ok(Command::Watch {
                run: run.clone(),
                interval_ms: get("--interval-ms")
                    .map_or(Ok(200), |v| v.parse().map_err(|_| bad("--interval-ms")))?,
                timeout_s: get("--timeout-s")
                    .map(|v| v.parse().map_err(|_| bad("--timeout-s")))
                    .transpose()?,
                wait_s: get("--wait-s")
                    .map_or(Ok(10), |v| v.parse().map_err(|_| bad("--wait-s")))?,
            }),
            _ => Err(bad("watch takes exactly one <run-id|run-dir>")),
        },
        Some("dash") => Ok(Command::Dash {
            addr: get("--addr").unwrap_or_else(|| "127.0.0.1:9091".into()),
        }),
        Some("help") => Ok(match args.get(1) {
            Some(cmd) => Command::HelpFor(cmd.clone()),
            None => Command::Help,
        }),
        None => Ok(Command::Help),
        Some(other) => Err(bad(format!("unknown command {other:?}\n{}", usage()))),
    }
}

impl Command {
    fn name(&self) -> &'static str {
        match self {
            Command::Generate { .. } => "generate",
            Command::Train { .. } => "train",
            Command::Eval { .. } => "eval",
            Command::Predict { .. } => "predict",
            Command::Report { .. } => "report",
            Command::Triage { .. } => "triage",
            Command::Profile { .. } => "profile",
            Command::Health { .. } => "health",
            Command::Compare { .. } => "compare",
            Command::RunsLs { .. }
            | Command::RunsTrend { .. }
            | Command::RunsDiffEval { .. }
            | Command::RunsGc { .. } => "runs",
            Command::Reindex => "reindex",
            Command::Alerts { .. } => "alerts",
            Command::Watch { .. } => "watch",
            Command::Dash { .. } => "dash",
            Command::Help | Command::HelpFor(_) => "help",
        }
    }

    /// Should this invocation open a run ledger?
    fn records_run(&self) -> bool {
        matches!(
            self,
            Command::Generate { .. }
                | Command::Train { .. }
                | Command::Eval { .. }
                | Command::Predict { .. }
                | Command::Dash { .. }
        )
    }

    fn seed(&self) -> Option<u64> {
        match self {
            Command::Train { seed, .. } => Some(*seed),
            _ => None,
        }
    }

    /// Flat key/value pairs for the run manifest.
    fn config_pairs(&self) -> Vec<(String, String)> {
        let kv = |k: &str, v: String| (k.to_string(), v);
        match self {
            Command::Generate {
                node,
                clips,
                size,
                jitter_nm,
                out,
            } => vec![
                kv("node", node.clone()),
                kv("clips", clips.to_string()),
                kv("size", size.to_string()),
                kv("jitter_nm", jitter_nm.to_string()),
                kv("out", out.clone()),
            ],
            Command::Train {
                data,
                epochs,
                seed,
                augment,
                health,
                health_stride,
                abort_on,
                poison_nan_at_epoch,
                out,
            } => {
                let mut pairs = vec![
                    kv("data", data.clone()),
                    kv("epochs", epochs.to_string()),
                    kv("seed", seed.to_string()),
                    kv("augment", augment.to_string()),
                    kv("out", out.clone()),
                ];
                if *health {
                    pairs.push(kv("health", "true".to_string()));
                    pairs.push(kv("health_stride", health_stride.to_string()));
                }
                if let Some(conds) = abort_on {
                    pairs.push(kv("abort_on", conds.clone()));
                }
                if let Some(epoch) = poison_nan_at_epoch {
                    pairs.push(kv("poison_nan_at_epoch", epoch.to_string()));
                }
                pairs
            }
            Command::Eval { data, model } => {
                vec![kv("data", data.clone()), kv("model", model.clone())]
            }
            Command::Predict {
                data,
                model,
                index,
                out_dir,
            } => vec![
                kv("data", data.clone()),
                kv("model", model.clone()),
                kv("index", index.to_string()),
                kv("out_dir", out_dir.clone()),
            ],
            Command::Dash { addr } => vec![kv("addr", addr.clone())],
            _ => Vec::new(),
        }
    }
}

/// Turns telemetry on. A JSONL sink goes to `--metrics-out` when given,
/// else to the active run's `trace.jsonl`; with a ledger present,
/// telemetry is always enabled so every run carries its trace.
fn init_telemetry(
    opts: &GlobalOpts,
    command: &str,
    ledger: Option<&mut RunLedger>,
) -> Result<()> {
    let has_ledger = ledger.is_some();
    if !opts.trace && opts.metrics_out.is_none() && !has_ledger {
        return Ok(());
    }
    let sink_path: Option<PathBuf> = match (&opts.metrics_out, &ledger) {
        (Some(path), _) => Some(PathBuf::from(path)),
        (None, Some(ledger)) => Some(ledger.default_trace_path()),
        (None, None) => None,
    };
    if let Some(path) = &sink_path {
        let sink = litho_telemetry::JsonlSink::create(path)
            .map_err(|e| bad(format!("--metrics-out {}: {e}", path.display())))?;
        litho_telemetry::set_sink(Some(Box::new(sink)));
    }
    if let Some(ledger) = ledger {
        let trace = match &opts.metrics_out {
            // An explicit path lives outside the run dir; record it as given.
            Some(path) => path.clone(),
            None => "trace.jsonl".to_string(),
        };
        ledger.set_trace_path(&trace).map_err(io_err)?;
        litho_telemetry::set_run_id(Some(ledger.run_id()));
    }
    litho_telemetry::enable();
    // Per-job pool accounting is cheap (two clock reads per participant)
    // and only meaningful with somewhere to report to, so it follows the
    // telemetry switch.
    litho_tensor::pool::set_profiling(true);
    litho_telemetry::emit_run_metadata(&[(
        "command",
        litho_telemetry::Value::Str(command.to_string()),
    )]);
    Ok(())
}

fn net_for(size: usize) -> NetConfig {
    if size == 256 {
        NetConfig::paper()
    } else {
        NetConfig::scaled(size)
    }
}

/// Dataset identity for the manifest: path, content fingerprint and shape.
fn dataset_info(path: &str, ds: &Dataset) -> Result<DatasetInfo> {
    let (fingerprint, bytes) = fingerprint_file(Path::new(path)).map_err(io_err)?;
    Ok(DatasetInfo {
        path: path.to_string(),
        fingerprint,
        bytes,
        samples: ds.len(),
        image_size: ds.config.image_size,
        node: ds.config.process.name.clone(),
        nm_per_px: ds.config.golden_nm_per_px(),
    })
}

/// Resolves a `report`/`compare` operand: a run directory path, or a run
/// id under the runs root. An argument that is neither an existing run
/// directory nor a valid single-component run id is rejected, so
/// `report ../../x` can never escape the runs root.
fn resolve_run(arg: &str, runs_root: &str) -> Result<RunData> {
    let direct = Path::new(arg);
    let dir = if direct.join("manifest.json").exists() {
        direct.to_path_buf()
    } else {
        validate_run_id(arg).map_err(io_err)?;
        Path::new(runs_root).join(arg)
    };
    load_run(&dir).map_err(|e| bad(format!("run {arg:?}: {e}")))
}

/// How many samples `eval_into_ledger` stacks into one inference batch.
/// Bounds workspace memory while keeping the GEMMs wide enough to feed
/// the worker pool.
const EVAL_BATCH: usize = 8;

/// Evaluates `samples` and appends one record per sample to the ledger.
/// Inference runs batched (bit-identical to per-sample `predict`); the
/// measured throughput is stamped into the manifest as
/// `samples_per_sec`. Returns the accumulator for summary printing.
fn eval_into_ledger(
    model: &mut LithoGan,
    samples: &[&litho_dataset::Sample],
    nm_per_px: f64,
    ledger: &mut Option<RunLedger>,
) -> Result<MetricAccumulator> {
    let mut acc = MetricAccumulator::new(nm_per_px);
    let t0 = std::time::Instant::now();
    let mut predictions = Vec::with_capacity(samples.len());
    for chunk in samples.chunks(EVAL_BATCH) {
        let masks: Vec<&litho_tensor::Tensor> = chunk.iter().map(|s| &s.mask).collect();
        predictions.extend(model.predict_batch(&masks)?);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    if let Some(ledger) = ledger {
        if !samples.is_empty() && elapsed > 0.0 {
            ledger.set_samples_per_sec(samples.len() as f64 / elapsed);
        }
    }
    for (i, (prediction, s)) in predictions.iter().zip(samples).enumerate() {
        litho_telemetry::set_sample_id(Some(i as u64));
        // Clip identity rides every record so `triage` / `runs diff-eval`
        // can join this run against any other run of the same dataset.
        let record = acc.add_pair_identified(
            prediction,
            &s.golden,
            &s.clip.fingerprint(),
            s.family.name(),
        )?;
        if let Some(ledger) = ledger {
            ledger.append_record(&record).map_err(io_err)?;
        }
    }
    litho_telemetry::set_sample_id(None);
    Ok(acc)
}

fn run(cmd: Command, opts: &GlobalOpts, ledger: &mut Option<RunLedger>) -> Result<()> {
    match cmd {
        Command::Help => {
            println!("{}", usage());
            Ok(())
        }
        Command::HelpFor(cmd) => {
            println!("{}", command_help(&cmd));
            Ok(())
        }
        Command::Generate {
            node,
            clips,
            size,
            jitter_nm,
            out,
        } => {
            let process = match node.to_uppercase().as_str() {
                "N10" => ProcessConfig::n10(),
                "N7" => ProcessConfig::n7(),
                other => return Err(bad(format!("unknown node {other:?} (N10 or N7)"))),
            };
            let mut config = DatasetConfig::scaled(process, clips, size);
            config.mask_jitter_nm = jitter_nm;
            let t0 = std::time::Instant::now();
            let (ds, stats) = generate(&config)?;
            save_dataset(&ds, &out)?;
            if let Some(ledger) = ledger {
                ledger.set_dataset(dataset_info(&out, &ds)?).map_err(io_err)?;
            }
            println!(
                "generated {} samples in {:.1?} ({} retries, {} OPC non-converged) -> {out}",
                ds.len(),
                t0.elapsed(),
                stats.empty_golden_retries,
                stats.opc_unconverged
            );
            Ok(())
        }
        Command::Train {
            data,
            epochs,
            seed,
            augment,
            health,
            health_stride,
            abort_on,
            poison_nan_at_epoch,
            out,
        } => {
            let ds = load_dataset(&data)?;
            if let Some(ledger) = ledger {
                ledger.set_dataset(dataset_info(&data, &ds)?).map_err(io_err)?;
            }
            let (train, test) = ds.split();
            let cfg = TrainConfig {
                epochs,
                seed,
                augment,
                ..TrainConfig::paper()
            };
            let mut model = LithoGan::new(&net_for(ds.config.image_size), seed);
            let monitor = if health {
                let conds = match &abort_on {
                    Some(list) => AbortCondition::parse_list(list)
                        .map_err(|name| bad(format!("--abort-on: unknown condition {name:?}")))?,
                    None => Vec::new(),
                };
                let path = match ledger {
                    Some(ledger) => ledger.dir().join("health.jsonl"),
                    None => PathBuf::from("health.jsonl"),
                };
                let monitor = HealthMonitor::create(
                    &path,
                    HealthConfig {
                        stride: health_stride.max(1),
                        abort_on: conds,
                        poison_nan_at_epoch,
                        ..HealthConfig::default()
                    },
                )
                .map_err(io_err)?;
                model.attach_health(&monitor);
                eprintln!("health: {}", path.display());
                Some(monitor)
            } else {
                None
            };
            let t0 = std::time::Instant::now();
            let train_result = model.train(&train, &cfg, |epoch, _| {
                eprintln!("epoch {}/{epochs} done ({:.1?})", epoch + 1, t0.elapsed());
                // Push buffered trace/health records to disk each epoch so
                // `lithogan-cli watch` sees progress while training runs.
                litho_telemetry::flush();
                if let Some(monitor) = &monitor {
                    monitor.flush();
                }
            });
            if let Some(monitor) = &monitor {
                monitor.flush();
            }
            let history = train_result?;
            model.save_to_path(&out)?;
            println!(
                "trained on {} samples; generator loss {:.2} -> {:.2}; saved {out}",
                train.len(),
                history.g_loss.first().copied().unwrap_or(0.0),
                history.g_loss.last().copied().unwrap_or(0.0)
            );
            // Post-training evaluation on the held-out split feeds the run
            // ledger, so `report`/`compare --gate` see quality, not just loss.
            if !test.is_empty() {
                let acc =
                    eval_into_ledger(&mut model, &test, ds.config.golden_nm_per_px(), ledger)?;
                let s = acc.summary();
                println!(
                    "test split  {} samples: EDE {:.2} nm, pixel acc {:.4}, mIoU {:.4}",
                    s.samples, s.ede_mean_nm, s.pixel_accuracy, s.mean_iou
                );
            }
            Ok(())
        }
        Command::Eval { data, model } => {
            let ds = load_dataset(&data)?;
            if let Some(ledger) = ledger {
                ledger.set_dataset(dataset_info(&data, &ds)?).map_err(io_err)?;
            }
            let (_, test) = ds.split();
            let mut m = LithoGan::load_from_path(&net_for(ds.config.image_size), &model)?;
            let acc = eval_into_ledger(&mut m, &test, ds.config.golden_nm_per_px(), ledger)?;
            let s = acc.summary();
            println!(
                "test samples {}\nEDE        {:.2} ± {:.2} nm\npixel acc  {:.4}\nclass acc  {:.4}\nmean IoU   {:.4}\ncentre err {:.2} nm",
                s.samples, s.ede_mean_nm, s.ede_std_nm, s.pixel_accuracy, s.class_accuracy, s.mean_iou, s.center_error_nm
            );
            for sl in &s.slices {
                let ede = sl
                    .ede_mean_nm
                    .map_or("-".to_string(), |v| format!("{v:.2} nm"));
                println!(
                    "  {:<9} {:>4} samples, EDE {ede}, mIoU {:.4}",
                    sl.family, sl.samples, sl.mean_iou
                );
            }
            Ok(())
        }
        Command::Predict {
            data,
            model,
            index,
            out_dir,
        } => {
            let ds = load_dataset(&data)?;
            if let Some(ledger) = ledger {
                ledger.set_dataset(dataset_info(&data, &ds)?).map_err(io_err)?;
            }
            let sample = ds
                .samples
                .get(index)
                .ok_or_else(|| bad(format!("index {index} out of range ({})", ds.len())))?;
            let mut m = LithoGan::load_from_path(&net_for(ds.config.image_size), &model)?;
            litho_telemetry::set_sample_id(Some(index as u64));
            let p = m.predict_detailed(&sample.mask)?;
            litho_telemetry::set_sample_id(None);
            if let Some(ledger) = ledger {
                let mut acc = MetricAccumulator::new(ds.config.golden_nm_per_px());
                let record = acc.add_pair_identified(
                    &p.adjusted,
                    &sample.golden,
                    &sample.clip.fingerprint(),
                    sample.family.name(),
                )?;
                ledger.append_record(&record).map_err(io_err)?;
            }
            std::fs::create_dir_all(&out_dir).map_err(io_err)?;
            let dir = Path::new(&out_dir);
            write_ppm(&sample.mask, dir.join(format!("sample{index}_mask.ppm")))?;
            let binary = p.adjusted.map(|v| if v >= 0.5 { 1.0 } else { 0.0 });
            let panel = overlay_panel(&binary, &sample.golden)?;
            write_ppm(&panel, dir.join(format!("sample{index}_prediction.ppm")))?;
            println!(
                "sample {index}: predicted centre ({:.1}, {:.1}) px, inference {:.2} ms; panels in {out_dir}",
                p.center_px.0,
                p.center_px.1,
                p.elapsed.as_secs_f64() * 1e3
            );
            Ok(())
        }
        Command::Report { run } => {
            let data = resolve_run(&run, &opts.runs_root)?;
            print!("{}", render_report(&data));
            let svg_path = data.dir.join("dashboard.svg");
            std::fs::write(&svg_path, dashboard_svg(&data)).map_err(io_err)?;
            println!("dashboard:  {}", svg_path.display());
            Ok(())
        }
        Command::Triage { run, worst } => {
            let data = resolve_run(&run, &opts.runs_root)?;
            print!(
                "{}",
                render_triage(&data.manifest.run_id, &data.records, worst)
            );
            let nm_per_px = data
                .manifest
                .dataset
                .as_ref()
                .map_or(1.0, |d| d.nm_per_px);
            let svg_path = data.dir.join("triage.svg");
            let svg = triage_svg(&data.manifest.run_id, &data.records, worst, nm_per_px);
            std::fs::write(&svg_path, svg).map_err(io_err)?;
            println!("gallery:    {}", svg_path.display());
            Ok(())
        }
        Command::Profile { run, top } => {
            let data = resolve_run(&run, &opts.runs_root)?;
            let Some(trace) = &data.trace else {
                return Err(bad(format!(
                    "run {run:?} has no telemetry trace — rerun without --no-run"
                )));
            };
            print!("{}", render_attribution(trace, top));
            let svg_path = data.dir.join("flamegraph.svg");
            std::fs::write(&svg_path, flamegraph_svg(trace)).map_err(io_err)?;
            let folded_path = data.dir.join("flamegraph.folded");
            std::fs::write(&folded_path, fold_lines(trace)).map_err(io_err)?;
            println!("flamegraph: {}", svg_path.display());
            println!("folded:     {}", folded_path.display());
            Ok(())
        }
        Command::Health { run, fail_on } => {
            let data = resolve_run(&run, &opts.runs_root)?;
            let Some(h) = &data.health else {
                return Err(bad(format!(
                    "run {run:?} has no health.jsonl — train with --health"
                )));
            };
            print!("{}", render_health(&data.manifest.run_id, h));
            let svg_path = data.dir.join("health.svg");
            std::fs::write(&svg_path, health_svg(&data.manifest.run_id, h)).map_err(io_err)?;
            println!("panel:      {}", svg_path.display());
            if let Some(list) = fail_on {
                let kinds = DiagnosisKind::parse_list(&list)
                    .map_err(|name| bad(format!("--fail-on: unknown diagnosis {name:?}")))?;
                let mut fired: Vec<&str> = h
                    .diagnoses
                    .iter()
                    .filter(|d| kinds.contains(&d.kind))
                    .map(|d| d.kind.as_str())
                    .collect();
                fired.dedup();
                if !fired.is_empty() {
                    return Err(bad(format!("health check failed: {}", fired.join(", "))));
                }
            }
            Ok(())
        }
        Command::Compare {
            a,
            b,
            gate: gate_path,
            tol_pct,
            write_baseline,
        } => {
            let run_a = resolve_run(&a, &opts.runs_root)?;
            if let Some(b) = b {
                let run_b = resolve_run(&b, &opts.runs_root)?;
                print!("{}", render_compare(&run_a, &run_b));
            }
            if let Some(path) = write_baseline {
                let keys = [
                    "ede_mean_nm",
                    "pixel_accuracy",
                    "class_accuracy",
                    "mean_iou",
                ];
                let baseline = Baseline::from_run(&run_a, tol_pct.unwrap_or(25.0), &keys);
                std::fs::write(&path, baseline.to_json_string()).map_err(io_err)?;
                println!("baseline written to {path}");
            }
            if let Some(path) = gate_path {
                let baseline = Baseline::load(Path::new(&path))
                    .map_err(|e| bad(format!("--gate {path}: {e}")))?;
                let outcome = gate(&run_a, &baseline, tol_pct);
                print!("{}", outcome.render());
                if !outcome.passed() {
                    let failed: Vec<String> =
                        outcome.failures().map(|c| c.metric.clone()).collect();
                    return Err(bad(format!("regression gate failed: {}", failed.join(", "))));
                }
            }
            Ok(())
        }
        Command::RunsLs {
            status,
            command,
            dataset,
            last,
            json,
        } => {
            let root = Path::new(&opts.runs_root);
            let parse = load_index(root).map_err(io_err)?;
            if parse.skipped_lines > 0 {
                eprintln!(
                    "warning: index has {} corrupt line(s) — run `lithogan-cli reindex`",
                    parse.skipped_lines
                );
            }
            let mut records = parse.records;
            if let Some(s) = &status {
                records
                    .retain(|r| r.status == *s || (s == "aborted" && r.status.starts_with("aborted")));
            }
            if let Some(c) = &command {
                records.retain(|r| r.command == *c);
            }
            if let Some(fp) = &dataset {
                records.retain(|r| {
                    r.dataset_fingerprint
                        .as_deref()
                        .is_some_and(|f| f.starts_with(fp.as_str()))
                });
            }
            if let Some(n) = last {
                let cut = records.len().saturating_sub(n);
                records.drain(..cut);
            }
            if json {
                // Same serializer as the index lines and /api/runs, so
                // downstream tooling sees one schema.
                for r in &records {
                    println!("{}", r.to_jsonl());
                }
                return Ok(());
            }
            if records.is_empty() {
                println!("no runs match under {}", root.display());
                return Ok(());
            }
            let w = records
                .iter()
                .map(|r| r.run_id.len())
                .max()
                .unwrap_or(3)
                .max(3);
            println!(
                "{:<w$}  {:<16}  {:<8}  {:<10}  {:>7}  {:<12}  {:>8}  health",
                "run", "started (UTC)", "command", "status", "wall", "dataset", "ede nm"
            );
            for r in &records {
                let wall = r
                    .wall_clock_s
                    .map_or("-".to_string(), |v| format!("{v:.1}s"));
                let fp = r
                    .dataset_fingerprint
                    .as_deref()
                    .map_or("-", |f| &f[..f.len().min(12)]);
                let ede = r
                    .metric("ede_mean_nm")
                    .map_or("-".to_string(), |v| format!("{v:.2}"));
                println!(
                    "{:<w$}  {:<16}  {:<8}  {:<10}  {:>7}  {:<12}  {:>8}  {}",
                    r.run_id,
                    fmt_unix(r.started_unix_s),
                    r.command,
                    r.status,
                    wall,
                    fp,
                    ede,
                    r.health.as_deref().unwrap_or("-"),
                );
            }
            println!("{} run(s)", records.len());
            Ok(())
        }
        Command::RunsTrend {
            metrics,
            slice,
            last,
            gate: gate_on,
            tol_pct,
            drift_runs,
            out,
        } => {
            let root = Path::new(&opts.runs_root);
            let records = load_index(root).map_err(io_err)?.records;
            if records.is_empty() {
                return Err(bad(format!(
                    "no runs indexed under {} (need runs, or `lithogan-cli reindex`)",
                    root.display()
                )));
            }
            let mut cfg = TrendConfig::default();
            if let Some(p) = tol_pct {
                cfg.tol_pct = p;
            }
            if let Some(n) = drift_runs {
                cfg.drift_runs = n.max(1);
            }
            // `--slice family=F` redirects every metric to its per-family
            // slice key; runs without that slice simply have no value for
            // the key, so they abstain from the trend and its drift gate.
            let family = match &slice {
                Some(spec) => match spec.strip_prefix("family=") {
                    Some(f) if !f.is_empty() => Some(f.to_string()),
                    _ => return Err(bad("--slice takes family=<name>")),
                },
                None => None,
            };
            let mut trends = Vec::new();
            for metric in metrics.split(',').map(str::trim).filter(|m| !m.is_empty()) {
                let key = match &family {
                    Some(f) => slice_metric_key(metric, f),
                    None => metric.to_string(),
                };
                let t = trend(&records, &key, last, &cfg);
                print!("{}", render_trend(&t));
                trends.push(t);
            }
            if trends.is_empty() {
                return Err(bad("runs trend: empty metric list"));
            }
            let svg_path = out.map_or_else(|| root.join("trend.svg"), PathBuf::from);
            std::fs::write(&svg_path, trend_svg(&trends)).map_err(io_err)?;
            println!("trend:      {}", svg_path.display());
            if gate_on {
                let drifted: Vec<&str> = trends
                    .iter()
                    .filter(|t| t.drift.is_some())
                    .map(|t| t.metric.as_str())
                    .collect();
                if !drifted.is_empty() {
                    return Err(bad(format!(
                        "trend gate failed: drift in {}",
                        drifted.join(", ")
                    )));
                }
                println!("trend gate: PASS");
            }
            Ok(())
        }
        Command::RunsDiffEval {
            a,
            b,
            gate: gate_on,
            tol_pct,
        } => {
            let run_a = resolve_run(&a, &opts.runs_root)?;
            let run_b = resolve_run(&b, &opts.runs_root)?;
            let d = diff_eval(
                &run_a.manifest.run_id,
                &run_a.records,
                &run_b.manifest.run_id,
                &run_b.records,
                tol_pct.unwrap_or(10.0),
            );
            print!("{}", render_diff_eval(&d));
            if gate_on && !d.gate_passed() {
                return Err(bad(format!(
                    "diff-eval gate failed: {} clip(s) regressed",
                    d.regressed.len()
                )));
            }
            Ok(())
        }
        Command::RunsGc { keep, baseline } => {
            let root = Path::new(&opts.runs_root);
            // The baseline run must survive gc: a vanished baseline would
            // silently disarm `compare --gate` in CI.
            let baseline_path = match baseline {
                Some(path) => Some(PathBuf::from(path)),
                None => {
                    let default = PathBuf::from("ci/baseline.json");
                    default.exists().then_some(default)
                }
            };
            let mut protected = Vec::new();
            if let Some(path) = baseline_path {
                let b = Baseline::load(&path)
                    .map_err(|e| bad(format!("--baseline {}: {e}", path.display())))?;
                if let Some(id) = b.run_id {
                    protected.push(id);
                }
            }
            let outcome = litho_ledger::index::gc(root, keep, &protected).map_err(io_err)?;
            println!(
                "gc: kept {}, removed {}, protected {}",
                outcome.kept.len(),
                outcome.removed.len(),
                outcome.protected.len()
            );
            for id in &outcome.removed {
                println!("removed   {id}");
            }
            for id in &outcome.protected {
                println!("protected {id}");
            }
            Ok(())
        }
        Command::Reindex => {
            let root = Path::new(&opts.runs_root);
            let outcome = reindex(root).map_err(io_err)?;
            println!(
                "reindexed {} run(s) -> {}",
                outcome.records.len(),
                litho_ledger::index::index_path(root).display()
            );
            for dir in &outcome.unreadable {
                eprintln!("warning: skipped unreadable run dir {dir}");
            }
            Ok(())
        }
        Command::Alerts { rules, gate, json } => {
            let root = Path::new(&opts.runs_root);
            let rules =
                litho_alert::load_rules(root, rules.as_deref().map(Path::new)).map_err(io_err)?;
            let records = load_index(root).map_err(io_err)?.records;
            let prior = litho_alert::load_alerts(root).map_err(io_err)?;
            let now = std::time::SystemTime::now()
                .duration_since(std::time::SystemTime::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            let ctx = litho_alert::EngineContext {
                records: &records,
                runs_root: root,
                now_unix_s: now,
            };
            let outcome = litho_alert::evaluate(&rules, &ctx, &prior.active());
            litho_alert::append_alerts(root, &outcome.transitions).map_err(io_err)?;
            for t in &outcome.transitions {
                eprintln!("{}", litho_alert::render_transition(t));
            }
            print!("{}", litho_alert::render_alerts_table(&outcome.active));
            if json {
                for a in &outcome.active {
                    println!("{}", a.to_json());
                }
            }
            let firing = outcome.firing().len();
            if gate {
                if firing > 0 {
                    return Err(bad(format!("alerts gate: {firing} alert(s) firing")));
                }
                println!("alerts gate: PASS");
            }
            Ok(())
        }
        Command::Watch {
            run,
            interval_ms,
            timeout_s,
            wait_s,
        } => {
            let direct = Path::new(&run);
            let dir = if direct.join("manifest.json").exists() || direct.is_dir() {
                direct.to_path_buf()
            } else {
                validate_run_id(&run).map_err(io_err)?;
                Path::new(&opts.runs_root).join(&run)
            };
            let cfg = WatchConfig {
                interval: Duration::from_millis(interval_ms.max(10)),
                timeout: timeout_s.map(Duration::from_secs),
                wait_create: Duration::from_secs(wait_s),
            };
            eprintln!("watching {}", dir.display());
            let mut session = WatchSession::new(&dir);
            // Alert transitions appended while watching are echoed live;
            // the initial drain swallows history so only new ones print.
            let mut alerts_tail = litho_ledger::json::jsonl::JsonlTailer::new(
                litho_alert::alerts_path(Path::new(&opts.runs_root)),
            );
            let _ = alerts_tail.poll();
            // Snapshots can differ in unrendered fields (e.g. the health
            // record count); only print when the visible line changes.
            let mut last_line = String::new();
            let snap = session
                .follow_with(
                    &cfg,
                    |snap| {
                        let line = render_snapshot(snap);
                        if line != last_line {
                            eprintln!("{line}");
                            last_line = line;
                        }
                    },
                    || {
                        for v in alerts_tail.poll().unwrap_or_default() {
                            if let Some(rec) = litho_alert::AlertRecord::from_json(&v) {
                                eprintln!("{}", litho_alert::render_transition(&rec));
                            }
                        }
                    },
                )
                .map_err(|e| bad(format!("watch {run:?}: {e}")))?;
            println!("{}", render_snapshot(&snap));
            if snap.succeeded() {
                Ok(())
            } else {
                Err(bad(format!("run finished with status {:?}", snap.status)))
            }
        }
        Command::Dash { addr } => {
            let cfg = DashConfig {
                addr,
                runs_root: PathBuf::from(&opts.runs_root),
                // Exclude the dash's own (running) ledger from live tails.
                run_id: ledger.as_ref().map(|l| l.run_id().to_string()),
            };
            run_dash(&cfg).map_err(io_err)
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = split_global_args(&raw).and_then(|(args, opts)| {
        let cmd = parse(&args)?;
        Ok((cmd, opts))
    });
    let (cmd, opts) = match parsed {
        Ok(v) => v,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    };
    // Before the ledger opens, so the manifest records the effective width.
    if let Some(n) = opts.threads {
        litho_tensor::pool::configure_threads(n);
    }
    // Likewise: the manifest's `simd` field records the *effective* kernel
    // level, already clamped to what the host can execute.
    if let Some(level) = opts.simd {
        litho_tensor::configure_simd(level);
    }
    let mut ledger = if cmd.records_run() && !opts.no_run {
        match RunLedger::create(
            Path::new(&opts.runs_root),
            cmd.name(),
            cmd.seed(),
            cmd.config_pairs(),
            None,
        ) {
            Ok(ledger) => {
                eprintln!("run: {}", ledger.dir().display());
                // Crash forensics: ring the last telemetry events and
                // dump an incident bundle if this run panics or aborts.
                lithogan::incident::arm(ledger.dir(), litho_telemetry::DEFAULT_FLIGHT_CAPACITY);
                Some(ledger)
            }
            Err(err) => {
                eprintln!("error: cannot create run ledger: {err}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };
    let outcome = init_telemetry(&opts, cmd.name(), ledger.as_mut()).and_then(|()| {
        let result = run(cmd, &opts, &mut ledger);
        if let Some(ledger) = &mut ledger {
            // Compute-plane profile of the whole invocation: pool stats
            // accumulate from process start, so the totals are the run's.
            if let Some(util) = litho_tensor::pool::stats().utilization() {
                ledger.set_pool_utilization(util);
            }
            let ws = litho_tensor::peak_workspace_bytes();
            if ws > 0 {
                ledger.set_peak_workspace_bytes(ws);
            }
            // An aborted training run is recorded as such, distinct from
            // both a clean finish and an ordinary error.
            match &result {
                Err(TensorError::Aborted(reason)) => {
                    // Ship the post-mortem before finalize stamps the
                    // manifest, so the bundle snapshots the dying state.
                    match lithogan::incident::dump(&format!("aborted({reason})"), None) {
                        Ok(Some(bundle)) => eprintln!("incident: {}", bundle.display()),
                        Ok(None) => {}
                        Err(e) => eprintln!("warning: incident bundle failed: {e}"),
                    }
                    ledger
                        .finalize_with_status(&format!("aborted({reason})"))
                        .map_err(io_err)?
                }
                other => ledger.finalize(other.is_ok()).map_err(io_err)?,
            }
        }
        result
    });
    litho_telemetry::flush();
    if opts.trace && litho_telemetry::is_enabled() {
        litho_telemetry::print_report();
    }
    match outcome {
        Ok(()) => {}
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_generate_with_defaults() {
        let cmd = parse(&strs(&["generate", "--out", "x.lgd"])).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                node: "N10".into(),
                clips: 140,
                size: 64,
                jitter_nm: 3.0,
                out: "x.lgd".into()
            }
        );
    }

    #[test]
    fn parses_train_flags() {
        let cmd = parse(&strs(&[
            "train", "--data", "d.lgd", "--epochs", "5", "--augment", "--out", "m.lgm",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Train {
                data: "d.lgd".into(),
                epochs: 5,
                seed: 0,
                augment: true,
                health: false,
                health_stride: 8,
                abort_on: None,
                poison_nan_at_epoch: None,
                out: "m.lgm".into()
            }
        );
        assert_eq!(cmd.seed(), Some(0));
        assert!(cmd.records_run());
        assert!(cmd
            .config_pairs()
            .contains(&("epochs".to_string(), "5".to_string())));
        // No health flags -> no health config pairs.
        assert!(!cmd.config_pairs().iter().any(|(k, _)| k == "health"));
    }

    #[test]
    fn parses_train_health_flags() {
        let cmd = parse(&strs(&[
            "train",
            "--data",
            "d.lgd",
            "--health-stride",
            "4",
            "--abort-on",
            "nan,collapse",
            "--out",
            "m.lgm",
        ]))
        .unwrap();
        match &cmd {
            Command::Train {
                health,
                health_stride,
                abort_on,
                ..
            } => {
                // --health-stride / --abort-on imply --health.
                assert!(health);
                assert_eq!(*health_stride, 4);
                assert_eq!(abort_on.as_deref(), Some("nan,collapse"));
            }
            other => panic!("expected train, got {other:?}"),
        }
        let pairs = cmd.config_pairs();
        assert!(pairs.contains(&("health".to_string(), "true".to_string())));
        assert!(pairs.contains(&("abort_on".to_string(), "nan,collapse".to_string())));
        assert!(parse(&strs(&[
            "train", "--data", "d", "--health-stride", "x", "--out", "m"
        ]))
        .is_err());
    }

    #[test]
    fn parses_profile_command() {
        let cmd = parse(&strs(&["profile", "train-1-2"])).unwrap();
        assert_eq!(
            cmd,
            Command::Profile {
                run: "train-1-2".into(),
                top: 20,
            }
        );
        assert!(!cmd.records_run());
        assert_eq!(cmd.name(), "profile");
        assert_eq!(
            parse(&strs(&["profile", "r", "--top", "5"])).unwrap(),
            Command::Profile {
                run: "r".into(),
                top: 5,
            }
        );
        assert!(parse(&strs(&["profile"])).is_err());
        assert!(parse(&strs(&["profile", "a", "b"])).is_err());
        assert!(parse(&strs(&["profile", "r", "--top", "x"])).is_err());
    }

    #[test]
    fn parses_health_command() {
        assert_eq!(
            parse(&strs(&["health", "train-1-2"])).unwrap(),
            Command::Health {
                run: "train-1-2".into(),
                fail_on: None,
            }
        );
        let cmd = parse(&strs(&["health", "r", "--fail-on", "nan,dead-layer"])).unwrap();
        assert_eq!(
            cmd,
            Command::Health {
                run: "r".into(),
                fail_on: Some("nan,dead-layer".into()),
            }
        );
        assert!(!cmd.records_run());
        assert!(parse(&strs(&["health"])).is_err());
        assert!(parse(&strs(&["health", "a", "b"])).is_err());
    }

    #[test]
    fn parses_report_and_compare() {
        assert_eq!(
            parse(&strs(&["report", "train-1-2"])).unwrap(),
            Command::Report {
                run: "train-1-2".into()
            }
        );
        assert_eq!(
            parse(&strs(&["compare", "a", "b"])).unwrap(),
            Command::Compare {
                a: "a".into(),
                b: Some("b".into()),
                gate: None,
                tol_pct: None,
                write_baseline: None,
            }
        );
        let gated = parse(&strs(&[
            "compare", "a", "--gate", "base.json", "--tol-pct", "12.5",
        ]))
        .unwrap();
        assert_eq!(
            gated,
            Command::Compare {
                a: "a".into(),
                b: None,
                gate: Some("base.json".into()),
                tol_pct: Some(12.5),
                write_baseline: None,
            }
        );
        assert!(!gated.records_run());
        // One run and no gate/baseline is a user error.
        assert!(parse(&strs(&["compare", "a"])).is_err());
        assert!(parse(&strs(&["report"])).is_err());
        assert!(parse(&strs(&["report", "a", "b"])).is_err());
    }

    #[test]
    fn parses_runs_family() {
        assert_eq!(
            parse(&strs(&["runs", "ls", "--status", "ok", "--last", "5"])).unwrap(),
            Command::RunsLs {
                status: Some("ok".into()),
                command: None,
                dataset: None,
                last: Some(5),
                json: false,
            }
        );
        assert_eq!(
            parse(&strs(&["runs", "ls", "--json", "--command", "train"])).unwrap(),
            Command::RunsLs {
                status: None,
                command: Some("train".into()),
                dataset: None,
                last: None,
                json: true,
            }
        );
        // In `runs trend`, --gate is boolean: the metric stays positional.
        let t = parse(&strs(&[
            "runs",
            "trend",
            "ede_mean_nm,mean_iou",
            "--gate",
            "--tol-pct",
            "7.5",
            "--last",
            "10",
        ]))
        .unwrap();
        assert_eq!(
            t,
            Command::RunsTrend {
                metrics: "ede_mean_nm,mean_iou".into(),
                slice: None,
                last: Some(10),
                gate: true,
                tol_pct: Some(7.5),
                drift_runs: None,
                out: None,
            }
        );
        assert!(!t.records_run());
        assert_eq!(t.name(), "runs");
        // --slice keeps the metric positional.
        match parse(&strs(&["runs", "trend", "ede_mean_nm", "--slice", "family=chain1d"])).unwrap()
        {
            Command::RunsTrend { metrics, slice, .. } => {
                assert_eq!(metrics, "ede_mean_nm");
                assert_eq!(slice.as_deref(), Some("family=chain1d"));
            }
            other => panic!("expected runs trend, got {other:?}"),
        }
        assert_eq!(
            parse(&strs(&["runs", "gc", "--keep", "3"])).unwrap(),
            Command::RunsGc {
                keep: 3,
                baseline: None,
            }
        );
        assert_eq!(parse(&strs(&["reindex"])).unwrap(), Command::Reindex);
        assert!(parse(&strs(&["runs"])).is_err());
        assert!(parse(&strs(&["runs", "trend"])).is_err());
        assert!(parse(&strs(&["runs", "gc"])).is_err());
    }

    #[test]
    fn parses_triage_and_diff_eval() {
        let cmd = parse(&strs(&["triage", "train-1-2"])).unwrap();
        assert_eq!(
            cmd,
            Command::Triage {
                run: "train-1-2".into(),
                worst: 10,
            }
        );
        assert!(!cmd.records_run());
        assert_eq!(cmd.name(), "triage");
        assert_eq!(
            parse(&strs(&["triage", "r", "--worst", "3"])).unwrap(),
            Command::Triage {
                run: "r".into(),
                worst: 3,
            }
        );
        assert!(parse(&strs(&["triage"])).is_err());
        assert!(parse(&strs(&["triage", "a", "b"])).is_err());
        assert!(parse(&strs(&["triage", "r", "--worst", "x"])).is_err());

        // --gate is boolean in diff-eval: both runs stay positional.
        let cmd = parse(&strs(&[
            "runs", "diff-eval", "run-a", "run-b", "--gate", "--tol-pct", "5",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::RunsDiffEval {
                a: "run-a".into(),
                b: "run-b".into(),
                gate: true,
                tol_pct: Some(5.0),
            }
        );
        assert!(!cmd.records_run());
        assert_eq!(cmd.name(), "runs");
        assert!(parse(&strs(&["runs", "diff-eval", "a"])).is_err());
        assert!(parse(&strs(&["runs", "diff-eval", "a", "b", "c"])).is_err());
    }

    #[test]
    fn parses_alerts() {
        assert_eq!(
            parse(&strs(&["alerts"])).unwrap(),
            Command::Alerts {
                rules: None,
                gate: false,
                json: false,
            }
        );
        assert_eq!(
            parse(&strs(&["alerts", "--rules", "alerts.toml", "--gate", "--json"])).unwrap(),
            Command::Alerts {
                rules: Some("alerts.toml".into()),
                gate: true,
                json: true,
            }
        );
    }

    #[test]
    fn parses_watch() {
        let cmd = parse(&strs(&["watch", "train-1-2", "--timeout-s", "30"])).unwrap();
        assert_eq!(
            cmd,
            Command::Watch {
                run: "train-1-2".into(),
                interval_ms: 200,
                timeout_s: Some(30),
                wait_s: 10,
            }
        );
        assert!(!cmd.records_run());
        assert!(parse(&strs(&["watch"])).is_err());
        assert!(parse(&strs(&["watch", "a", "b"])).is_err());
    }

    #[test]
    fn parses_dash() {
        let cmd = parse(&strs(&["dash"])).unwrap();
        assert_eq!(
            cmd,
            Command::Dash {
                addr: "127.0.0.1:9091".into(),
            }
        );
        // The daemon is itself a recorded run, with its address in the
        // manifest config.
        assert!(cmd.records_run());
        assert_eq!(cmd.name(), "dash");
        assert_eq!(
            cmd.config_pairs(),
            vec![("addr".to_string(), "127.0.0.1:9091".to_string())]
        );
        assert_eq!(
            parse(&strs(&["dash", "--addr", "0.0.0.0:0"])).unwrap(),
            Command::Dash {
                addr: "0.0.0.0:0".into(),
            }
        );
    }

    #[test]
    fn global_flags_accept_equals_form() {
        let (rest, t) = split_global_args(&strs(&[
            "runs",
            "ls",
            "--runs-root=elsewhere",
            "--metrics-out=trace.jsonl",
        ]))
        .unwrap();
        assert_eq!(rest, strs(&["runs", "ls"]));
        assert_eq!(t.runs_root, "elsewhere");
        assert_eq!(t.metrics_out.as_deref(), Some("trace.jsonl"));
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(parse(&strs(&["generate"])).is_err());
        assert!(parse(&strs(&["train", "--out", "m"])).is_err());
        assert!(parse(&strs(&["eval", "--data", "d"])).is_err());
        assert!(parse(&strs(&["frobnicate"])).is_err());
    }

    fn parse_err(args: &[&str]) -> String {
        parse(&strs(args)).unwrap_err().to_string()
    }

    #[test]
    fn unknown_command_flags_error_naming_flag_and_command() {
        let err = parse_err(&["train", "--data", "d", "--out", "m", "--epoch", "5"]);
        assert!(err.contains("--epoch") && err.contains("train"), "{err}");
        let err = parse_err(&["runs", "trend", "ede_mean_nm", "--tolpct", "5"]);
        assert!(err.contains("--tolpct"), "{err}");
        assert!(err.contains("runs trend"), "{err}");
        // A flag another command knows is still unknown here.
        assert!(parse(&strs(&["eval", "--data", "d", "--model", "m", "--augment"])).is_err());
        assert!(parse(&strs(&["train", "--data", "d", "--out"])).is_err());
    }

    #[test]
    fn equals_spelling_of_a_command_flag_is_rejected() {
        // Only global flags take `--flag=VALUE`; a command flag spelled
        // that way used to be ignored, silently training 10 epochs.
        let err = parse_err(&["train", "--data", "d", "--out", "m", "--epochs=5"]);
        assert!(err.contains("--epochs=5") && err.contains("train"), "{err}");
        assert!(parse(&strs(&["compare", "a", "--gate=base.json"])).is_err());
    }

    #[test]
    fn bad_numbers_error() {
        assert!(parse(&strs(&["generate", "--clips", "abc", "--out", "x"])).is_err());
        assert!(parse(&strs(&["predict", "--data", "d", "--model", "m", "--index", "x"])).is_err());
    }

    #[test]
    fn global_flags_are_stripped_anywhere() {
        let (rest, t) = split_global_args(&strs(&[
            "--trace", "train", "--data", "d.lgd", "--metrics-out", "run.jsonl", "--no-run",
            "--runs-root", "elsewhere", "--out", "m.lgm",
        ]))
        .unwrap();
        assert_eq!(rest, strs(&["train", "--data", "d.lgd", "--out", "m.lgm"]));
        assert!(t.trace);
        assert!(t.no_run);
        assert_eq!(t.metrics_out.as_deref(), Some("run.jsonl"));
        assert_eq!(t.runs_root, "elsewhere");

        let (rest, t) = split_global_args(&strs(&["eval", "--data", "d", "--model", "m"]))
            .unwrap();
        assert_eq!(rest.len(), 5);
        assert_eq!(t, GlobalOpts::default());
        assert_eq!(t.runs_root, "runs");
    }

    #[test]
    fn trailing_value_flags_without_value_error() {
        assert!(split_global_args(&strs(&["eval", "--metrics-out"])).is_err());
        assert!(split_global_args(&strs(&["eval", "--runs-root"])).is_err());
        assert!(split_global_args(&strs(&["eval", "--threads"])).is_err());
    }

    #[test]
    fn global_threads_flag_parses() {
        let (rest, t) = split_global_args(&strs(&[
            "eval", "--threads", "4", "--data", "d", "--model", "m",
        ]))
        .unwrap();
        assert_eq!(rest, strs(&["eval", "--data", "d", "--model", "m"]));
        assert_eq!(t.threads, Some(4));
        let (_, t) = split_global_args(&strs(&["eval", "--threads=2"])).unwrap();
        assert_eq!(t.threads, Some(2));
        // 0 = auto-detect; accepted, not an error.
        let (_, t) = split_global_args(&strs(&["eval", "--threads", "0"])).unwrap();
        assert_eq!(t.threads, Some(0));
        assert!(split_global_args(&strs(&["eval", "--threads", "x"])).is_err());
    }

    #[test]
    fn help_paths() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&strs(&["help"])).unwrap(), Command::Help);
        assert_eq!(
            parse(&strs(&["help", "train"])).unwrap(),
            Command::HelpFor("train".into())
        );
        assert_eq!(
            parse(&strs(&["compare", "--help"])).unwrap(),
            Command::HelpFor("compare".into())
        );
        assert!(usage().contains("generate"));
        assert!(usage().contains("--runs-root"));
        // Every per-command help mentions the global observability flags.
        for cmd in [
            "generate", "train", "eval", "predict", "report", "triage", "profile", "health",
            "compare", "runs", "reindex", "alerts", "watch", "dash",
        ] {
            let text = command_help(cmd);
            assert!(text.contains("--trace"), "{cmd} help lacks --trace");
            assert!(
                text.contains("--metrics-out"),
                "{cmd} help lacks --metrics-out"
            );
            assert!(text.contains(cmd), "{cmd} help lacks its own name");
        }
        // Unknown command help falls back to usage.
        assert!(command_help("nope").contains("usage:"));
    }
}
