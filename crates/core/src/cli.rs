//! The run lifecycle shared by `lithogan_cli` and the experiment
//! binaries: the global flags, the run ledger, telemetry and crash
//! forensics around one command's body (see [`run`]).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use litho_dataset::Dataset;
use litho_ledger::{fingerprint_file, DatasetInfo, RunLedger};
use litho_tensor::{KernelLevel, Result, TensorError};

/// Help text for the flags [`split_global_args`] accepts.
pub const GLOBAL_FLAGS_HELP: &str = "\
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

/// Global flags, accepted by every command.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalOpts {
    pub trace: bool,
    pub metrics_out: Option<String>,
    pub runs_root: String,
    pub no_run: bool,
    /// Worker-pool width override (`Some(0)` = auto-detect).
    pub threads: Option<usize>,
    /// Kernel-level override (`--simd auto|avx2|scalar`).
    pub simd: Option<KernelLevel>,
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

fn bad(msg: impl Into<String>) -> TensorError {
    TensorError::InvalidArgument(msg.into())
}

/// Strips the global flags out of `args`, in either spelling and in any
/// position, and returns the rest with the flags parsed.
///
/// # Errors
///
/// A value-taking flag without its value, a `--threads` that is not a
/// count, or an unknown `--simd` level.
pub fn split_global_args(args: &[String]) -> Result<(Vec<String>, GlobalOpts)> {
    let mut opts = GlobalOpts::default();
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (arg.as_str(), None),
        };
        let mut value = |what: &str| match inline {
            Some(v) => Ok(v.to_string()),
            None => it
                .next()
                .cloned()
                .ok_or_else(|| bad(format!("{name} requires {what}"))),
        };
        match (name, inline) {
            ("--trace", None) => opts.trace = true,
            ("--no-run", None) => opts.no_run = true,
            ("--metrics-out", _) => opts.metrics_out = Some(value("a file path")?),
            ("--runs-root", _) => opts.runs_root = value("a directory path")?,
            ("--threads", _) => {
                let v = value("a count")?;
                let n = v
                    .parse()
                    .map_err(|_| bad(format!("--threads: not a count: {v:?}")))?;
                opts.threads = Some(n);
            }
            ("--simd", _) => {
                let v = value("a level (auto|avx2|scalar)")?;
                let level = litho_tensor::parse_level(&v).ok_or_else(|| {
                    bad(format!("--simd: unknown level {v:?} (auto|avx2|scalar)"))
                })?;
                opts.simd = Some(level);
            }
            _ => rest.push(arg.clone()),
        }
    }
    Ok((rest, opts))
}

/// What a recorded run writes into its manifest when it opens.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub seed: Option<u64>,
    /// Flat key/value pairs, in manifest order.
    pub config: Vec<(String, String)>,
}

/// Runs `body` as one invocation of `command`:
///
/// 1. applies `--threads` and `--simd`, so the manifest records the
///    effective width and kernel level;
/// 2. with a `record` and without `--no-run`, creates the run ledger
///    under `--runs-root` and arms crash forensics for it;
/// 3. turns telemetry on when there is a ledger, `--trace` or
///    `--metrics-out`;
/// 4. runs `body`, then stamps pool utilization and peak workspace into
///    the ledger and finalizes it as `ok`, `error` or `aborted(..)`
///    (with an incident bundle);
/// 5. flushes telemetry and prints the `--trace` report.
///
/// A body that panics leaves the ledger to its drop, which finalizes it
/// as `error`, so a run never stays `running`.
///
/// # Errors
///
/// The body's error; a run ledger or `--metrics-out` sink that cannot be
/// created; a ledger that cannot be finalized.
pub fn run<F>(opts: &GlobalOpts, command: &str, record: Option<RunRecord>, body: F) -> Result<()>
where
    F: FnOnce(&mut Option<RunLedger>) -> Result<()>,
{
    if let Some(n) = opts.threads {
        litho_tensor::pool::configure_threads(n);
    }
    if let Some(level) = opts.simd {
        litho_tensor::configure_simd(level);
    }
    let mut ledger = match record {
        Some(record) if !opts.no_run => {
            let ledger = RunLedger::create(
                Path::new(&opts.runs_root),
                command,
                record.seed,
                record.config,
                None,
            )
            .map_err(|e| bad(format!("cannot create run ledger: {e}")))?;
            eprintln!("run: {}", ledger.dir().display());
            crate::incident::arm(ledger.dir(), litho_telemetry::DEFAULT_FLIGHT_CAPACITY);
            Some(ledger)
        }
        _ => None,
    };
    let outcome = init_telemetry(opts, command, ledger.as_mut()).and_then(|()| {
        let result = body(&mut ledger);
        match &mut ledger {
            Some(ledger) => finish_ledger(ledger, result),
            None => result,
        }
    });
    litho_telemetry::flush();
    if opts.trace && litho_telemetry::is_enabled() {
        litho_telemetry::print_report();
    }
    outcome
}

/// Stamps the compute-plane profile into `ledger` and finalizes it with
/// the body's outcome.
fn finish_ledger(ledger: &mut RunLedger, result: Result<()>) -> Result<()> {
    // Pool stats accumulate from process start, so the totals are the run's.
    if let Some(util) = litho_tensor::pool::stats().utilization() {
        ledger.set_pool_utilization(util);
    }
    let ws = litho_tensor::peak_workspace_bytes();
    if ws > 0 {
        ledger.set_peak_workspace_bytes(ws);
    }
    match &result {
        // An aborted training run is recorded as such, distinct from both
        // a clean finish and an ordinary error. The post-mortem ships
        // before finalize stamps the manifest, so it snapshots the dying
        // state.
        Err(TensorError::Aborted(reason)) => {
            let status = format!("aborted({reason})");
            match crate::incident::dump(&status, None) {
                Ok(Some(bundle)) => eprintln!("incident: {}", bundle.display()),
                Ok(None) => {}
                Err(e) => eprintln!("warning: incident bundle failed: {e}"),
            }
            ledger.finalize_with_status(&status)?;
        }
        other => ledger.finalize(other.is_ok())?,
    }
    result
}

/// Turns telemetry on. A JSONL sink goes to `--metrics-out` when given,
/// else to the active run's `trace.jsonl`; with a ledger present,
/// telemetry is always enabled so every run carries its trace.
fn init_telemetry(opts: &GlobalOpts, command: &str, ledger: Option<&mut RunLedger>) -> Result<()> {
    if !opts.trace && opts.metrics_out.is_none() && ledger.is_none() {
        return Ok(());
    }
    let sink_path = match (&opts.metrics_out, &ledger) {
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
        // An explicit path lives outside the run dir; record it as given.
        let trace = opts.metrics_out.as_deref().unwrap_or("trace.jsonl");
        ledger.set_trace_path(trace)?;
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

/// Records the identity of the dataset at `path` (content fingerprint
/// and shape) in the run's manifest. A run keeps the first dataset it
/// records: an experiment over both nodes names the first.
///
/// # Errors
///
/// The dataset file cannot be read back or the manifest rewritten.
pub fn record_dataset(ledger: &mut Option<RunLedger>, path: &Path, ds: &Dataset) -> Result<()> {
    let Some(ledger) = ledger.as_mut().filter(|l| l.manifest().dataset.is_none()) else {
        return Ok(());
    };
    let (fingerprint, bytes) = fingerprint_file(path)?;
    ledger.set_dataset(DatasetInfo {
        path: path.to_string_lossy().into_owned(),
        fingerprint,
        bytes,
        samples: ds.len(),
        image_size: ds.config.image_size,
        node: ds.config.process.name.clone(),
        nm_per_px: ds.config.golden_nm_per_px(),
    })?;
    Ok(())
}

/// Set once a write to stdout finds its reader gone.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes `args` to stdout and flushes. A closed stdout (`BrokenPipe`, as
/// when the reader of `lithogan_cli help | head -1` exits) is the end of
/// output, not a failure: this and every later write succeed without
/// writing, and the command runs to its normal end.
///
/// # Errors
///
/// Any other write failure (`i/o error: …` once converted to
/// [`TensorError`]).
pub fn write_stdout(args: std::fmt::Arguments<'_>) -> std::io::Result<()> {
    // Relaxed: the flag publishes no other data.
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return Ok(());
    }
    let mut out = std::io::stdout().lock();
    match out.write_fmt(args).and_then(|()| out.flush()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
            Ok(())
        }
        written => written,
    }
}

/// The `main` of a command-line program: splits the global flags off the
/// process arguments, runs `command` on the rest and returns its exit
/// status, printing its error.
pub fn main_with<F>(command: F) -> ExitCode
where
    F: FnOnce(&[String], &GlobalOpts) -> Result<()>,
{
    let args: Vec<String> = std::env::args().skip(1).collect();
    match split_global_args(&args).and_then(|(rest, opts)| command(&rest, &opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}
