//! Benchmark of the LithoGAN reproduction: paper-shape prediction, the
//! golden data path and small-shape training, plus a traced per-crate
//! breakdown.
//!
//! ```text
//! litho-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `perfbench/run.py` builds this package and runs it; see
//! `perfbench/GLOSSARY.md` for what each workload and metric means. The
//! last line of standard output is the result object; the line before it
//! records the run's provenance.

mod metrics;
mod trace;
mod workloads;

use std::process::ExitCode;

use metrics::{json_number, json_string, result_line, END_TO_END, PER_LAYER};
use workloads::{Plan, Scale};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("litho-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = litho_tensor::pool::effective_threads();
    if threads > nproc {
        eprintln!(
            "litho-perfbench: refusing to run {threads} threads on {nproc} cores (LITHO_THREADS)"
        );
        return ExitCode::from(2);
    }
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::Full,
    };
    let outcome = match workloads::run(&args.workload, &plan) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("litho-perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(first) = outcome.checks.first_failure() {
        eprintln!("litho-perfbench: first failed check: {first}");
    }
    let mut values = outcome.values;
    values.insert("peak_rss_mb", metrics::peak_rss_mb());

    let git_rev = std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".to_string());
    println!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"ops\": {}, \"threads\": {threads}, \"nproc\": {nproc}, \"simd\": {}, \"git_rev\": {}}}}}",
        json_string(&args.workload),
        args.seed,
        json_number(args.seconds),
        args.trace,
        outcome.ops,
        json_string(litho_tensor::active_level().name()),
        json_string(&git_rev),
    );
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", result_line(&outcome.checks, defs, &values));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
