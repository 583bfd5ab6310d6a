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
//! Every command is one row of [`COMMANDS`]: its operands, its flags,
//! whether it records a run, its help paragraph and its handler. The
//! parser, `usage` and each command's help are generated from that
//! table. Every workload command records itself into `runs/<id>/`
//! (manifest, per-sample metric records, telemetry trace) unless
//! `--no-run` is given; `report` and `compare` read those directories
//! back.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use litho_dataset::{generate, load_dataset, save_dataset, Dataset, DatasetConfig};
use litho_health::DiagnosisKind;
use litho_layout::image::{overlay_panel, write_ppm};
use litho_ledger::{
    dashboard_svg, diff_eval, flamegraph_svg, fmt_unix, fold_lines, gate, health_svg, load_index,
    load_run, reindex, render_attribution, render_compare, render_diff_eval, render_health,
    render_report, render_snapshot, render_trend, render_triage, slice_metric_key, trend,
    trend_svg, triage_svg, validate_run_id, Baseline, RunData, RunLedger, TrendConfig, WatchConfig,
    WatchSession,
};
use litho_metrics::MetricAccumulator;
use litho_sim::ProcessConfig;
use litho_tensor::TensorError;
use lithogan::cli::{record_dataset, GlobalOpts, RunRecord, GLOBAL_FLAGS_HELP};
use lithogan::{
    run_dash, AbortCondition, DashConfig, HealthConfig, HealthMonitor, LithoGan, NetConfig, Result,
    TrainConfig,
};

/// What a flag's value is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ty {
    /// A boolean flag: present or absent, no value.
    Switch,
    Text,
    /// A non-negative integer.
    Int,
    Real,
}
use Ty::{Int, Real, Text};

/// `print!` that treats a closed stdout as the end of output and returns
/// any other write failure (see [`lithogan::cli::write_stdout`]).
macro_rules! out {
    ($($arg:tt)*) => {
        lithogan::cli::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => {
        lithogan::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

impl Ty {
    fn accepts(self, value: &str) -> bool {
        match self {
            Int => value.parse::<u64>().is_ok(),
            Real => value.parse::<f64>().is_ok(),
            Text | Ty::Switch => true,
        }
    }
}

/// Whether a value flag must be given, and what it reads as when absent.
#[derive(Clone, Copy, PartialEq)]
enum Need {
    Req,
    Opt,
    /// Optional, reading as this value when absent.
    Def(&'static str),
}
use Need::{Def, Opt, Req};

/// One command flag, spelled `--name VALUE` (or `--name` for a switch).
struct Flag {
    name: &'static str,
    metavar: &'static str,
    ty: Ty,
    need: Need,
    help: &'static str,
    /// The manifest config key, for a flag whose value a recorded run
    /// stores.
    record: Option<&'static str>,
}

const fn flag(
    name: &'static str,
    metavar: &'static str,
    ty: Ty,
    need: Need,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        metavar,
        ty,
        need,
        help,
        record: None,
    }
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    flag(name, "", Ty::Switch, Opt, help)
}

impl Flag {
    /// Records this flag's value in the run manifest under `key`.
    const fn recorded(self, key: &'static str) -> Flag {
        Flag {
            record: Some(key),
            ..self
        }
    }

    /// `--name METAVAR`, or `--name` for a switch.
    fn spelling(&self) -> String {
        match self.ty {
            Ty::Switch => format!("--{}", self.name),
            _ => format!("--{} {}", self.name, self.metavar),
        }
    }
}

type Handler = fn(&Args, &GlobalOpts, &mut Option<RunLedger>) -> Result<()>;

/// One command: a row of [`COMMANDS`].
struct Command {
    /// The command words (`"runs ls"` for a `runs` subcommand).
    name: &'static str,
    /// Operand names in order; an optional one is spelled `[<...>]`.
    operands: &'static [&'static str],
    flags: &'static [Flag],
    /// For a command that records a run: its manifest seed and config.
    record: Option<fn(&Args) -> RunRecord>,
    /// The help paragraph, printed between the synopsis and the flags.
    about: &'static str,
    run: Handler,
}

const RUN_OPERAND: &[&str] = &["<run-id|run-dir>"];

/// Every command the CLI accepts, in `usage` order.
const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        operands: &[],
        flags: &[
            flag("node", "N10|N7", Text, Def("N10"), "process node preset").recorded("node"),
            flag("clips", "N", Int, Def("140"), "number of layout clips").recorded("clips"),
            flag("size", "S", Int, Def("64"), "image resolution in pixels").recorded("size"),
            flag("jitter", "NM", Real, Def("3.0"), "mask corner jitter in nm").recorded("jitter_nm"),
            flag("out", "FILE", Text, Req, "output dataset path").recorded("out"),
        ],
        record: Some(flag_record),
        about: "Synthesizes a mask/aerial/resist dataset with the in-tree lithography\n\
                simulator and writes it to FILE.",
        run: cmd_generate,
    },
    Command {
        name: "train",
        operands: &[],
        flags: &[
            flag("data", "FILE", Text, Req, "dataset from `generate`").recorded("data"),
            flag("epochs", "N", Int, Def("10"), "training epochs").recorded("epochs"),
            flag("seed", "N", Int, Def("0"), "RNG seed").recorded("seed"),
            switch("augment", "enable flip/rotate augmentation").recorded("augment"),
            flag("out", "FILE", Text, Req, "model output path").recorded("out"),
            switch("health", "stream model-health records to the run's health.jsonl"),
            flag("health-stride", "N", Int, Def("8"), "sample every Nth step; implies --health"),
            flag("abort-on", "LIST", Text, Opt, "abort training on nan and/or collapse; implies --health"),
            flag("poison-nan-at-epoch", "N", Int, Opt, "fault injection: plant a NaN weight at epoch N"),
        ],
        record: Some(train_record),
        about: "Trains LithoGAN on the 75% train split, saves the model, then\n\
                evaluates the 25% test split; per-sample metrics land in the run's\n\
                samples.jsonl and the loss curve in its trace.",
        run: cmd_train,
    },
    Command {
        name: "eval",
        operands: &[],
        flags: &[
            flag("data", "FILE", Text, Req, "dataset from `generate`").recorded("data"),
            flag("model", "FILE", Text, Req, "model from `train`").recorded("model"),
        ],
        record: Some(flag_record),
        about: "Evaluates a trained model on the test split: EDE, pixel/class\n\
                accuracy, mean IoU and centre error, with one record per sample\n\
                appended to the run ledger.",
        run: cmd_eval,
    },
    Command {
        name: "predict",
        operands: &[],
        flags: &[
            flag("data", "FILE", Text, Req, "dataset from `generate`").recorded("data"),
            flag("model", "FILE", Text, Req, "model from `train`").recorded("model"),
            flag("index", "I", Int, Def("0"), "sample index").recorded("index"),
            flag("out-dir", "DIR", Text, Def("."), "where to write panels").recorded("out_dir"),
        ],
        record: Some(flag_record),
        about: "Runs inference on one sample, writes mask/prediction panels as PPM\n\
                and records that sample's metrics in the run ledger.",
        run: cmd_predict,
    },
    Command {
        name: "report",
        operands: RUN_OPERAND,
        flags: &[],
        record: None,
        about: "Renders one recorded run: manifest, aggregated per-sample metrics,\n\
                span timing table with exact p50/p95/p99, critical path and\n\
                counters. Also writes runs/<id>/dashboard.svg (loss curves, EDE\n\
                histogram, stage latency). The argument is a directory path or a\n\
                run id resolved under --runs-root.",
        run: cmd_report,
    },
    Command {
        name: "triage",
        operands: RUN_OPERAND,
        flags: &[flag("worst", "K", Int, Def("10"), "panels/rows to show")],
        record: None,
        about: "Ranks a run's per-sample records by EDE — contours that vanished\n\
                outrank every numeric error — and prints the worst K as a table\n\
                (sample index, clip fingerprint, family, mean and per-edge EDE).\n\
                Also writes runs/<id>/triage.svg: a self-contained gallery with\n\
                one schematic panel per clip (mask target, golden contour,\n\
                predicted contour displaced by the recorded per-edge EDE).\n\
                Legacy records without clip identity still rank; their clip and\n\
                family columns show \"-\".",
        run: cmd_triage,
    },
    Command {
        name: "profile",
        operands: RUN_OPERAND,
        flags: &[flag("top", "N", Int, Def("20"), "table rows")],
        record: None,
        about: "Folds a run's trace.jsonl into a self-time profile: writes\n\
                runs/<id>/flamegraph.svg (icicle layout, frames tinted by the\n\
                roofline verdict of their kernel cost model) and\n\
                runs/<id>/flamegraph.folded (Brendan-Gregg folded-stack text),\n\
                and prints a top-N attribution table ranked by self time with\n\
                achieved GFLOP/s, arithmetic intensity and compute- vs\n\
                memory-bound verdict per instrumented kernel. The classification\n\
                threshold is the host machine balance, LITHO_MACHINE_BALANCE\n\
                (FLOPs per byte, default 8).",
        run: cmd_profile,
    },
    Command {
        name: "health",
        operands: RUN_OPERAND,
        flags: &[flag(
            "fail-on",
            "LIST",
            Text,
            Opt,
            "comma-separated diagnoses that exit nonzero when present\n\
             (aliases: nan, collapse)",
        )],
        record: None,
        about: "Analyzes a run's health.jsonl (from `train --health`): per-layer\n\
                activation/gradient tables, update-to-weight ratios, GAN balance\n\
                signals and the six named diagnoses (vanishing-gradient,\n\
                exploding-update, dead-layer, d-overpowers-g, mode-collapse,\n\
                nan-poisoned) with first-seen epoch/step. Also writes\n\
                runs/<id>/health.svg (sparkline panel).",
        run: cmd_health,
    },
    Command {
        name: "compare",
        operands: &["<run-a>", "[<run-b>]"],
        flags: &[
            flag("gate", "FILE", Text, Opt, "baseline to gate against"),
            flag("tol-pct", "N", Real, Opt, "tolerance override in percent"),
            flag(
                "write-baseline",
                "FILE",
                Text,
                Opt,
                "regenerate a baseline from <run-a>'s metrics (records\n\
                 <run-a>'s id, which `runs gc` then protects)",
            ),
        ],
        record: None,
        about: "With two runs: aligned metric/latency delta table.\n\
                With --gate: checks <run-a> against a baseline JSON\n\
                ({\"tol_pct\": N, \"metrics\": {...}}) and exits nonzero when any\n\
                metric regressed beyond tolerance — the CI regression gate.",
        run: cmd_compare,
    },
    Command {
        name: "runs ls",
        operands: &[],
        flags: &[
            flag(
                "status",
                "S",
                Text,
                Opt,
                "keep runs with this status (ok, error, running; aborted\n\
                 matches any aborted(...))",
            ),
            flag("command", "C", Text, Opt, "keep runs of this command (train, eval, ...)"),
            flag("dataset", "FP", Text, Opt, "keep runs whose dataset fingerprint starts with FP"),
            flag("last", "N", Int, Opt, "keep only the N most recent"),
            switch(
                "json",
                "one index record per line as JSON, byte-identical to the\n\
                 index lines and the dash /api/runs entries",
            ),
        ],
        record: None,
        about: "One line per run from the append-only runs index\n\
                (<runs-root>/index.jsonl, maintained by every finalizing run;\n\
                repair it with `reindex`): id, start, status, dataset\n\
                fingerprint, headline EDE and health verdict.",
        run: cmd_runs_ls,
    },
    Command {
        name: "runs trend",
        operands: &["<metric[,metric...]>"],
        flags: &[
            flag(
                "slice",
                "family=F",
                Text,
                Opt,
                "trend the per-family slice of each metric (e.g. ede_mean_nm\n\
                 restricted to chain1d clips); runs without that slice\n\
                 abstain rather than read as zero",
            ),
            flag("last", "N", Int, Opt, "trend only the N most recent runs"),
            switch("gate", "exit nonzero when a drift is confirmed (CI)"),
            flag("tol-pct", "P", Real, Def("10"), "off-median tolerance in percent"),
            flag("drift-runs", "N", Int, Def("2"), "consecutive off runs that confirm a drift"),
            flag("out", "FILE", Text, Opt, "trend.svg path (default <runs-root>/trend.svg)"),
        ],
        record: None,
        about: "Aligned per-run table of each metric plus a self-contained\n\
                trend.svg. Drift detection is streak-based: a run is off when\n\
                beyond --tol-pct of the fleet median, and --drift-runs\n\
                consecutive off runs confirm a drift.",
        run: cmd_runs_trend,
    },
    Command {
        name: "runs diff-eval",
        operands: &["<run-a>", "<run-b>"],
        flags: &[
            flag("tol-pct", "P", Real, Def("10"), "allowed per-clip EDE growth in percent"),
            switch("gate", "exit nonzero when any clip regressed (CI)"),
        ],
        record: None,
        about: "Joins two runs' samples.jsonl by clip fingerprint and buckets\n\
                every shared clip: regressed / improved / unchanged vs --tol-pct,\n\
                plus clips only one run evaluated (new / missing). Records\n\
                without fingerprints (legacy ledgers) are counted but can't join.",
        run: cmd_runs_diff_eval,
    },
    Command {
        name: "runs gc",
        operands: &[],
        flags: &[
            flag("keep", "N", Int, Req, "run directories to keep, newest first"),
            flag(
                "baseline",
                "FILE",
                Text,
                Opt,
                "baseline whose run is protected (default ci/baseline.json\n\
                 when present)",
            ),
        ],
        record: None,
        about: "Removes all but the newest --keep N run directories, never\n\
                touching running runs or the run recorded in the baseline, then\n\
                rebuilds the index.",
        run: cmd_runs_gc,
    },
    Command {
        name: "reindex",
        operands: &[],
        flags: &[],
        record: None,
        about: "Rebuilds <runs-root>/index.jsonl from the surviving run\n\
                directories (manifest + samples.jsonl aggregate + health.jsonl\n\
                verdict) and swaps it in atomically. Use after crashes, manual\n\
                deletion or to adopt pre-index run directories.",
        run: cmd_reindex,
    },
    Command {
        name: "alerts",
        operands: &[],
        flags: &[
            flag("rules", "FILE", Text, Opt, "alert rule config (TOML subset)"),
            switch("gate", "exit nonzero while any alert is firing (CI)"),
            switch("json", "also print active alerts as JSONL records"),
        ],
        record: None,
        about: "Evaluates the fleet's alert rules against the runs index, the\n\
                health verdicts, the trend drift detector and live run activity,\n\
                then prints the active alerts and appends state transitions\n\
                (pending -> firing -> resolved, deduplicated by fingerprint) to\n\
                <runs-root>/alerts.jsonl. Rules come from --rules FILE, else\n\
                <runs-root>/alerts.toml, else a built-in set (page on unhealthy\n\
                runs, warn on ede_mean_nm drift — aggregate and per-family —\n\
                and stalled runs). DESIGN.md §4g documents the rule schema\n\
                (threshold / drift / slice_drift / health / stale).\n\n\
                Crashed or aborted runs additionally ship a post-mortem in\n\
                runs/<id>/incident/: the telemetry flight-recorder ring, panic\n\
                message + backtrace, manifest snapshot, process counters and the\n\
                last per-layer tensor stats.",
        run: cmd_alerts,
    },
    Command {
        name: "watch",
        operands: RUN_OPERAND,
        flags: &[
            flag("interval-ms", "N", Int, Def("200"), "poll interval"),
            flag("timeout-s", "N", Int, Opt, "give up after N seconds (default: wait forever)"),
            flag("wait-s", "N", Int, Def("10"), "how long to wait for the run's manifest to appear"),
        ],
        record: None,
        about: "Live-follows an in-flight run: incrementally tails its\n\
                trace.jsonl and health.jsonl (tolerating torn lines from the\n\
                concurrent writer), rendering epoch progress, loss deltas, an\n\
                ETA from the epoch cadence and live health verdicts. Alert\n\
                transitions appended to <runs-root>/alerts.jsonl while watching\n\
                are echoed live. Exits 0 when the run finishes ok, nonzero when\n\
                it errors or aborts — so `watch` can stand in for the run's own\n\
                exit code. A run directory removed mid-watch (e.g. by\n\
                `runs gc`) is a hard error, not an endless wait.",
        run: cmd_watch,
    },
    Command {
        name: "dash",
        operands: &[],
        flags: &[flag(
            "addr",
            "HOST:PORT",
            Text,
            Def("127.0.0.1:9091"),
            "address to bind; port 0 picks an ephemeral port,\nannounced on stdout",
        )
        .recorded("addr")],
        record: Some(flag_record),
        about: "Serves the runs fleet over HTTP until POST /shutdown, Ctrl-C or\n\
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
                POST /shutdown              clean stop\n\n\
                The daemon records itself in the runs ledger: request counters and\n\
                latency quantiles land in its trace.jsonl and its manifest is\n\
                finalized on shutdown, so `runs trend` works on dash runs too.\n\
                Addresses in --runs-root; disable the self-run with --no-run.",
        run: cmd_dash,
    },
    Command {
        name: "help",
        operands: &["[command]", "[subcommand]"],
        flags: &[],
        record: None,
        about: "Prints the usage summary, or one command's help.",
        run: cmd_help,
    },
];

impl Command {
    fn named(name: &str) -> Option<&'static Command> {
        COMMANDS.iter().find(|c| c.name == name)
    }

    fn flag(&self, name: &str) -> &'static Flag {
        self.flags
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("{}: --{name} is not in the command table", self.name))
    }

    fn synopsis(&self) -> String {
        let mut s = format!("lithogan-cli {}", self.name);
        for op in self.operands {
            let _ = write!(s, " {op}");
        }
        for f in self.flags {
            let _ = match f.need {
                Req => write!(s, " {}", f.spelling()),
                Opt | Def(_) => write!(s, " [{}]", f.spelling()),
            };
        }
        s
    }

    /// Synopsis, help paragraph and one aligned line per flag.
    fn help(&self) -> String {
        let mut s = format!("{}\n\n{}", self.synopsis(), self.about);
        if !self.flags.is_empty() {
            s.push('\n');
        }
        let width = self
            .flags
            .iter()
            .map(|f| f.spelling().len())
            .max()
            .unwrap_or(0);
        let indent = " ".repeat(width + 4);
        for f in self.flags {
            let note = match f.need {
                Req => " (required)".to_string(),
                Def(d) => format!(" (default {d})"),
                Opt => String::new(),
            };
            let text = format!("{}{note}", f.help).replace('\n', &format!("\n{indent}"));
            let _ = write!(s, "\n  {:<width$}  {text}", f.spelling());
        }
        s
    }
}

fn usage() -> String {
    let mut s = String::from("usage:\n");
    for c in COMMANDS {
        let _ = writeln!(s, "  {}", c.synopsis());
    }
    s + GLOBAL_FLAGS_HELP
}

/// Help for one command, or for every subcommand of a group (`runs`).
fn help_text(topic: &str) -> Result<String> {
    let blocks: Vec<String> = COMMANDS
        .iter()
        .filter(|c| {
            c.name == topic
                || c.name
                    .strip_prefix(topic)
                    .is_some_and(|r| r.starts_with(' '))
        })
        .map(Command::help)
        .collect();
    if blocks.is_empty() {
        return Err(bad(format!(
            "unknown command {topic:?} (see `lithogan-cli help`)"
        )));
    }
    Ok(format!("{}\n\n{GLOBAL_FLAGS_HELP}", blocks.join("\n\n")))
}

/// A parsed invocation: the command's row, the flags given and the
/// operands.
struct Args {
    command: &'static Command,
    /// Each given flag with its value (empty for a switch).
    given: Vec<(&'static str, String)>,
    operands: Vec<String>,
}

impl Args {
    /// The `help` invocation for `topic` (empty: the usage summary).
    fn help(topic: &str) -> Args {
        Args {
            command: Command::named("help").expect("help is in the table"),
            given: Vec::new(),
            operands: topic.split_whitespace().map(String::from).collect(),
        }
    }

    /// Whether the flag was given.
    fn on(&self, name: &str) -> bool {
        self.command.flag(name);
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The flag's value as given, else its default.
    fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        let flag = self.command.flag(name);
        let text = match (self.given.iter().find(|(n, _)| *n == name), flag.need) {
            (Some((_, v)), _) => v.as_str(),
            (None, Def(d)) => d,
            (None, _) => return None,
        };
        // `parse` checked the value against the flag's type.
        Some(
            text.parse()
                .unwrap_or_else(|_| panic!("--{name} {text:?} is not a {:?}", flag.ty)),
        )
    }

    /// The value of a required or defaulted flag.
    fn get<T: FromStr>(&self, name: &str) -> T {
        self.opt(name)
            .unwrap_or_else(|| panic!("{}: --{name} has no default", self.command.name))
    }
}

fn bad(msg: impl Into<String>) -> TensorError {
    TensorError::InvalidArgument(msg.into())
}

/// Parses an argument vector (without the program name or global flags)
/// in one pass: each value binds to the flag before it.
///
/// # Errors
///
/// An unknown command; a flag the command does not know — including
/// the `--flag=VALUE` spelling, which only the global flags accept — a
/// repeated flag, a missing or mistyped value, a missing required flag
/// or the wrong number of operands. Each names the flag and the command.
fn parse(args: &[String]) -> Result<Args> {
    let Some(first) = args.first().filter(|a| *a != "--help") else {
        return Ok(Args::help(""));
    };
    let (command, rest) = match Command::named(first) {
        Some(c) => (c, &args[1..]),
        None => {
            let group = format!("{first} ");
            let subs: Vec<&str> = COMMANDS
                .iter()
                .filter_map(|c| c.name.strip_prefix(&group))
                .collect();
            if subs.is_empty() {
                return Err(bad(format!("unknown command {first:?}\n{}", usage())));
            }
            match args.get(1).map(String::as_str) {
                Some("--help") => return Ok(Args::help(first)),
                Some(sub) if subs.contains(&sub) => (
                    Command::named(&format!("{group}{sub}")).expect("listed"),
                    &args[2..],
                ),
                _ => {
                    return Err(bad(format!(
                        "{first} takes a subcommand: {}",
                        subs.join(", ")
                    )))
                }
            }
        }
    };
    let name = command.name;
    let mut parsed = Args {
        command,
        given: Vec::new(),
        operands: Vec::new(),
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg == "--help" {
            return Ok(Args::help(name));
        }
        let Some(flag_name) = arg.strip_prefix("--") else {
            parsed.operands.push(arg.clone());
            continue;
        };
        let flag = command
            .flags
            .iter()
            .find(|f| f.name == flag_name)
            .ok_or_else(|| {
                bad(format!(
                    "{name}: unknown flag {arg:?} (see `{name} --help`)"
                ))
            })?;
        let value = match flag.ty {
            Ty::Switch => String::new(),
            ty => {
                let v = it
                    .next()
                    .ok_or_else(|| bad(format!("{name}: {arg} needs a value")))?;
                if !ty.accepts(v) {
                    return Err(bad(format!(
                        "{name}: {arg} takes {}, got {v:?}",
                        flag.metavar
                    )));
                }
                v.clone()
            }
        };
        if parsed.given.iter().any(|(n, _)| *n == flag.name) {
            return Err(bad(format!("{name}: {arg} given more than once")));
        }
        parsed.given.push((flag.name, value));
    }
    for f in command.flags {
        if f.need == Req && !parsed.on(f.name) {
            return Err(bad(format!("{name} requires --{}", f.name)));
        }
    }
    let required = command
        .operands
        .iter()
        .filter(|o| !o.starts_with('['))
        .count();
    if !(required..=command.operands.len()).contains(&parsed.operands.len()) {
        let expected = match command.operands {
            [] => "no operands".to_string(),
            ops => ops.join(" "),
        };
        return Err(bad(format!(
            "{name} takes {expected}, got {:?}",
            parsed.operands
        )));
    }
    Ok(parsed)
}

/// Manifest seed and config of a recorded run: each flag the table
/// marks `recorded`, in table order, typed values in canonical form.
fn flag_record(a: &Args) -> RunRecord {
    let config = a
        .command
        .flags
        .iter()
        .filter_map(|f| {
            let value = match f.ty {
                Ty::Switch => Some(a.on(f.name).to_string()),
                Text => a.opt::<String>(f.name),
                Int => a.opt::<u64>(f.name).map(|v| v.to_string()),
                Real => a.opt::<f64>(f.name).map(|v| v.to_string()),
            };
            Some((f.record?.to_string(), value?))
        })
        .collect();
    RunRecord { seed: None, config }
}

/// Any health-adjacent train flag implies the health stream.
fn train_health(a: &Args) -> bool {
    ["health", "health-stride", "abort-on", "poison-nan-at-epoch"]
        .iter()
        .any(|f| a.on(f))
}

fn train_record(a: &Args) -> RunRecord {
    let mut record = flag_record(a);
    record.seed = Some(a.get("seed"));
    let pairs = &mut record.config;
    if train_health(a) {
        pairs.push(("health".into(), "true".into()));
        pairs.push((
            "health_stride".into(),
            a.get::<u64>("health-stride").to_string(),
        ));
    }
    if let Some(conds) = a.opt::<String>("abort-on") {
        pairs.push(("abort_on".into(), conds));
    }
    if let Some(epoch) = a.opt::<usize>("poison-nan-at-epoch") {
        pairs.push(("poison_nan_at_epoch".into(), epoch.to_string()));
    }
    record
}

/// Loads the dataset behind `--data` and records it in the run's manifest.
fn load_data(a: &Args, ledger: &mut Option<RunLedger>) -> Result<Dataset> {
    let data: String = a.get("data");
    let ds = load_dataset(&data)?;
    record_dataset(ledger, Path::new(&data), &ds)?;
    Ok(ds)
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
        validate_run_id(arg).map_err(|e| bad(e.to_string()))?;
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
            ledger.append_record(&record)?;
        }
    }
    litho_telemetry::set_sample_id(None);
    Ok(acc)
}

fn cmd_help(a: &Args, _: &GlobalOpts, _: &mut Option<RunLedger>) -> Result<()> {
    let text = match a.operands.join(" ") {
        topic if topic.is_empty() => usage(),
        topic => help_text(&topic)?,
    };
    outln!("{text}")?;
    Ok(())
}

fn cmd_generate(a: &Args, _: &GlobalOpts, ledger: &mut Option<RunLedger>) -> Result<()> {
    let node: String = a.get("node");
    let out: String = a.get("out");
    let process = match node.to_uppercase().as_str() {
        "N10" => ProcessConfig::n10(),
        "N7" => ProcessConfig::n7(),
        other => return Err(bad(format!("unknown node {other:?} (N10 or N7)"))),
    };
    let mut config = DatasetConfig::scaled(process, a.get("clips"), a.get("size"));
    config.mask_jitter_nm = a.get("jitter");
    let t0 = std::time::Instant::now();
    let (ds, stats) = generate(&config)?;
    save_dataset(&ds, &out)?;
    record_dataset(ledger, Path::new(&out), &ds)?;
    outln!(
        "generated {} samples in {:.1?} ({} retries, {} OPC non-converged) -> {out}",
        ds.len(),
        t0.elapsed(),
        stats.empty_golden_retries,
        stats.opc_unconverged
    )?;
    Ok(())
}

fn cmd_train(a: &Args, _: &GlobalOpts, ledger: &mut Option<RunLedger>) -> Result<()> {
    let ds = load_data(a, ledger)?;
    let out: String = a.get("out");
    let (epochs, seed) = (a.get("epochs"), a.get("seed"));
    let (train, test) = ds.split();
    let cfg = TrainConfig {
        epochs,
        seed,
        augment: a.on("augment"),
        ..TrainConfig::paper()
    };
    let mut model = LithoGan::new(&NetConfig::for_size(ds.config.image_size), seed);
    let monitor = if train_health(a) {
        let conds = match a.opt::<String>("abort-on") {
            Some(list) => AbortCondition::parse_list(&list)
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
                stride: a.get::<u64>("health-stride").max(1),
                abort_on: conds,
                poison_nan_at_epoch: a.opt("poison-nan-at-epoch"),
                ..HealthConfig::default()
            },
        )?;
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
    outln!(
        "trained on {} samples; generator loss {:.2} -> {:.2}; saved {out}",
        train.len(),
        history.g_loss.first().copied().unwrap_or(0.0),
        history.g_loss.last().copied().unwrap_or(0.0)
    )?;
    // Post-training evaluation on the held-out split feeds the run
    // ledger, so `report`/`compare --gate` see quality, not just loss.
    if !test.is_empty() {
        let acc = eval_into_ledger(&mut model, &test, ds.config.golden_nm_per_px(), ledger)?;
        let s = acc.summary();
        outln!(
            "test split  {} samples: EDE {:.2} nm, pixel acc {:.4}, mIoU {:.4}",
            s.samples, s.ede_mean_nm, s.pixel_accuracy, s.mean_iou
        )?;
    }
    Ok(())
}

fn cmd_eval(a: &Args, _: &GlobalOpts, ledger: &mut Option<RunLedger>) -> Result<()> {
    let ds = load_data(a, ledger)?;
    let (_, test) = ds.split();
    let model: String = a.get("model");
    let mut m = LithoGan::load_from_path(&NetConfig::for_size(ds.config.image_size), &model)?;
    let acc = eval_into_ledger(&mut m, &test, ds.config.golden_nm_per_px(), ledger)?;
    let s = acc.summary();
    outln!(
        "test samples {}\nEDE        {:.2} ± {:.2} nm\npixel acc  {:.4}\nclass acc  {:.4}\nmean IoU   {:.4}\ncentre err {:.2} nm",
        s.samples, s.ede_mean_nm, s.ede_std_nm, s.pixel_accuracy, s.class_accuracy, s.mean_iou, s.center_error_nm
    )?;
    for sl in &s.slices {
        let ede = sl
            .ede_mean_nm
            .map_or("-".to_string(), |v| format!("{v:.2} nm"));
        outln!(
            "  {:<9} {:>4} samples, EDE {ede}, mIoU {:.4}",
            sl.family, sl.samples, sl.mean_iou
        )?;
    }
    Ok(())
}

fn cmd_predict(a: &Args, _: &GlobalOpts, ledger: &mut Option<RunLedger>) -> Result<()> {
    let ds = load_data(a, ledger)?;
    let (index, out_dir): (usize, String) = (a.get("index"), a.get("out-dir"));
    let model: String = a.get("model");
    let sample = ds
        .samples
        .get(index)
        .ok_or_else(|| bad(format!("index {index} out of range ({})", ds.len())))?;
    let mut m = LithoGan::load_from_path(&NetConfig::for_size(ds.config.image_size), &model)?;
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
        ledger.append_record(&record)?;
    }
    std::fs::create_dir_all(&out_dir)?;
    let dir = Path::new(&out_dir);
    write_ppm(&sample.mask, dir.join(format!("sample{index}_mask.ppm")))?;
    let binary = p.adjusted.map(|v| if v >= 0.5 { 1.0 } else { 0.0 });
    let panel = overlay_panel(&binary, &sample.golden)?;
    write_ppm(&panel, dir.join(format!("sample{index}_prediction.ppm")))?;
    outln!(
        "sample {index}: predicted centre ({:.1}, {:.1}) px, inference {:.2} ms; panels in {out_dir}",
        p.center_px.0,
        p.center_px.1,
        p.elapsed.as_secs_f64() * 1e3
    )?;
    Ok(())
}

fn cmd_report(a: &Args, opts: &GlobalOpts, _: &mut Option<RunLedger>) -> Result<()> {
    let data = resolve_run(&a.operands[0], &opts.runs_root)?;
    out!("{}", render_report(&data))?;
    let svg_path = data.dir.join("dashboard.svg");
    std::fs::write(&svg_path, dashboard_svg(&data))?;
    outln!("dashboard:  {}", svg_path.display())?;
    Ok(())
}

fn cmd_triage(a: &Args, opts: &GlobalOpts, _: &mut Option<RunLedger>) -> Result<()> {
    let data = resolve_run(&a.operands[0], &opts.runs_root)?;
    let worst = a.get("worst");
    out!(
        "{}",
        render_triage(&data.manifest.run_id, &data.records, worst)
    )?;
    let nm_per_px = data.manifest.dataset.as_ref().map_or(1.0, |d| d.nm_per_px);
    let svg_path = data.dir.join("triage.svg");
    let svg = triage_svg(&data.manifest.run_id, &data.records, worst, nm_per_px);
    std::fs::write(&svg_path, svg)?;
    outln!("gallery:    {}", svg_path.display())?;
    Ok(())
}

fn cmd_profile(a: &Args, opts: &GlobalOpts, _: &mut Option<RunLedger>) -> Result<()> {
    let run = &a.operands[0];
    let data = resolve_run(run, &opts.runs_root)?;
    let Some(trace) = &data.trace else {
        return Err(bad(format!(
            "run {run:?} has no telemetry trace — rerun without --no-run"
        )));
    };
    out!("{}", render_attribution(trace, a.get("top")))?;
    let svg_path = data.dir.join("flamegraph.svg");
    std::fs::write(&svg_path, flamegraph_svg(trace))?;
    let folded_path = data.dir.join("flamegraph.folded");
    std::fs::write(&folded_path, fold_lines(trace))?;
    outln!("flamegraph: {}", svg_path.display())?;
    outln!("folded:     {}", folded_path.display())?;
    Ok(())
}

fn cmd_health(a: &Args, opts: &GlobalOpts, _: &mut Option<RunLedger>) -> Result<()> {
    let run = &a.operands[0];
    let data = resolve_run(run, &opts.runs_root)?;
    let Some(h) = &data.health else {
        return Err(bad(format!(
            "run {run:?} has no health.jsonl — train with --health"
        )));
    };
    out!("{}", render_health(&data.manifest.run_id, h))?;
    let svg_path = data.dir.join("health.svg");
    std::fs::write(&svg_path, health_svg(&data.manifest.run_id, h))?;
    outln!("panel:      {}", svg_path.display())?;
    if let Some(list) = a.opt::<String>("fail-on") {
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

fn cmd_compare(a: &Args, opts: &GlobalOpts, _: &mut Option<RunLedger>) -> Result<()> {
    let (gate_path, write_baseline) = (a.opt::<String>("gate"), a.opt::<String>("write-baseline"));
    let tol_pct = a.opt("tol-pct");
    if a.operands.len() < 2 && gate_path.is_none() && write_baseline.is_none() {
        return Err(bad(
            "compare needs a second run, --gate or --write-baseline",
        ));
    }
    let run_a = resolve_run(&a.operands[0], &opts.runs_root)?;
    if let Some(b) = a.operands.get(1) {
        let run_b = resolve_run(b, &opts.runs_root)?;
        out!("{}", render_compare(&run_a, &run_b))?;
    }
    if let Some(path) = write_baseline {
        let keys = [
            "ede_mean_nm",
            "pixel_accuracy",
            "class_accuracy",
            "mean_iou",
        ];
        let baseline = Baseline::from_run(&run_a, tol_pct.unwrap_or(25.0), &keys);
        std::fs::write(&path, baseline.to_json_string())?;
        outln!("baseline written to {path}")?;
    }
    if let Some(path) = gate_path {
        let baseline =
            Baseline::load(Path::new(&path)).map_err(|e| bad(format!("--gate {path}: {e}")))?;
        let outcome = gate(&run_a, &baseline, tol_pct);
        out!("{}", outcome.render())?;
        if !outcome.passed() {
            let failed: Vec<String> = outcome.failures().map(|c| c.metric.clone()).collect();
            return Err(bad(format!(
                "regression gate failed: {}",
                failed.join(", ")
            )));
        }
    }
    Ok(())
}

fn cmd_runs_ls(a: &Args, opts: &GlobalOpts, _: &mut Option<RunLedger>) -> Result<()> {
    let root = Path::new(&opts.runs_root);
    let parse = load_index(root)?;
    if parse.skipped_lines > 0 {
        eprintln!(
            "warning: index has {} corrupt line(s) — run `lithogan-cli reindex`",
            parse.skipped_lines
        );
    }
    let mut records = parse.records;
    if let Some(s) = a.opt::<String>("status") {
        records.retain(|r| r.status == s || (s == "aborted" && r.status.starts_with("aborted")));
    }
    if let Some(c) = a.opt::<String>("command") {
        records.retain(|r| r.command == c);
    }
    if let Some(fp) = a.opt::<String>("dataset") {
        records.retain(|r| {
            r.dataset_fingerprint
                .as_deref()
                .is_some_and(|f| f.starts_with(fp.as_str()))
        });
    }
    if let Some(n) = a.opt::<usize>("last") {
        let cut = records.len().saturating_sub(n);
        records.drain(..cut);
    }
    if a.on("json") {
        // Same serializer as the index lines and /api/runs, so
        // downstream tooling sees one schema.
        for r in &records {
            outln!("{}", r.to_jsonl())?;
        }
        return Ok(());
    }
    if records.is_empty() {
        outln!("no runs match under {}", root.display())?;
        return Ok(());
    }
    let w = records
        .iter()
        .map(|r| r.run_id.len())
        .max()
        .unwrap_or(3)
        .max(3);
    outln!(
        "{:<w$}  {:<16}  {:<8}  {:<10}  {:>7}  {:<12}  {:>8}  health",
        "run", "started (UTC)", "command", "status", "wall", "dataset", "ede nm"
    )?;
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
        outln!(
            "{:<w$}  {:<16}  {:<8}  {:<10}  {:>7}  {:<12}  {:>8}  {}",
            r.run_id,
            fmt_unix(r.started_unix_s),
            r.command,
            r.status,
            wall,
            fp,
            ede,
            r.health.as_deref().unwrap_or("-"),
        )?;
    }
    outln!("{} run(s)", records.len())?;
    Ok(())
}

fn cmd_runs_trend(a: &Args, opts: &GlobalOpts, _: &mut Option<RunLedger>) -> Result<()> {
    let root = Path::new(&opts.runs_root);
    let records = load_index(root)?.records;
    if records.is_empty() {
        return Err(bad(format!(
            "no runs indexed under {} (need runs, or `lithogan-cli reindex`)",
            root.display()
        )));
    }
    let cfg = TrendConfig {
        tol_pct: a.get("tol-pct"),
        drift_runs: a.get::<usize>("drift-runs").max(1),
    };
    // `--slice family=F` redirects every metric to its per-family
    // slice key; runs without that slice simply have no value for
    // the key, so they abstain from the trend and its drift gate.
    let family = match a.opt::<String>("slice") {
        Some(spec) => match spec.strip_prefix("family=") {
            Some(f) if !f.is_empty() => Some(f.to_string()),
            _ => return Err(bad("--slice takes family=<name>")),
        },
        None => None,
    };
    let last = a.opt("last");
    let mut trends = Vec::new();
    for metric in a.operands[0]
        .split(',')
        .map(str::trim)
        .filter(|m| !m.is_empty())
    {
        let key = match &family {
            Some(f) => slice_metric_key(metric, f),
            None => metric.to_string(),
        };
        let t = trend(&records, &key, last, &cfg);
        out!("{}", render_trend(&t))?;
        trends.push(t);
    }
    if trends.is_empty() {
        return Err(bad("runs trend: empty metric list"));
    }
    let svg_path = a
        .opt::<String>("out")
        .map_or_else(|| root.join("trend.svg"), PathBuf::from);
    std::fs::write(&svg_path, trend_svg(&trends))?;
    outln!("trend:      {}", svg_path.display())?;
    if a.on("gate") {
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
        outln!("trend gate: PASS")?;
    }
    Ok(())
}

fn cmd_runs_diff_eval(a: &Args, opts: &GlobalOpts, _: &mut Option<RunLedger>) -> Result<()> {
    let run_a = resolve_run(&a.operands[0], &opts.runs_root)?;
    let run_b = resolve_run(&a.operands[1], &opts.runs_root)?;
    let d = diff_eval(
        &run_a.manifest.run_id,
        &run_a.records,
        &run_b.manifest.run_id,
        &run_b.records,
        a.get("tol-pct"),
    );
    out!("{}", render_diff_eval(&d))?;
    if a.on("gate") && !d.gate_passed() {
        return Err(bad(format!(
            "diff-eval gate failed: {} clip(s) regressed",
            d.regressed.len()
        )));
    }
    Ok(())
}

fn cmd_runs_gc(a: &Args, opts: &GlobalOpts, _: &mut Option<RunLedger>) -> Result<()> {
    let root = Path::new(&opts.runs_root);
    // The baseline run must survive gc: a vanished baseline would
    // silently disarm `compare --gate` in CI.
    let baseline_path = match a.opt::<String>("baseline") {
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
    let outcome = litho_ledger::index::gc(root, a.get("keep"), &protected)?;
    outln!(
        "gc: kept {}, removed {}, protected {}",
        outcome.kept.len(),
        outcome.removed.len(),
        outcome.protected.len()
    )?;
    for id in &outcome.removed {
        outln!("removed   {id}")?;
    }
    for id in &outcome.protected {
        outln!("protected {id}")?;
    }
    Ok(())
}

fn cmd_reindex(_: &Args, opts: &GlobalOpts, _: &mut Option<RunLedger>) -> Result<()> {
    let root = Path::new(&opts.runs_root);
    let outcome = reindex(root)?;
    outln!(
        "reindexed {} run(s) -> {}",
        outcome.records.len(),
        litho_ledger::index::index_path(root).display()
    )?;
    for dir in &outcome.unreadable {
        eprintln!("warning: skipped unreadable run dir {dir}");
    }
    Ok(())
}

fn cmd_alerts(a: &Args, opts: &GlobalOpts, _: &mut Option<RunLedger>) -> Result<()> {
    let root = Path::new(&opts.runs_root);
    let rules_path = a.opt::<String>("rules");
    let rules = litho_alert::load_rules(root, rules_path.as_deref().map(Path::new))?;
    let records = load_index(root)?.records;
    let prior = litho_alert::load_alerts(root)?;
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
    litho_alert::append_alerts(root, &outcome.transitions)?;
    for t in &outcome.transitions {
        eprintln!("{}", litho_alert::render_transition(t));
    }
    out!("{}", litho_alert::render_alerts_table(&outcome.active))?;
    if a.on("json") {
        for alert in &outcome.active {
            outln!("{}", alert.to_json())?;
        }
    }
    let firing = outcome.firing().len();
    if a.on("gate") {
        if firing > 0 {
            return Err(bad(format!("alerts gate: {firing} alert(s) firing")));
        }
        outln!("alerts gate: PASS")?;
    }
    Ok(())
}

fn cmd_watch(a: &Args, opts: &GlobalOpts, _: &mut Option<RunLedger>) -> Result<()> {
    let run = &a.operands[0];
    let direct = Path::new(run);
    let dir = if direct.join("manifest.json").exists() || direct.is_dir() {
        direct.to_path_buf()
    } else {
        validate_run_id(run).map_err(|e| bad(e.to_string()))?;
        Path::new(&opts.runs_root).join(run)
    };
    let cfg = WatchConfig {
        interval: Duration::from_millis(a.get::<u64>("interval-ms").max(10)),
        timeout: a.opt("timeout-s").map(Duration::from_secs),
        wait_create: Duration::from_secs(a.get("wait-s")),
    };
    eprintln!("watching {}", dir.display());
    let mut session = WatchSession::new(&dir);
    // Alert transitions appended while watching are echoed live;
    // the initial drain swallows history so only new ones print.
    let mut alerts_tail = litho_ledger::json::jsonl::JsonlTailer::new(litho_alert::alerts_path(
        Path::new(&opts.runs_root),
    ));
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
    outln!("{}", render_snapshot(&snap))?;
    if snap.succeeded() {
        Ok(())
    } else {
        Err(bad(format!("run finished with status {:?}", snap.status)))
    }
}

fn cmd_dash(a: &Args, opts: &GlobalOpts, ledger: &mut Option<RunLedger>) -> Result<()> {
    let cfg = DashConfig {
        addr: a.get("addr"),
        runs_root: PathBuf::from(&opts.runs_root),
        // Exclude the dash's own (running) ledger from live tails.
        run_id: ledger.as_ref().map(|l| l.run_id().to_string()),
    };
    Ok(run_dash(&cfg)?)
}

fn main() -> ExitCode {
    lithogan::cli::main_with(|args, opts| {
        let a = parse(args)?;
        let record = a.command.record.map(|record| record(&a));
        lithogan::cli::run(opts, a.command.name, record, |ledger| {
            (a.command.run)(&a, opts, ledger)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lithogan::cli::split_global_args;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn p(args: &[&str]) -> Args {
        parse(&strs(args)).unwrap()
    }

    fn parse_err(args: &[&str]) -> String {
        match parse(&strs(args)) {
            Ok(a) => panic!("{args:?} parsed as {}", a.command.name),
            Err(e) => e.to_string(),
        }
    }

    /// The manifest seed and config a recorded command opens its run with.
    fn record(args: &[&str]) -> RunRecord {
        let a = p(args);
        (a.command.record.expect("command records a run"))(&a)
    }

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    /// Runs a parsed command's handler without a ledger.
    fn invoke(args: &[&str]) -> Result<()> {
        let a = p(args);
        (a.command.run)(&a, &GlobalOpts::default(), &mut None)
    }

    #[test]
    fn parses_generate_with_defaults() {
        let a = p(&["generate", "--out", "x.lgd"]);
        assert_eq!(a.command.name, "generate");
        assert_eq!(a.get::<String>("node"), "N10");
        assert_eq!(a.get::<usize>("clips"), 140);
        assert_eq!(a.get::<usize>("size"), 64);
        assert_eq!(a.get::<f64>("jitter"), 3.0);
        assert_eq!(a.get::<String>("out"), "x.lgd");
        assert_eq!(
            record(&["generate", "--out", "x.lgd"]).config,
            pairs(&[
                ("node", "N10"),
                ("clips", "140"),
                ("size", "64"),
                ("jitter_nm", "3"),
                ("out", "x.lgd")
            ])
        );
    }

    #[test]
    fn parses_train_flags() {
        let args = [
            "train",
            "--data",
            "d.lgd",
            "--epochs",
            "5",
            "--augment",
            "--out",
            "m.lgm",
        ];
        let a = p(&args);
        assert_eq!(a.get::<String>("data"), "d.lgd");
        assert_eq!(a.get::<usize>("epochs"), 5);
        assert_eq!(a.get::<u64>("seed"), 0);
        assert!(a.on("augment"));
        assert!(!train_health(&a));
        assert_eq!(a.get::<u64>("health-stride"), 8);
        assert_eq!(a.opt::<String>("abort-on"), None);
        assert_eq!(a.opt::<usize>("poison-nan-at-epoch"), None);
        assert_eq!(a.get::<String>("out"), "m.lgm");
        let r = record(&args);
        assert_eq!(r.seed, Some(0));
        // No health flags -> no health config pairs.
        assert_eq!(
            r.config,
            pairs(&[
                ("data", "d.lgd"),
                ("epochs", "5"),
                ("seed", "0"),
                ("augment", "true"),
                ("out", "m.lgm")
            ])
        );
    }

    #[test]
    fn parses_train_health_flags() {
        let args = [
            "train",
            "--data",
            "d.lgd",
            "--health-stride",
            "4",
            "--abort-on",
            "nan,collapse",
            "--out",
            "m.lgm",
        ];
        let a = p(&args);
        // --health-stride / --abort-on imply --health.
        assert!(train_health(&a));
        assert_eq!(a.get::<u64>("health-stride"), 4);
        assert_eq!(a.opt::<String>("abort-on").as_deref(), Some("nan,collapse"));
        let config = record(&args).config;
        assert!(config.contains(&("health".to_string(), "true".to_string())));
        assert!(config.contains(&("abort_on".to_string(), "nan,collapse".to_string())));
        assert!(parse(&strs(&[
            "train",
            "--data",
            "d",
            "--health-stride",
            "x",
            "--out",
            "m"
        ]))
        .is_err());
    }

    #[test]
    fn manifest_config_matches_the_recorded_values() {
        // Each invocation's manifest seed and config, as recorded by the
        // hand-written parser this table replaced.
        let r = record(&["generate", "--clips", "4", "--size", "32", "--out", "d.lgd"]);
        assert_eq!(r.seed, None);
        assert_eq!(
            r.config,
            pairs(&[
                ("node", "N10"),
                ("clips", "4"),
                ("size", "32"),
                ("jitter_nm", "3"),
                ("out", "d.lgd")
            ])
        );
        let r = record(&[
            "train", "--data", "d.lgd", "--epochs", "1", "--out", "m.lgm",
        ]);
        assert_eq!(r.seed, Some(0));
        assert_eq!(
            r.config,
            pairs(&[
                ("data", "d.lgd"),
                ("epochs", "1"),
                ("seed", "0"),
                ("augment", "false"),
                ("out", "m.lgm")
            ])
        );
        let r = record(&[
            "train",
            "--data",
            "d.lgd",
            "--epochs",
            "1",
            "--seed",
            "3",
            "--health-stride",
            "4",
            "--abort-on",
            "nan",
            "--poison-nan-at-epoch",
            "5",
            "--out",
            "m2.lgm",
        ]);
        assert_eq!(r.seed, Some(3));
        assert_eq!(
            r.config,
            pairs(&[
                ("data", "d.lgd"),
                ("epochs", "1"),
                ("seed", "3"),
                ("augment", "false"),
                ("out", "m2.lgm"),
                ("health", "true"),
                ("health_stride", "4"),
                ("abort_on", "nan"),
                ("poison_nan_at_epoch", "5"),
            ])
        );
        let r = record(&["train", "--data", "d.lgd", "--health", "--out", "m.lgm"]);
        assert_eq!(
            &r.config[4..],
            pairs(&[("out", "m.lgm"), ("health", "true"), ("health_stride", "8")])
        );
        let r = record(&["eval", "--data", "d.lgd", "--model", "m.lgm"]);
        assert_eq!(r.config, pairs(&[("data", "d.lgd"), ("model", "m.lgm")]));
        let r = record(&[
            "predict",
            "--data",
            "d.lgd",
            "--model",
            "m.lgm",
            "--index",
            "1",
            "--out-dir",
            "pred",
        ]);
        assert_eq!(
            r.config,
            pairs(&[
                ("data", "d.lgd"),
                ("model", "m.lgm"),
                ("index", "1"),
                ("out_dir", "pred")
            ])
        );
        let r = record(&["predict", "--data", "d.lgd", "--model", "m.lgm"]);
        assert_eq!(&r.config[2..], pairs(&[("index", "0"), ("out_dir", ".")]));
        assert_eq!(
            record(&["dash"]).config,
            pairs(&[("addr", "127.0.0.1:9091")])
        );
    }

    #[test]
    fn parses_profile_command() {
        let a = p(&["profile", "train-1-2"]);
        assert_eq!(a.operands, strs(&["train-1-2"]));
        assert_eq!(a.get::<usize>("top"), 20);
        assert!(a.command.record.is_none());
        assert_eq!(a.command.name, "profile");
        assert_eq!(p(&["profile", "r", "--top", "5"]).get::<usize>("top"), 5);
        assert!(parse(&strs(&["profile"])).is_err());
        assert!(parse(&strs(&["profile", "a", "b"])).is_err());
        assert!(parse(&strs(&["profile", "r", "--top", "x"])).is_err());
    }

    #[test]
    fn parses_health_command() {
        let a = p(&["health", "train-1-2"]);
        assert_eq!(a.operands, strs(&["train-1-2"]));
        assert_eq!(a.opt::<String>("fail-on"), None);
        let a = p(&["health", "r", "--fail-on", "nan,dead-layer"]);
        assert_eq!(a.operands, strs(&["r"]));
        assert_eq!(
            a.opt::<String>("fail-on").as_deref(),
            Some("nan,dead-layer")
        );
        assert!(a.command.record.is_none());
        assert!(parse(&strs(&["health"])).is_err());
        assert!(parse(&strs(&["health", "a", "b"])).is_err());
    }

    #[test]
    fn parses_report_and_compare() {
        assert_eq!(p(&["report", "train-1-2"]).operands, strs(&["train-1-2"]));
        let a = p(&["compare", "a", "b"]);
        assert_eq!(a.operands, strs(&["a", "b"]));
        assert_eq!(a.opt::<String>("gate"), None);
        assert_eq!(a.opt::<f64>("tol-pct"), None);
        assert_eq!(a.opt::<String>("write-baseline"), None);
        let gated = p(&["compare", "a", "--gate", "base.json", "--tol-pct", "12.5"]);
        assert_eq!(gated.operands, strs(&["a"]));
        assert_eq!(gated.opt::<String>("gate").as_deref(), Some("base.json"));
        assert_eq!(gated.opt::<f64>("tol-pct"), Some(12.5));
        assert!(gated.command.record.is_none());
        // One run and no gate/baseline is a user error, caught before any
        // run is read.
        let err = invoke(&["compare", "a"]).unwrap_err().to_string();
        assert!(err.contains("needs a second run"), "{err}");
        assert!(parse(&strs(&["compare"])).is_err());
        assert!(parse(&strs(&["compare", "a", "b", "c"])).is_err());
        assert!(parse(&strs(&["report"])).is_err());
        assert!(parse(&strs(&["report", "a", "b"])).is_err());
    }

    #[test]
    fn parses_runs_family() {
        let a = p(&["runs", "ls", "--status", "ok", "--last", "5"]);
        assert_eq!(a.command.name, "runs ls");
        assert_eq!(a.opt::<String>("status").as_deref(), Some("ok"));
        assert_eq!(a.opt::<String>("command"), None);
        assert_eq!(a.opt::<String>("dataset"), None);
        assert_eq!(a.opt::<usize>("last"), Some(5));
        assert!(!a.on("json"));
        let a = p(&["runs", "ls", "--json", "--command", "train"]);
        assert_eq!(a.opt::<String>("command").as_deref(), Some("train"));
        assert!(a.on("json"));
        // In `runs trend`, --gate is boolean: the metric stays positional.
        let t = p(&[
            "runs",
            "trend",
            "ede_mean_nm,mean_iou",
            "--gate",
            "--tol-pct",
            "7.5",
            "--last",
            "10",
        ]);
        assert_eq!(t.command.name, "runs trend");
        assert_eq!(t.operands, strs(&["ede_mean_nm,mean_iou"]));
        assert_eq!(t.opt::<String>("slice"), None);
        assert_eq!(t.opt::<usize>("last"), Some(10));
        assert!(t.on("gate"));
        assert_eq!(t.get::<f64>("tol-pct"), 7.5);
        assert_eq!(t.get::<usize>("drift-runs"), 2);
        assert_eq!(t.opt::<String>("out"), None);
        assert!(t.command.record.is_none());
        // The defaults are the trend detector's own.
        let d = p(&["runs", "trend", "m"]);
        assert_eq!(d.get::<f64>("tol-pct"), TrendConfig::default().tol_pct);
        assert_eq!(
            d.get::<usize>("drift-runs"),
            TrendConfig::default().drift_runs
        );
        // --slice keeps the metric positional.
        let s = p(&["runs", "trend", "ede_mean_nm", "--slice", "family=chain1d"]);
        assert_eq!(s.operands, strs(&["ede_mean_nm"]));
        assert_eq!(s.opt::<String>("slice").as_deref(), Some("family=chain1d"));
        let gc = p(&["runs", "gc", "--keep", "3"]);
        assert_eq!(gc.get::<usize>("keep"), 3);
        assert_eq!(gc.opt::<String>("baseline"), None);
        assert_eq!(p(&["reindex"]).command.name, "reindex");
        assert!(parse(&strs(&["runs"])).is_err());
        assert!(parse(&strs(&["runs", "frob"])).is_err());
        assert!(parse(&strs(&["runs", "trend"])).is_err());
        assert!(parse(&strs(&["runs", "gc"])).is_err());
    }

    #[test]
    fn parses_triage_and_diff_eval() {
        let a = p(&["triage", "train-1-2"]);
        assert_eq!(a.operands, strs(&["train-1-2"]));
        assert_eq!(a.get::<usize>("worst"), 10);
        assert!(a.command.record.is_none());
        assert_eq!(a.command.name, "triage");
        assert_eq!(p(&["triage", "r", "--worst", "3"]).get::<usize>("worst"), 3);
        assert!(parse(&strs(&["triage"])).is_err());
        assert!(parse(&strs(&["triage", "a", "b"])).is_err());
        assert!(parse(&strs(&["triage", "r", "--worst", "x"])).is_err());

        // --gate is boolean in diff-eval: both runs stay positional.
        let a = p(&[
            "runs",
            "diff-eval",
            "run-a",
            "run-b",
            "--gate",
            "--tol-pct",
            "5",
        ]);
        assert_eq!(a.command.name, "runs diff-eval");
        assert_eq!(a.operands, strs(&["run-a", "run-b"]));
        assert!(a.on("gate"));
        assert_eq!(a.get::<f64>("tol-pct"), 5.0);
        assert_eq!(
            p(&["runs", "diff-eval", "a", "b"]).get::<f64>("tol-pct"),
            10.0
        );
        assert!(a.command.record.is_none());
        assert!(parse(&strs(&["runs", "diff-eval", "a"])).is_err());
        assert!(parse(&strs(&["runs", "diff-eval", "a", "b", "c"])).is_err());
    }

    #[test]
    fn parses_alerts() {
        let a = p(&["alerts"]);
        assert_eq!(a.opt::<String>("rules"), None);
        assert!(!a.on("gate") && !a.on("json"));
        let a = p(&["alerts", "--rules", "alerts.toml", "--gate", "--json"]);
        assert_eq!(a.opt::<String>("rules").as_deref(), Some("alerts.toml"));
        assert!(a.on("gate") && a.on("json"));
    }

    #[test]
    fn parses_watch() {
        let a = p(&["watch", "train-1-2", "--timeout-s", "30"]);
        assert_eq!(a.operands, strs(&["train-1-2"]));
        assert_eq!(a.get::<u64>("interval-ms"), 200);
        assert_eq!(a.opt::<u64>("timeout-s"), Some(30));
        assert_eq!(a.get::<u64>("wait-s"), 10);
        assert_eq!(p(&["watch", "r", "--wait-s", "2"]).get::<u64>("wait-s"), 2);
        assert!(a.command.record.is_none());
        assert!(parse(&strs(&["watch"])).is_err());
        assert!(parse(&strs(&["watch", "a", "b"])).is_err());
    }

    #[test]
    fn parses_dash() {
        let a = p(&["dash"]);
        assert_eq!(a.get::<String>("addr"), "127.0.0.1:9091");
        // The daemon is itself a recorded run, with its address in the
        // manifest config.
        assert_eq!(a.command.name, "dash");
        assert_eq!(
            record(&["dash"]).config,
            pairs(&[("addr", "127.0.0.1:9091")])
        );
        assert_eq!(
            p(&["dash", "--addr", "0.0.0.0:0"]).get::<String>("addr"),
            "0.0.0.0:0"
        );
    }

    #[test]
    fn value_binds_to_the_flag_before_it() {
        // `--augment` here is the value of `--out`, not a second flag.
        let args = [
            "train",
            "--data",
            "a.lgd",
            "--epochs",
            "1",
            "--out",
            "--augment",
        ];
        let a = p(&args);
        assert_eq!(a.get::<String>("out"), "--augment");
        assert!(!a.on("augment"));
        assert!(record(&args)
            .config
            .contains(&("augment".to_string(), "false".to_string())));
        // A flag word in operand position is still a flag.
        let a = p(&["health", "--fail-on", "nan", "r"]);
        assert_eq!(a.operands, strs(&["r"]));
    }

    #[test]
    fn repeated_flag_is_an_error_naming_it() {
        let err = parse_err(&["generate", "--clips", "2", "--clips", "3", "--out", "x"]);
        assert!(err.contains("--clips") && err.contains("generate"), "{err}");
        let err = parse_err(&["alerts", "--gate", "--gate"]);
        assert!(err.contains("--gate"), "{err}");
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
        assert!(parse_err(&["generate"]).contains("--out"));
        assert!(parse_err(&["train", "--out", "m"]).contains("--data"));
        assert!(parse_err(&["eval", "--data", "d"]).contains("--model"));
        assert!(parse_err(&["frobnicate"]).contains("unknown command"));
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
        let err = parse_err(&["generate", "--clips", "abc", "--out", "x"]);
        assert!(err.contains("--clips") && err.contains("abc"), "{err}");
        assert!(parse(&strs(&[
            "predict", "--data", "d", "--model", "m", "--index", "x"
        ]))
        .is_err());
        assert!(parse(&strs(&["generate", "--jitter", "wide", "--out", "x"])).is_err());
        assert!(parse(&strs(&["generate", "--clips", "-1", "--out", "x"])).is_err());
    }

    #[test]
    fn global_flags_are_stripped_anywhere() {
        let (rest, t) = split_global_args(&strs(&[
            "--trace",
            "train",
            "--data",
            "d.lgd",
            "--metrics-out",
            "run.jsonl",
            "--no-run",
            "--runs-root",
            "elsewhere",
            "--out",
            "m.lgm",
        ]))
        .unwrap();
        assert_eq!(rest, strs(&["train", "--data", "d.lgd", "--out", "m.lgm"]));
        assert!(t.trace);
        assert!(t.no_run);
        assert_eq!(t.metrics_out.as_deref(), Some("run.jsonl"));
        assert_eq!(t.runs_root, "elsewhere");

        let (rest, t) = split_global_args(&strs(&["eval", "--data", "d", "--model", "m"])).unwrap();
        assert_eq!(rest.len(), 5);
        assert_eq!(t, GlobalOpts::default());
        assert_eq!(t.runs_root, "runs");
    }

    #[test]
    fn trailing_value_flags_without_value_error() {
        assert!(split_global_args(&strs(&["eval", "--metrics-out"])).is_err());
        assert!(split_global_args(&strs(&["eval", "--runs-root"])).is_err());
        assert!(split_global_args(&strs(&["eval", "--threads"])).is_err());
        assert!(split_global_args(&strs(&["eval", "--simd"])).is_err());
    }

    #[test]
    fn global_threads_flag_parses() {
        let (rest, t) = split_global_args(&strs(&[
            "eval",
            "--threads",
            "4",
            "--data",
            "d",
            "--model",
            "m",
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
        assert!(split_global_args(&strs(&["eval", "--simd=sse9"])).is_err());
    }

    #[test]
    fn help_paths() {
        let help_topic = |args: &[&str]| {
            let a = p(args);
            assert_eq!(a.command.name, "help", "{args:?}");
            a.operands.join(" ")
        };
        assert_eq!(help_topic(&[]), "");
        assert_eq!(help_topic(&["--help"]), "");
        assert_eq!(help_topic(&["help"]), "");
        assert_eq!(help_topic(&["help", "train"]), "train");
        assert_eq!(help_topic(&["compare", "--help"]), "compare");
        assert_eq!(help_topic(&["runs", "--help"]), "runs");
        assert_eq!(help_topic(&["runs", "trend", "--help"]), "runs trend");
        assert_eq!(help_topic(&["help", "runs", "gc"]), "runs gc");
        assert!(usage().contains("generate"));
        assert!(usage().contains("--runs-root"));
        // Every per-command help mentions the global observability flags.
        for cmd in COMMANDS.iter().map(|c| c.name).chain(["runs"]) {
            let text = help_text(cmd).unwrap();
            assert!(text.contains("--trace"), "{cmd} help lacks --trace");
            assert!(
                text.contains("--metrics-out"),
                "{cmd} help lacks --metrics-out"
            );
            assert!(text.contains(cmd), "{cmd} help lacks its own name");
            assert!(invoke(&["help", cmd]).is_ok());
        }
        assert!(help_text("runs").unwrap().contains("runs diff-eval"));
        // Help for an unknown command is an error, not the usage text.
        let err = invoke(&["help", "nope"]).unwrap_err().to_string();
        assert!(err.contains("unknown command"), "{err}");
        assert!(parse_err(&["nope", "--help"]).contains("unknown command"));
    }

    #[test]
    fn every_flag_appears_in_help_and_usage() {
        let usage = usage();
        for c in COMMANDS {
            let help = help_text(c.name).unwrap();
            let line = usage
                .lines()
                .find(|l| l.trim_start() == c.synopsis())
                .unwrap_or_else(|| panic!("usage lacks {}", c.name));
            for f in c.flags {
                let spelled = f.spelling();
                assert!(help.contains(&spelled), "{} help lacks {spelled}", c.name);
                assert!(
                    line.contains(&spelled),
                    "usage line of {} lacks {spelled}",
                    c.name
                );
                if let Def(d) = f.need {
                    assert!(
                        help.contains(&format!("(default {d})")),
                        "{} --{}",
                        c.name,
                        f.name
                    );
                    // Defaults are values the parser itself would accept.
                    assert!(f.ty.accepts(d), "{} --{} default {d:?}", c.name, f.name);
                }
            }
        }
        assert!(help_text("watch").unwrap().contains("--wait-s N"));
        assert!(!help_text("alerts").unwrap().contains("alerts-rules"));
    }
}
