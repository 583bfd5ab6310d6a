//! Shared experiment harness for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (see DESIGN.md §4 for the index). They share:
//!
//! * [`run_experiment`] — the binary's `main`: the global flags and run
//!   lifecycle of `lithogan_cli` ([`lithogan::cli`]) around the body.
//! * [`Scale`] — the experiment scale (clip count, image size, epochs,
//!   seed repetitions), parsed from CLI flags: `--quick` for smoke runs,
//!   `--paper` for the full published scale (CPU-days; see DESIGN.md's
//!   substitution table), default otherwise.
//! * [`dataset`] — cached dataset generation per node, recorded in the
//!   run's manifest.
//! * [`train_all`] / [`Trained`] — the three models of Table 3 (Ref \[12\]
//!   baseline, CGAN, LithoGAN) trained on the same split.
//! * [`evaluate`] — [`MetricAccumulator`]-based scoring of a method.

pub mod microbench;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use litho_dataset::{generate, load_dataset, save_dataset, Dataset, DatasetConfig, Sample};
use litho_ledger::RunLedger;
use litho_metrics::{MetricAccumulator, MetricSummary};
use litho_sim::ProcessConfig;
use litho_tensor::{Result, Tensor, TensorError};
use lithogan::cli::{record_dataset, RunRecord};
use microbench::MicroBench;
use lithogan::{Cgan, LithoGan, NetConfig, ThresholdBaseline, TrainConfig, TrainPair};

/// A benchmark node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// The 10 nm-node dataset (982 clips in the paper).
    N10,
    /// The 7 nm-node dataset (979 clips in the paper).
    N7,
}

impl Node {
    /// Both nodes, in paper order.
    pub const ALL: [Node; 2] = [Node::N10, Node::N7];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Node::N10 => "N10",
            Node::N7 => "N7",
        }
    }

    /// Process configuration.
    pub fn process(self) -> ProcessConfig {
        match self {
            Node::N10 => ProcessConfig::n10(),
            Node::N7 => ProcessConfig::n7(),
        }
    }

    /// Clip count used in the paper.
    pub fn paper_clip_count(self) -> usize {
        match self {
            Node::N10 => 982,
            Node::N7 => 979,
        }
    }
}

/// Experiment scale. The paper's absolute scale (256 × 256, 80 epochs,
/// 982 clips, TITAN Xp) is out of reach for a pure-CPU Rust stack, so the
/// default reproduces the experiment *shapes* at reduced resolution; the
/// `--paper` flag constructs the full-scale configuration for users with
/// the budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Human-readable label printed in reports.
    pub label: String,
    /// Clips per node (`None` = the paper's count).
    pub clip_count: Option<usize>,
    /// Image resolution (mask and golden windows).
    pub image_size: usize,
    /// Training epochs for every model.
    pub epochs: usize,
    /// Independent seeds to average over (paper: 5).
    pub seeds: usize,
}

impl Scale {
    /// Smoke-test scale: a few minutes end to end. 64 px is the minimum
    /// resolution at which the mask-write-jitter centre signal survives
    /// golden-window quantisation (2 nm/px), so the dual-learning
    /// comparison stays meaningful even on quick runs.
    pub fn quick() -> Self {
        Scale {
            label: "quick".into(),
            clip_count: Some(60),
            image_size: 64,
            epochs: 8,
            seeds: 1,
        }
    }

    /// Default scale: minutes-per-experiment on a multicore CPU.
    pub fn standard() -> Self {
        Scale {
            label: "standard".into(),
            clip_count: Some(140),
            image_size: 64,
            epochs: 10,
            seeds: 1,
        }
    }

    /// The paper's published scale (very slow on CPU).
    pub fn paper() -> Self {
        Scale {
            label: "paper".into(),
            clip_count: None,
            image_size: 256,
            epochs: 80,
            seeds: 5,
        }
    }

    /// Parses the scale flags `--quick`, `--paper`, `--seeds=N`,
    /// `--epochs=N` and `--clips=N`, left to right, over
    /// [`Scale::standard`].
    ///
    /// # Errors
    ///
    /// Any other argument, or a count that is not one; the error names
    /// the argument.
    pub fn from_args(args: &[String]) -> Result<Self> {
        let mut scale = Scale::standard();
        for arg in args {
            let (name, value) = arg
                .split_once('=')
                .map_or((arg.as_str(), None), |(n, v)| (n, Some(v)));
            let count = |v: &str| -> Result<usize> {
                v.parse()
                    .map_err(|_| bad(format!("{name}: expected a count, got {v:?}")))
            };
            match (name, value) {
                ("--quick", None) => scale = Scale::quick(),
                ("--paper", None) => scale = Scale::paper(),
                ("--seeds", Some(v)) => scale.seeds = count(v)?,
                ("--epochs", Some(v)) => scale.epochs = count(v)?,
                ("--clips", Some(v)) => scale.clip_count = Some(count(v)?),
                _ => {
                    return Err(bad(format!(
                        "unknown flag {arg:?} (scale flags: --quick, --paper, --seeds=N, \
                         --epochs=N, --clips=N)"
                    )))
                }
            }
        }
        Ok(scale)
    }

    /// The run manifest's config pairs for this scale.
    fn config_pairs(&self) -> Vec<(String, String)> {
        let clips = self
            .clip_count
            .map_or_else(|| "paper".to_string(), |c| c.to_string());
        [
            ("scale", self.label.clone()),
            ("clips", clips),
            ("size", self.image_size.to_string()),
            ("epochs", self.epochs.to_string()),
            ("seeds", self.seeds.to_string()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }

    /// Dataset configuration for a node at this scale.
    pub fn dataset_config(&self, node: Node) -> DatasetConfig {
        let count = self.clip_count.unwrap_or_else(|| node.paper_clip_count());
        DatasetConfig::scaled(node.process(), count, self.image_size)
    }

    /// Network configuration at this scale.
    pub fn net_config(&self) -> NetConfig {
        NetConfig::for_size(self.image_size)
    }

    /// Training configuration at this scale, for seed repetition `seed`.
    pub fn train_config(&self, seed: u64) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            seed,
            ..TrainConfig::paper()
        }
    }
}

fn bad(msg: impl Into<String>) -> TensorError {
    TensorError::InvalidArgument(msg.into())
}

/// This process's executable name, which names its runs.
fn bin_name() -> String {
    std::env::args()
        .next()
        .as_deref()
        .map(Path::new)
        .and_then(Path::file_stem)
        .map_or_else(|| "bench".to_string(), |s| s.to_string_lossy().into_owned())
}

/// The `main` of an experiment binary: parses the global flags shared
/// with `lithogan_cli` and the [`Scale`] flags, then runs `body` inside
/// the shared run lifecycle ([`lithogan::cli::run`]), which records the
/// invocation under `runs/` unless `--no-run` is given. An unknown flag
/// fails before any work starts; a body that fails or panics leaves its
/// run finalized as `error`.
pub fn run_experiment<F>(body: F) -> ExitCode
where
    F: FnOnce(&Scale, &mut Option<RunLedger>) -> Result<()>,
{
    lithogan::cli::main_with(|args, opts| {
        let scale = Scale::from_args(args)?;
        let record = RunRecord {
            seed: None,
            config: scale.config_pairs(),
        };
        lithogan::cli::run(opts, &bin_name(), Some(record), |ledger| {
            body(&scale, ledger)
        })
    })
}

/// The `main` of a microbench that reports telemetry: the global flags
/// shared with `lithogan_cli` (`--trace`, `--metrics-out`, `--threads`,
/// `--simd`) act through the shared lifecycle, which records no run for
/// it; the rest are the bench's own flags ([`MicroBench::parse`]), and
/// anything else fails before a bench runs.
pub fn run_microbench(bench: &str, body: impl FnOnce(&MicroBench)) -> ExitCode {
    lithogan::cli::main_with(|args, opts| {
        let mb = MicroBench::parse(args)?;
        lithogan::cli::run(opts, bench, None, |_| {
            body(&mb);
            Ok(())
        })
    })
}

/// Directory for cached datasets and experiment outputs.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiment output dir");
    dir
}

/// Generates (or loads from cache) the dataset for a node at a scale,
/// and records its identity in `ledger`'s manifest when there is one.
///
/// # Errors
///
/// Propagates generation or I/O errors.
pub fn dataset(node: Node, scale: &Scale, ledger: &mut Option<RunLedger>) -> Result<Dataset> {
    let config = scale.dataset_config(node);
    let cache = out_dir().join(format!(
        "{}_{}clips_{}px_seed{}.lgd",
        node.name(),
        config.clip_count,
        config.image_size,
        config.seed
    ));
    if cache.exists() {
        if let Ok(ds) = load_dataset(&cache) {
            if ds.config == config {
                record_dataset(ledger, &cache, &ds)?;
                return Ok(ds);
            }
        }
    }
    let t0 = std::time::Instant::now();
    let (ds, stats) = generate(&config)?;
    eprintln!(
        "[data] generated {} {} samples in {:.1?} ({} retries, {} OPC unconverged)",
        ds.len(),
        node.name(),
        t0.elapsed(),
        stats.empty_golden_retries,
        stats.opc_unconverged
    );
    save_dataset(&ds, &cache)?;
    record_dataset(ledger, &cache, &ds)?;
    Ok(ds)
}

/// The three models of Table 3, trained on one split with one seed.
pub struct Trained {
    /// The dual-learning LithoGAN.
    pub lithogan: LithoGan,
    /// Plain CGAN trained on *uncentred* golden targets.
    pub cgan: Cgan,
    /// The Ref. \[12\] threshold baseline.
    pub baseline: ThresholdBaseline,
}

/// Trains all three methods on the dataset's train split, caching the
/// trained weights under `target/experiments/models/` so that every
/// experiment binary at the same (node, scale, seed) shares one training
/// run.
///
/// # Errors
///
/// Propagates training errors.
pub fn train_all(ds: &Dataset, scale: &Scale, seed: u64) -> Result<Trained> {
    use litho_nn::serialize::{load_weights_from_path, save_weights_to_path};

    let (train, _) = ds.split();
    let net = scale.net_config();
    let cfg = scale.train_config(seed);

    let key = format!(
        "{}_{}clips_{}px_{}ep_seed{}",
        ds.config.process.name, ds.config.clip_count, scale.image_size, scale.epochs, seed
    );
    let model_dir = out_dir().join("models").join(key);
    std::fs::create_dir_all(&model_dir)
        .map_err(|e| litho_tensor::TensorError::InvalidArgument(e.to_string()))?;

    let mut lithogan = LithoGan::new(&net, seed);
    let mut cgan = Cgan::with_train_config(&net, &cfg, seed.wrapping_add(100));
    let mut baseline = ThresholdBaseline::new(
        &ds.config.process,
        &net,
        ds.config.sim_grid,
        ds.config.golden_window_nm,
        seed.wrapping_add(200),
    )?;

    // Try the cache first: all weight files plus the baseline stats.
    let stats_path = model_dir.join("baseline_stats.txt");
    let cached = load_weights_from_path(lithogan.cgan.generator_mut(), model_dir.join("lg_gen.lgw"))
        .and_then(|()| {
            load_weights_from_path(lithogan.cgan.discriminator_mut(), model_dir.join("lg_disc.lgw"))
        })
        .and_then(|()| {
            load_weights_from_path(lithogan.center.network_mut(), model_dir.join("lg_center.lgw"))
        })
        .and_then(|()| load_weights_from_path(cgan.generator_mut(), model_dir.join("cgan_gen.lgw")))
        .and_then(|()| {
            load_weights_from_path(cgan.discriminator_mut(), model_dir.join("cgan_disc.lgw"))
        })
        .and_then(|()| {
            load_weights_from_path(baseline.network_mut(), model_dir.join("baseline.lgw"))
        })
        .and_then(|()| {
            let text = std::fs::read_to_string(&stats_path)
                .map_err(|e| litho_tensor::TensorError::InvalidArgument(e.to_string()))?;
            let mut it = text.split_whitespace();
            let mean: f32 = it.next().and_then(|v| v.parse().ok()).ok_or_else(|| {
                litho_tensor::TensorError::InvalidArgument("bad baseline stats".into())
            })?;
            let std: f32 = it.next().and_then(|v| v.parse().ok()).ok_or_else(|| {
                litho_tensor::TensorError::InvalidArgument("bad baseline stats".into())
            })?;
            baseline.set_target_stats(mean, std);
            Ok(())
        });
    if cached.is_ok() {
        eprintln!("[train] loaded cached models from {}", model_dir.display());
        return Ok(Trained {
            lithogan,
            cgan,
            baseline,
        });
    }

    eprintln!("[train] LithoGAN ({} samples, {} epochs)", train.len(), cfg.epochs);
    lithogan.train(&train, &cfg, |_, _| {})?;

    eprintln!("[train] CGAN (uncentred targets)");
    let pairs: Vec<TrainPair> = train
        .iter()
        .map(|s| TrainPair::from_dataset(&s.mask, &s.golden))
        .collect::<Result<Vec<_>>>()?;
    cgan.train(&pairs, &cfg, |_, _| {})?;

    eprintln!("[train] Ref[12] threshold baseline");
    let mut threshold_samples = Vec::with_capacity(train.len());
    for s in &train {
        let (window, _) = baseline.aerial_window(s)?;
        let t = ThresholdBaseline::golden_thresholds(&window, &s.golden)?;
        threshold_samples.push((window, t));
    }
    baseline.train(&threshold_samples, &cfg)?;

    save_weights_to_path(lithogan.cgan.generator_mut(), model_dir.join("lg_gen.lgw"))?;
    save_weights_to_path(lithogan.cgan.discriminator_mut(), model_dir.join("lg_disc.lgw"))?;
    save_weights_to_path(lithogan.center.network_mut(), model_dir.join("lg_center.lgw"))?;
    save_weights_to_path(cgan.generator_mut(), model_dir.join("cgan_gen.lgw"))?;
    save_weights_to_path(cgan.discriminator_mut(), model_dir.join("cgan_disc.lgw"))?;
    save_weights_to_path(baseline.network_mut(), model_dir.join("baseline.lgw"))?;
    let (mean, std) = baseline.target_stats();
    std::fs::write(&stats_path, format!("{mean} {std}"))
        .map_err(|e| litho_tensor::TensorError::InvalidArgument(e.to_string()))?;

    Ok(Trained {
        lithogan,
        cgan,
        baseline,
    })
}

/// Scores a method's predictions over the test split.
///
/// `predict` maps a test sample to a `[S, S]` image in `[0, 1]`.
///
/// # Errors
///
/// Propagates prediction/metric errors.
pub fn evaluate<F>(
    test: &[&Sample],
    nm_per_px: f64,
    mut predict: F,
) -> Result<(MetricSummary, Vec<f64>)>
where
    F: FnMut(&Sample) -> Result<Tensor>,
{
    let mut acc = MetricAccumulator::new(nm_per_px);
    for s in test {
        let pred = predict(s)?;
        acc.add(&pred, &s.golden)?;
    }
    Ok((acc.summary(), acc.ede_values().to_vec()))
}

/// Formats one Table 3 row.
pub fn format_row(dataset: &str, method: &str, s: &MetricSummary) -> String {
    format!(
        "{dataset:<5} {method:<10} {:>7.2} {:>8.2} {:>10.4} {:>10.4} {:>9.4}",
        s.ede_mean_nm, s.ede_std_nm, s.pixel_accuracy, s.class_accuracy, s.mean_iou
    )
}

/// Table 3 header line.
pub fn table3_header() -> String {
    format!(
        "{:<5} {:<10} {:>7} {:>8} {:>10} {:>10} {:>9}",
        "Data", "Method", "EDE", "EDE-std", "PixelAcc", "ClassAcc", "MeanIoU"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale(args: &[&str]) -> Result<Scale> {
        Scale::from_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn scale_flags_apply_left_to_right_and_set_the_manifest_config() {
        assert_eq!(scale(&[]).unwrap(), Scale::standard());
        let s = scale(&["--quick", "--seeds=3", "--clips=12"]).unwrap();
        assert_eq!(
            s.config_pairs(),
            pairs(&[
                ("scale", "quick"),
                ("clips", "12"),
                ("size", "64"),
                ("epochs", "8"),
                ("seeds", "3")
            ])
        );
        // A later preset resets what an earlier flag set.
        assert_eq!(scale(&["--seeds=3", "--quick"]).unwrap(), Scale::quick());
        assert_eq!(
            scale(&["--paper", "--epochs=2"]).unwrap().config_pairs(),
            pairs(&[
                ("scale", "paper"),
                ("clips", "paper"),
                ("size", "256"),
                ("epochs", "2"),
                ("seeds", "5")
            ])
        );
    }

    #[test]
    fn unknown_or_malformed_scale_flags_are_errors_naming_them() {
        for (args, named) in [
            (&["--seed=3"][..], "--seed=3"),
            (&["--quik"][..], "--quik"),
            (&["--quick=1"][..], "--quick=1"),
            (&["--seeds"][..], "--seeds"),
            (&["--seeds=x"][..], "--seeds"),
            (&["--clips=-4"][..], "--clips"),
            (&["table3"][..], "table3"),
        ] {
            let err = scale(args).unwrap_err().to_string();
            assert!(err.contains(named), "{args:?}: {err}");
        }
    }
}
