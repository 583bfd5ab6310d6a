//! `golden`: `litho_dataset::generate` at the paper's simulation settings
//! (256 grid, 256 px images), half the clips from N10 and half from N7.
//! Each clip goes through OPC, the focus-stack rigorous SOCS simulation,
//! resist development, golden-window extraction and rasterization.

use std::time::Instant;

use litho_dataset::{generate, golden_window, DatasetConfig, GenerationStats, Sample};
use litho_layout::{
    insert_srafs, rasterize_clip, ClipFamily, ClipGenerator, OpcConfig, OpcEngine, RasterConfig,
    SrafRules,
};
use litho_sim::{OpticalModel, ResistModel, RigorousSim};
use litho_tensor::rng::{SeedableRng, StdRng};
use litho_tensor::{Result, Tensor};

use super::{per_ms, tensor_values, Plan, Scale, Workload};
use crate::metrics::{Checks, Values};
use crate::trace::Recorder;

/// Clip extent the dataset builder simulates, nm per side.
const EXTENT_NM: f64 = 2048.0;

/// One process node: its dataset template and the engines the traced
/// replica and the re-simulation check drive directly.
struct Node {
    config: DatasetConfig,
    generator: ClipGenerator,
    srafs: SrafRules,
    opc: OpcEngine,
    sim: RigorousSim,
    resist: ResistModel,
    /// The compact model the OPC loop images with.
    compact: OpticalModel,
}

impl Node {
    fn new(mut config: DatasetConfig, clips: usize, image_size: usize) -> Result<Self> {
        config.clip_count = clips;
        config.image_size = image_size;
        let process = &config.process;
        let grid = config.sim_grid;
        let pitch = EXTENT_NM / grid as f64;
        Ok(Node {
            generator: ClipGenerator::new(process),
            srafs: SrafRules::for_process(process),
            opc: OpcEngine::new(
                process,
                EXTENT_NM,
                OpcConfig {
                    grid_size: grid,
                    ..OpcConfig::default()
                },
            )?,
            sim: RigorousSim::new(process, grid, pitch)?,
            resist: ResistModel::new(process.resist),
            compact: OpticalModel::new(process, grid, pitch)?,
            config,
        })
    }

    /// The dataset configuration of operation `index` under `seed`.
    fn op_config(&self, seed: u64, index: usize) -> DatasetConfig {
        let mut config = self.config.clone();
        config.seed = seed
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add(config.seed.wrapping_mul(0x9E37_79B9))
            .wrapping_add(index as u64);
        config
    }
}

pub struct Golden {
    nodes: Vec<Node>,
    seed: u64,
    /// First generated sample and its node, for the re-simulation check.
    probe: Option<(usize, Sample)>,
    stats: GenerationStats,
}

/// Whether a golden window is binary and non-empty.
fn golden_ok(golden: &Tensor) -> bool {
    golden.as_slice().iter().all(|&v| v == 0.0 || v == 1.0) && golden.sum() > 0.0
}

impl Workload for Golden {
    const NOMINAL_OP_S: f64 = 1.3;

    fn setup(plan: &Plan) -> Result<Self> {
        let (clips, image_size) = match plan.scale {
            Scale::Full => (4, 256),
            Scale::Tiny => (1, 16),
        };
        Ok(Golden {
            nodes: vec![
                Node::new(DatasetConfig::n10_paper(), clips, image_size)?,
                Node::new(DatasetConfig::n7_paper(), clips, image_size)?,
            ],
            seed: plan.seed,
            probe: None,
            stats: GenerationStats::default(),
        })
    }

    fn clips_per_op(&self) -> usize {
        self.nodes.iter().map(|n| n.config.clip_count).sum()
    }

    fn op(&mut self, index: usize, checks: &mut Checks) -> Result<f64> {
        let mut secs = 0.0;
        for (k, node) in self.nodes.iter().enumerate() {
            let config = node.op_config(self.seed, index);
            let t0 = Instant::now();
            let (dataset, stats) = generate(&config)?;
            secs += t0.elapsed().as_secs_f64();
            self.stats.requested += stats.requested;
            self.stats.generated += stats.generated;
            self.stats.empty_golden_retries += stats.empty_golden_retries;
            self.stats.opc_unconverged += stats.opc_unconverged;
            checks.record(dataset.len() == config.clip_count, || {
                format!(
                    "{} op {index}: {} of {} clips",
                    config.process.name,
                    dataset.len(),
                    config.clip_count
                )
            });
            for (i, sample) in dataset.samples.iter().enumerate() {
                checks.record(golden_ok(&sample.golden), || {
                    format!(
                        "{} op {index} clip {i}: golden window empty or not binary",
                        config.process.name
                    )
                });
            }
            if self.probe.is_none() {
                self.probe = dataset.samples.into_iter().next().map(|s| (k, s));
            }
        }
        Ok(secs)
    }

    fn traced_op(&mut self, index: usize, rec: &mut Recorder, checks: &mut Checks) -> Result<f64> {
        let t_op = Instant::now();
        let mut probe_secs = 0.0;
        for node in &self.nodes {
            let config = node.op_config(self.seed, index);
            let grid = config.sim_grid;
            for clip_index in 0..config.clip_count {
                // `generate`'s per-clip loop: the same deterministic
                // per-(clip, attempt) streams, retried on an empty window.
                let family = ClipFamily::ALL[clip_index % ClipFamily::ALL.len()];
                let mut printed = false;
                for attempt in 0..5u64 {
                    let mut rng = StdRng::seed_from_u64(
                        config
                            .seed
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add((clip_index as u64) << 8)
                            .wrapping_add(attempt),
                    );
                    let clip = rec.time("layout.clip_gen", || {
                        let mut clip = node.generator.generate(family, &mut rng);
                        insert_srafs(&mut clip, &node.srafs);
                        clip
                    });
                    let opc = rec.window("layout.opc", || node.opc.correct(&clip))?;
                    rec.derive("layout.opc_iterations", opc.iterations as f64);
                    let mask_grid = rec.time("layout.raster", || opc.clip.to_mask_grid(grid));
                    let (_, report) =
                        rec.window("sim.rigorous", || node.sim.simulate(&mask_grid))?;
                    rec.derive("sim.optical", report.optical_time.as_secs_f64());
                    rec.derive("sim.resist_contour", report.resist_time.as_secs_f64());
                    let excess = node.resist.excess_field(&report.aerial);
                    let golden = rec.time("dataset.golden_window", || {
                        golden_window(
                            &excess,
                            grid,
                            opc.clip.extent_nm,
                            config.golden_window_nm,
                            config.image_size,
                        )
                    })?;

                    // Probe, outside the operation's wall time: one compact
                    // aerial image, as each OPC iteration computes.
                    let t_probe = Instant::now();
                    node.compact.aerial_image(&mask_grid)?;
                    let one = t_probe.elapsed().as_secs_f64();
                    rec.derive("sim.compact_aerial", one * opc.iterations as f64);
                    probe_secs += one;

                    if golden.sum() == 0.0 {
                        rec.derive("dataset.retries", 1.0);
                        continue;
                    }
                    rec.time("layout.raster", || {
                        rasterize_clip(
                            &opc.clip,
                            &RasterConfig {
                                image_size: config.image_size,
                                window_nm: 1024,
                            },
                        )
                    })?;
                    rec.derive("clips", 1.0);
                    checks.record(golden_ok(&golden), || {
                        format!("traced clip {clip_index}: golden window not binary")
                    });
                    printed = true;
                    break;
                }
                checks.record(printed, || {
                    format!("traced clip {clip_index}: never printed")
                });
            }
        }
        Ok(t_op.elapsed().as_secs_f64() - probe_secs)
    }

    fn finish(&mut self, checks: &mut Checks) -> Result<()> {
        // Re-simulating a generated clip must reproduce its golden window
        // bit for bit.
        let Some((k, sample)) = &self.probe else {
            checks.record(false, || "no clip generated to re-simulate".to_string());
            return Ok(());
        };
        let node = &self.nodes[*k];
        let grid = node.config.sim_grid;
        let (_, report) = node.sim.simulate(&sample.clip.to_mask_grid(grid))?;
        let excess = node.resist.excess_field(&report.aerial);
        let golden = golden_window(
            &excess,
            grid,
            sample.clip.extent_nm,
            node.config.golden_window_nm,
            node.config.image_size,
        )?;
        let same = golden.dims() == sample.golden.dims()
            && golden.as_slice().iter().map(|v| v.to_bits()).eq(sample
                .golden
                .as_slice()
                .iter()
                .map(|v| v.to_bits()));
        checks.record(same, || "re-simulated golden window differs".to_string());
        Ok(())
    }

    fn layer_values(&self, rec: &Recorder, _traced_ops: usize, out: &mut Values) {
        let clips = rec.derived("clips") as usize;
        for (row, span) in [
            ("layout.clip_gen_ms", "layout.clip_gen"),
            ("layout.opc_ms", "layout.opc"),
            ("layout.raster_ms", "layout.raster"),
            ("sim.rigorous_ms", "sim.rigorous"),
            ("dataset.golden_window_ms", "dataset.golden_window"),
        ] {
            out.insert(row, per_ms(rec.span_secs(span), clips));
        }
        for (row, derived) in [
            ("sim.optical_ms", "sim.optical"),
            ("sim.resist_contour_ms", "sim.resist_contour"),
            ("sim.compact_aerial_ms", "sim.compact_aerial"),
        ] {
            out.insert(row, per_ms(rec.derived(derived), clips));
        }
        out.insert(
            "layout.opc_iterations",
            rec.derived("layout.opc_iterations") / clips.max(1) as f64,
        );
        // Wasted work of the public `generate` calls: every attempt runs
        // OPC and the rigorous simulation once.
        let attempts = (self.stats.generated + self.stats.empty_golden_retries).max(1) as f64;
        out.insert(
            "dataset.retry_share",
            self.stats.empty_golden_retries as f64 / attempts,
        );
        out.insert(
            "dataset.opc_unconverged_share",
            self.stats.opc_unconverged as f64 / attempts,
        );
        tensor_values(rec, clips, clips, out);
    }
}
