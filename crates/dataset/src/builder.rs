//! Dataset generation: the full §3.1 pipeline, parallelised over clips.

use litho_tensor::rng::StdRng;
use litho_tensor::rng::SeedableRng;

use litho_layout::{
    insert_srafs, rasterize_clip, ClipFamily, ClipGenerator, OpcConfig, OpcEngine, RasterConfig,
    SrafRules,
};
use litho_sim::RigorousSim;
use litho_tensor::{pool, Result, Tensor};

use crate::{golden_window, Dataset, DatasetConfig, Sample};

/// Counters describing a generation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenerationStats {
    /// Clips requested.
    pub requested: usize,
    /// Samples successfully produced.
    pub generated: usize,
    /// Clips whose golden window came out empty (target failed to print)
    /// and were re-drawn.
    pub empty_golden_retries: usize,
    /// Clips where the OPC loop hit its iteration cap before tolerance.
    pub opc_unconverged: usize,
}

/// The engines every clip reads, built once per `generate` call and shared
/// by all of its tasks (cheap relative to a full dataset, not per clip).
struct Worker {
    generator: ClipGenerator,
    sraf_rules: SrafRules,
    opc: OpcEngine,
    sim: RigorousSim,
}

impl Worker {
    fn new(config: &DatasetConfig) -> Result<Self> {
        let process = &config.process;
        let extent = 2048.0;
        let opc = OpcEngine::new(
            process,
            extent,
            OpcConfig {
                grid_size: config.sim_grid,
                ..OpcConfig::default()
            },
        )?;
        let sim = RigorousSim::new(process, config.sim_grid, extent / config.sim_grid as f64)?;
        Ok(Worker {
            generator: ClipGenerator::new(process),
            sraf_rules: SrafRules::for_process(process),
            opc,
            sim,
        })
    }

    /// Generates the sample for clip index `i`, retrying with fresh
    /// geometry when the golden window is empty.
    fn generate_sample(
        &self,
        config: &DatasetConfig,
        index: usize,
        stats: &mut GenerationStats,
    ) -> Result<Option<Sample>> {
        let family = ClipFamily::ALL[index % ClipFamily::ALL.len()];
        for attempt in 0..5u64 {
            // Deterministic per-(clip, attempt) stream: results do not
            // depend on thread scheduling.
            let mut rng = StdRng::seed_from_u64(
                config
                    .seed
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add((index as u64) << 8)
                    .wrapping_add(attempt),
            );
            let mut clip = self.generator.generate(family, &mut rng);
            insert_srafs(&mut clip, &self.sraf_rules);
            let opc_result = self.opc.correct(&clip)?;
            if !opc_result.converged {
                stats.opc_unconverged += 1;
            }
            let mut corrected = opc_result.clip;
            apply_mask_jitter(&mut corrected, config.mask_jitter_nm, &mut rng);

            let mask_grid = corrected.to_mask_grid(config.sim_grid);
            let (_, report) = self.sim.simulate(&mask_grid)?;
            let golden = golden_window(
                &report.excess,
                config.sim_grid,
                corrected.extent_nm,
                config.golden_window_nm,
                config.image_size,
            )?;
            if golden.sum() == 0.0 {
                stats.empty_golden_retries += 1;
                continue;
            }

            let mask = rasterize_clip(
                &corrected,
                &RasterConfig {
                    image_size: config.image_size,
                    window_nm: 1024,
                },
            )?;
            let (golden_centered, center_px) = center_golden(&golden)?;
            return Ok(Some(Sample {
                clip: corrected,
                mask,
                golden,
                golden_centered,
                center_px,
                family,
            }));
        }
        Ok(None)
    }
}

/// Mask write / registration error: translates every shape of the
/// post-OPC clip by an independent uniform offset in `[-j, +j]` nm per
/// axis. Applied *after* OPC, so (unlike systematic proximity asymmetry,
/// which the edge-based OPC corrects) it displaces the printed pattern
/// centre — the physical signal behind the paper's centre-prediction CNN.
fn apply_mask_jitter<R: litho_tensor::rng::Rng + ?Sized>(clip: &mut litho_layout::Clip, jitter_nm: f64, rng: &mut R) {
    if jitter_nm <= 0.0 {
        return;
    }
    let offset = |rng: &mut R| rng.gen_range(-jitter_nm..=jitter_nm);
    let (dx, dy) = (offset(rng), offset(rng));
    clip.target = clip.target.translated(dx, dy);
    for r in clip.neighbors.iter_mut().chain(clip.srafs.iter_mut()) {
        let (dx, dy) = (offset(rng), offset(rng));
        *r = r.translated(dx, dy);
    }
}

/// One clip task's outcome: its sample (`None` when every attempt came out
/// empty) and its share of the stats.
type ClipResult = Result<(Option<Sample>, GenerationStats)>;

/// Re-centres a golden window at the image centre and reports the original
/// bounding-box centre (the CNN's regression target).
fn center_golden(golden: &Tensor) -> Result<(Tensor, (f32, f32))> {
    let dims = golden.dims();
    let (h, w) = (dims[0], dims[1]);
    let data = golden.as_slice();
    let mut bb: Option<(usize, usize, usize, usize)> = None;
    for y in 0..h {
        for x in 0..w {
            if data[y * w + x] >= 0.5 {
                bb = Some(match bb {
                    None => (y, x, y, x),
                    Some((y0, x0, y1, x1)) => (y0.min(y), x0.min(x), y1.max(y), x1.max(x)),
                });
            }
        }
    }
    let (y0, x0, y1, x1) = bb.expect("caller guarantees non-empty golden");
    let cy = (y0 + y1) as f32 / 2.0;
    let cx = (x0 + x1) as f32 / 2.0;
    let mid = ((h as f32 - 1.0) / 2.0, (w as f32 - 1.0) / 2.0);
    // Sub-half-pixel offsets shift by zero so centering is idempotent
    // (a bbox of even pixel extent can never land exactly on the
    // half-pixel image mid).
    let quant = |d: f32| if d.abs() <= 0.5 { 0 } else { d.round() as isize };
    let dy = quant(mid.0 - cy);
    let dx = quant(mid.1 - cx);
    let nchw = golden.reshape(&[1, 1, h, w])?;
    let centered = litho_tensor::ops::shift2d(&nchw, dy, dx, 0.0)?.reshape(&[h, w])?;
    Ok((centered, (cy, cx)))
}

/// Generates a dataset according to `config`.
///
/// Each clip is one task on the shared worker pool, so generation runs
/// `pool::effective_threads()` clips at a time (`--threads`,
/// `LITHO_THREADS`), all reading one set of engines; the FFTs inside a
/// clip then run inline on its task's thread. Every clip draws from its
/// own per-(clip, attempt) random stream, so the dataset is deterministic
/// in `config.seed` regardless of the thread count.
///
/// # Errors
///
/// Propagates simulator construction/simulation errors.
pub fn generate(config: &DatasetConfig) -> Result<(Dataset, GenerationStats)> {
    let _span = litho_telemetry::span("dataset/generate");
    let worker = Worker::new(config)?;
    let threads = pool::effective_threads().min(config.clip_count.max(1));
    let mut results: Vec<ClipResult> = (0..config.clip_count)
        .map(|_| Ok((None, GenerationStats::default())))
        .collect();
    pool::parallel_for_chunks(&mut results, 1, |i, slot| {
        let mut stats = GenerationStats::default();
        let sample = worker.generate_sample(config, i, &mut stats);
        if let Ok(sample) = &sample {
            let counter = match sample {
                Some(_) => "dataset.clips_generated",
                None => "dataset.clips_failed",
            };
            litho_telemetry::counter_add(counter, 1);
        }
        slot[0] = sample.map(|s| (s, stats));
    });

    let mut stats = GenerationStats {
        requested: config.clip_count,
        ..GenerationStats::default()
    };
    let mut samples = Vec::with_capacity(config.clip_count);
    for r in results {
        let (sample, s) = r?;
        stats.empty_golden_retries += s.empty_golden_retries;
        stats.opc_unconverged += s.opc_unconverged;
        samples.extend(sample);
    }
    stats.generated = samples.len();
    if litho_telemetry::is_enabled() {
        use litho_telemetry::Value;
        litho_telemetry::counter_add("dataset.empty_golden_retries", stats.empty_golden_retries as u64);
        litho_telemetry::counter_add("dataset.opc_unconverged", stats.opc_unconverged as u64);
        litho_telemetry::event(
            "dataset_generated",
            &[
                ("requested", Value::U64(stats.requested as u64)),
                ("generated", Value::U64(stats.generated as u64)),
                ("empty_golden_retries", Value::U64(stats.empty_golden_retries as u64)),
                ("opc_unconverged", Value::U64(stats.opc_unconverged as u64)),
                ("threads", Value::U64(threads as u64)),
            ],
        );
    }
    Ok((
        Dataset {
            config: config.clone(),
            samples,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use litho_sim::ProcessConfig;

    fn tiny_config() -> DatasetConfig {
        let mut c = DatasetConfig::scaled(ProcessConfig::n10(), 6, 32);
        c.sim_grid = 128;
        c
    }

    #[test]
    fn generates_requested_count_with_all_families() {
        let (ds, stats) = generate(&tiny_config()).unwrap();
        assert_eq!(stats.requested, 6);
        assert_eq!(ds.len(), stats.generated);
        assert!(ds.len() >= 5, "generated {}", ds.len());
        let families: std::collections::HashSet<_> =
            ds.samples.iter().map(|s| s.family).collect();
        assert_eq!(families.len(), 3);
    }

    #[test]
    fn samples_are_well_formed() {
        let (ds, _) = generate(&tiny_config()).unwrap();
        for s in &ds.samples {
            assert_eq!(s.mask.dims(), &[3, 32, 32]);
            assert_eq!(s.golden.dims(), &[32, 32]);
            assert_eq!(s.golden_centered.dims(), &[32, 32]);
            // Non-empty golden patterns with the same area after centering.
            assert!(s.golden.sum() > 0.0);
            assert!((s.golden.sum() - s.golden_centered.sum()).abs() < 1e-3);
            // Center within the window.
            assert!(s.center_px.0 >= 0.0 && s.center_px.0 < 32.0);
            assert!(s.center_px.1 >= 0.0 && s.center_px.1 < 32.0);
            // Mask has a green (target) channel with content.
            let green: f32 = s.mask.as_slice()[32 * 32..2 * 32 * 32].iter().sum();
            assert!(green > 0.0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (a, _) = generate(&tiny_config()).unwrap();
        let (b, _) = generate(&tiny_config()).unwrap();
        assert_eq!(a.samples.len(), b.samples.len());
        for (sa, sb) in a.samples.iter().zip(&b.samples) {
            assert_eq!(sa.mask, sb.mask);
            assert_eq!(sa.golden, sb.golden);
            assert_eq!(sa.center_px, sb.center_px);
        }
    }

    #[test]
    fn golden_centered_is_centered() {
        let (ds, _) = generate(&tiny_config()).unwrap();
        for s in &ds.samples {
            let (centered, c) = super::center_golden(&s.golden_centered).unwrap();
            // Re-centering a centered image is (nearly) a no-op.
            assert_eq!(centered, s.golden_centered);
            assert!((c.0 - 15.5).abs() <= 1.0, "cy {}", c.0);
            assert!((c.1 - 15.5).abs() <= 1.0, "cx {}", c.1);
        }
    }
}
