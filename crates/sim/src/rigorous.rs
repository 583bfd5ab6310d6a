use std::time::{Duration, Instant};

use litho_tensor::{pool, Result};

use crate::optical::mask_spectrum;
use crate::{AerialImage, Contour, MaskGrid, OpticalModel, ProcessConfig, ResistModel, ResistPattern};

/// Timing and intermediate results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Wall-clock time of the optical stage.
    pub optical_time: Duration,
    /// Wall-clock time of the resist + contour stage.
    pub resist_time: Duration,
    /// The (focus-averaged) aerial image.
    pub aerial: AerialImage,
    /// The development excess field of `aerial`
    /// ([`ResistModel::excess_field`]): the pattern prints where it is
    /// non-negative, and the contours are its zero level set.
    pub excess: Vec<f64>,
    /// Extracted resist contours of the full grid.
    pub contours: Vec<Contour>,
}

impl SimReport {
    /// Total simulation wall-clock time.
    pub fn total_time(&self) -> Duration {
        self.optical_time + self.resist_time
    }
}

/// The "golden" lithography simulator.
///
/// Substitutes for the rigorous simulation of the paper (Synopsys
/// Sentaurus): images the mask through a focus stack at the process's
/// *rigorous* SOCS rank, averages the stack (process-window imaging),
/// develops with the VTR resist model, and extracts contours. This is
/// deliberately the most expensive path in the repository — Table 4's
/// runtime hierarchy (rigorous ≫ threshold-CNN flow ≫ LithoGAN) emerges
/// from genuinely different compute, not artificial sleeps.
#[derive(Debug)]
pub struct RigorousSim {
    process: ProcessConfig,
    resist: ResistModel,
    models: Vec<OpticalModel>,
}

impl RigorousSim {
    /// Builds the simulator for a process on a `size × size` grid with
    /// physical `pitch_nm` per pixel.
    ///
    /// # Errors
    ///
    /// Propagates optical-model construction errors (non-power-of-two
    /// grid, bad pitch).
    pub fn new(process: &ProcessConfig, size: usize, pitch_nm: f64) -> Result<Self> {
        // The focus planes' models are independent, so they build in
        // parallel (their kernel transforms then run inline).
        let stack = &process.focus_stack_nm;
        let mut models: Vec<Option<Result<OpticalModel>>> = stack.iter().map(|_| None).collect();
        pool::parallel_for_chunks(&mut models, 1, |k, slot| {
            slot[0] = Some(OpticalModel::with_settings(
                process,
                size,
                pitch_nm,
                stack[k],
                process.rigorous_kernel_count,
            ));
        });
        let models = models
            .into_iter()
            .map(|m| m.expect("every focus plane's task fills its slot"))
            .collect::<Result<Vec<_>>>()?;
        Ok(RigorousSim {
            process: process.clone(),
            resist: ResistModel::new(process.resist),
            models,
        })
    }

    /// The process configuration.
    pub fn process(&self) -> &ProcessConfig {
        &self.process
    }

    /// Runs the full rigorous flow on a mask and returns the golden resist
    /// pattern plus a timing report.
    ///
    /// # Errors
    ///
    /// Returns an error if the mask geometry does not match the simulator
    /// grid.
    pub fn simulate(&self, mask: &MaskGrid) -> Result<(ResistPattern, SimReport)> {
        let sim_span = litho_telemetry::span("sim");

        let t0 = Instant::now();
        let span = litho_telemetry::span("optical");
        // One forward transform of the mask, imaged through every focus
        // model of the stack.
        for m in &self.models {
            m.check_grid(mask)?;
        }
        let spectrum = mask_spectrum(mask)?;
        let stack: Vec<AerialImage> = self
            .models
            .iter()
            .map(|m| m.image_spectrum(&spectrum))
            .collect::<Result<Vec<_>>>()?;
        drop(span);
        let span = litho_telemetry::span("aerial");
        let aerial = AerialImage::average(&stack)?;
        drop(span);
        let optical_time = t0.elapsed();

        let t1 = Instant::now();
        let span = litho_telemetry::span("resist");
        let excess = self.resist.excess_field(&aerial);
        let pattern = ResistPattern::from_excess(&excess, aerial.size(), aerial.pitch_nm());
        drop(span);
        // Contour processing: the zero level set of the development excess
        // field, mirroring the paper's "threshold + extrapolation" stage.
        let span = litho_telemetry::span("contour");
        let contours =
            crate::contour::extract_contours(&excess, aerial.size(), aerial.pitch_nm(), 0.0)?;
        drop(span);
        let resist_time = t1.elapsed();

        drop(sim_span);
        litho_telemetry::counter_add("sim.runs", 1);

        Ok((
            pattern,
            SimReport {
                optical_time,
                resist_time,
                aerial,
                excess,
                contours,
            },
        ))
    }

    /// The golden resist pattern of the *center contact* only: simulate,
    /// then isolate the printed component nearest the clip centre
    /// (the paper adopts only the center contact of each clip per
    /// simulation).
    ///
    /// # Errors
    ///
    /// Returns an error if the mask geometry does not match the simulator.
    pub fn golden_center_pattern(&self, mask: &MaskGrid) -> Result<Option<ResistPattern>> {
        let (pattern, _) = self.simulate(mask)?;
        Ok(pattern.center_component())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn center_contact_mask(size: usize, pitch: f64, contact_nm: f64) -> MaskGrid {
        let mut g = MaskGrid::new(size, pitch);
        let c = size as f64 * pitch / 2.0;
        let h = contact_nm / 2.0;
        g.fill_rect_nm(c - h, c - h, c + h, c + h, 1.0);
        g
    }

    #[test]
    fn simulate_produces_centered_golden_pattern() {
        let p = ProcessConfig::n10();
        let sim = RigorousSim::new(&p, 128, 8.0).unwrap();
        let mask = center_contact_mask(128, 8.0, 96.0);
        let golden = sim.golden_center_pattern(&mask).unwrap().unwrap();
        let (cy, cx) = golden.center_nm().unwrap();
        let mid = 128.0 * 8.0 / 2.0;
        assert!((cy - mid).abs() < 20.0 && (cx - mid).abs() < 20.0);
    }

    #[test]
    fn report_contains_contours_and_timing() {
        let p = ProcessConfig::n10();
        let sim = RigorousSim::new(&p, 128, 8.0).unwrap();
        let mask = center_contact_mask(128, 8.0, 96.0);
        let (_, report) = sim.simulate(&mask).unwrap();
        assert!(!report.contours.is_empty());
        assert!(report.total_time() >= report.optical_time);
    }

    #[test]
    fn rigorous_is_slower_than_compact() {
        let p = ProcessConfig::n10();
        let sim = RigorousSim::new(&p, 128, 8.0).unwrap();
        let compact = OpticalModel::new(&p, 128, 8.0).unwrap();
        let mask = center_contact_mask(128, 8.0, 96.0);
        // Warm up, then time.
        let (_, report) = sim.simulate(&mask).unwrap();
        let t = Instant::now();
        compact.aerial_image(&mask).unwrap();
        let compact_time = t.elapsed();
        assert!(
            report.optical_time > compact_time,
            "rigorous {:?} vs compact {:?}",
            report.optical_time,
            compact_time
        );
    }

    #[test]
    fn shared_spectrum_images_like_each_focus_model() {
        let p = ProcessConfig::n10();
        let sim = RigorousSim::new(&p, 64, 16.0).unwrap();
        let mut mask = center_contact_mask(64, 16.0, 96.0);
        mask.fill_rect_nm(300.0, 500.0, 380.0, 580.0, 1.0);
        let (_, report) = sim.simulate(&mask).unwrap();
        let stack: Vec<AerialImage> = sim
            .models
            .iter()
            .map(|m| m.aerial_image(&mask).unwrap())
            .collect();
        let want = AerialImage::average(&stack).unwrap();
        let bits = |img: &AerialImage| {
            img.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&report.aerial), bits(&want));
    }

    #[test]
    fn report_excess_is_the_aerial_excess_field() {
        let p = ProcessConfig::n7();
        let sim = RigorousSim::new(&p, 64, 16.0).unwrap();
        let (pattern, report) = sim.simulate(&center_contact_mask(64, 16.0, 96.0)).unwrap();
        let want = ResistModel::new(p.resist).excess_field(&report.aerial);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&report.excess), bits(&want));
        assert_eq!(pattern, ResistModel::new(p.resist).develop(&report.aerial));
    }

    #[test]
    fn simulate_rejects_a_mask_on_another_grid() {
        let p = ProcessConfig::n10();
        let sim = RigorousSim::new(&p, 64, 16.0).unwrap();
        assert!(sim.simulate(&MaskGrid::new(32, 16.0)).is_err());
        assert!(sim.simulate(&MaskGrid::new(64, 8.0)).is_err());
    }

    #[test]
    fn empty_mask_yields_no_center_pattern() {
        let p = ProcessConfig::n10();
        let sim = RigorousSim::new(&p, 64, 8.0).unwrap();
        let mask = MaskGrid::new(64, 8.0);
        assert!(sim.golden_center_pattern(&mask).unwrap().is_none());
    }
}
