use litho_tensor::fft::{fft2_in_place, FftDirection};
use litho_tensor::{Complex, Result, TensorError};

use crate::kernels::{build_kernels, OpticalKernel};
use crate::{AerialImage, MaskGrid, ProcessConfig};

/// A partially coherent optical imaging model at a fixed defocus.
///
/// Holds the pre-transformed SOCS kernel spectra for a fixed grid
/// geometry, so imaging a mask costs one forward FFT of the mask plus one
/// inverse FFT per kernel. Several models on one grid (a focus stack) can
/// share the mask's forward transform: [`crate::RigorousSim`] transforms
/// each mask once and images that spectrum through every model. The
/// kernels run in order and the weighted intensity folds in kernel order,
/// so the image is bit-identical at any thread count (a large grid's
/// transforms split over the worker pool, see `litho_tensor::fft`).
///
/// The kernel count defaults to the process's *compact* rank; the rigorous
/// facade ([`crate::RigorousSim`]) requests the higher rank explicitly.
#[derive(Debug, Clone)]
pub struct OpticalModel {
    size: usize,
    pitch_nm: f64,
    defocus_nm: f64,
    /// Frequency-domain kernels (precomputed FFTs) and their weights.
    spectra: Vec<(f64, Vec<Complex>)>,
}

impl OpticalModel {
    /// Builds a best-focus model with the process's compact kernel rank.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::FftLengthNotPowerOfTwo`] if `size` is not a
    /// power of two and [`TensorError::InvalidArgument`] for a non-positive
    /// pitch.
    pub fn new(process: &ProcessConfig, size: usize, pitch_nm: f64) -> Result<Self> {
        OpticalModel::with_settings(process, size, pitch_nm, 0.0, process.compact_kernel_count)
    }

    /// Builds a model at an explicit defocus and kernel rank.
    ///
    /// # Errors
    ///
    /// Same conditions as [`OpticalModel::new`].
    pub fn with_settings(
        process: &ProcessConfig,
        size: usize,
        pitch_nm: f64,
        defocus_nm: f64,
        kernel_count: usize,
    ) -> Result<Self> {
        if !size.is_power_of_two() {
            return Err(TensorError::FftLengthNotPowerOfTwo(size));
        }
        if pitch_nm <= 0.0 {
            return Err(TensorError::InvalidArgument(
                "pitch must be positive".into(),
            ));
        }
        if kernel_count == 0 {
            return Err(TensorError::InvalidArgument(
                "kernel count must be positive".into(),
            ));
        }
        let kernels = build_kernels(process, size, pitch_nm, defocus_nm, kernel_count);
        let spectra = kernels
            .into_iter()
            .map(|k: OpticalKernel| {
                let mut spec = k.samples;
                fft2_in_place(&mut spec, size, size, FftDirection::Forward)
                    .expect("size validated as power of two");
                (k.weight, spec)
            })
            .collect();
        Ok(OpticalModel {
            size,
            pitch_nm,
            defocus_nm,
            spectra,
        })
    }

    /// Grid extent in pixels per side.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Physical pitch in nm per pixel.
    pub fn pitch_nm(&self) -> f64 {
        self.pitch_nm
    }

    /// Defocus of this model in nm.
    pub fn defocus_nm(&self) -> f64 {
        self.defocus_nm
    }

    /// Number of coherent systems in the SOCS expansion.
    pub fn kernel_count(&self) -> usize {
        self.spectra.len()
    }

    /// Computes the aerial image of a mask: `I = Σ_j w_j |m ⊛ k_j|²`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the mask geometry differs
    /// from the model's grid.
    pub fn aerial_image(&self, mask: &MaskGrid) -> Result<AerialImage> {
        self.check_grid(mask)?;
        self.image_spectrum(&mask_spectrum(mask)?)
    }

    /// Rejects a mask whose grid is not this model's.
    pub(crate) fn check_grid(&self, mask: &MaskGrid) -> Result<()> {
        if mask.size() != self.size || (mask.pitch_nm() - self.pitch_nm).abs() > 1e-12 {
            return Err(TensorError::ShapeMismatch {
                left: vec![mask.size(), mask.size()],
                right: vec![self.size, self.size],
            });
        }
        Ok(())
    }

    /// The imaging step shared by every model on a grid: one inverse FFT
    /// of `spectrum ⊙ k_j` per kernel, folded into the intensity in kernel
    /// order, `((0 + w_0·|a_0|²) + w_1·|a_1|²) + …`.
    pub(crate) fn image_spectrum(&self, spectrum: &[Complex]) -> Result<AerialImage> {
        let n = self.size;
        let mut field = Vec::with_capacity(n * n);
        let mut intensity = vec![0.0f64; n * n];
        for (weight, spec) in &self.spectra {
            field.clear();
            field.extend(spectrum.iter().zip(spec).map(|(&m, &k)| m * k));
            fft2_in_place(&mut field, n, n, FftDirection::Inverse)?;
            for (acc, a) in intensity.iter_mut().zip(&field) {
                *acc += weight * a.norm_sqr();
            }
        }
        AerialImage::from_raw(intensity, n, self.pitch_nm)
    }
}

/// The forward FFT of a mask lifted to complex: the spectrum every model
/// on the mask's grid images.
pub(crate) fn mask_spectrum(mask: &MaskGrid) -> Result<Vec<Complex>> {
    let n = mask.size();
    let mut spectrum: Vec<Complex> = mask
        .as_slice()
        .iter()
        .map(|&v| Complex::new(v, 0.0))
        .collect();
    fft2_in_place(&mut spectrum, n, n, FftDirection::Forward)?;
    Ok(spectrum)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contact_mask(size: usize, pitch: f64, contact_nm: f64) -> MaskGrid {
        let mut g = MaskGrid::new(size, pitch);
        let c = size as f64 * pitch / 2.0;
        let h = contact_nm / 2.0;
        g.fill_rect_nm(c - h, c - h, c + h, c + h, 1.0);
        g
    }

    #[test]
    fn rejects_bad_geometry() {
        let p = ProcessConfig::n10();
        assert!(OpticalModel::new(&p, 100, 4.0).is_err()); // not a power of 2
        assert!(OpticalModel::new(&p, 64, -1.0).is_err());
        assert!(OpticalModel::with_settings(&p, 64, 4.0, 0.0, 0).is_err());
        let model = OpticalModel::new(&p, 64, 4.0).unwrap();
        assert!(model.aerial_image(&MaskGrid::new(32, 4.0)).is_err());
    }

    #[test]
    fn clear_field_images_to_unit_intensity() {
        let p = ProcessConfig::n10();
        let model = OpticalModel::new(&p, 64, 8.0).unwrap();
        let mut mask = MaskGrid::new(64, 8.0);
        mask.as_mut_slice().fill(1.0);
        let img = model.aerial_image(&mask).unwrap();
        for &v in img.as_slice() {
            assert!((v - 1.0).abs() < 1e-6, "clear field intensity {v}");
        }
    }

    #[test]
    fn dark_field_images_to_zero() {
        let p = ProcessConfig::n10();
        let model = OpticalModel::new(&p, 64, 8.0).unwrap();
        let img = model.aerial_image(&MaskGrid::new(64, 8.0)).unwrap();
        assert!(img.max_intensity() < 1e-12);
    }

    #[test]
    fn contact_peak_is_centered_and_subunity() {
        let p = ProcessConfig::n10();
        let model = OpticalModel::new(&p, 128, 8.0).unwrap();
        let mask = contact_mask(128, 8.0, 60.0);
        let img = model.aerial_image(&mask).unwrap();
        // A 60nm contact is well below the diffraction limit (~87nm), so
        // its image peaks below clear-field intensity.
        let peak = img.max_intensity();
        assert!(peak > 0.01 && peak < 1.0, "peak {peak}");
        // Peak location at the grid center (within a pixel).
        let mut best = (0usize, 0usize);
        let mut best_v = f64::MIN;
        for y in 0..128 {
            for x in 0..128 {
                if img.at(y, x) > best_v {
                    best_v = img.at(y, x);
                    best = (y, x);
                }
            }
        }
        assert!(best.0.abs_diff(64) <= 1 && best.1.abs_diff(64) <= 1, "{best:?}");
    }

    #[test]
    fn bigger_contact_prints_brighter() {
        let p = ProcessConfig::n10();
        let model = OpticalModel::new(&p, 128, 8.0).unwrap();
        let small = model
            .aerial_image(&contact_mask(128, 8.0, 48.0))
            .unwrap()
            .max_intensity();
        let large = model
            .aerial_image(&contact_mask(128, 8.0, 80.0))
            .unwrap()
            .max_intensity();
        assert!(large > small);
    }

    #[test]
    fn neighboring_contact_adds_proximity_flare() {
        let p = ProcessConfig::n10();
        let model = OpticalModel::new(&p, 128, 8.0).unwrap();
        let isolated = model.aerial_image(&contact_mask(128, 8.0, 60.0)).unwrap();
        let mut dense = contact_mask(128, 8.0, 60.0);
        // Neighbor at minimum pitch to the right.
        let c = 128.0 * 8.0 / 2.0;
        let h = 30.0;
        dense.fill_rect_nm(c + 120.0 - h, c - h, c + 120.0 + h, c + h, 1.0);
        let dense_img = model.aerial_image(&dense).unwrap();
        // Intensity at the center contact increases due to the neighbor.
        assert!(dense_img.at(64, 64) > isolated.at(64, 64));
    }

    #[test]
    fn defocus_reduces_peak_intensity() {
        let p = ProcessConfig::n10();
        let mask = contact_mask(128, 8.0, 60.0);
        let focus = OpticalModel::with_settings(&p, 128, 8.0, 0.0, 4).unwrap();
        let defocus = OpticalModel::with_settings(&p, 128, 8.0, 60.0, 4).unwrap();
        let i_focus = focus.aerial_image(&mask).unwrap().max_intensity();
        let i_defocus = defocus.aerial_image(&mask).unwrap().max_intensity();
        assert!(i_defocus < i_focus);
    }
}
