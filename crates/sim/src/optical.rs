use litho_tensor::fft::{fft2_in_place, FftDirection};
use litho_tensor::{active_level, pool, with_level, Complex, Result, TensorError};

use crate::kernels::{build_kernels, OpticalKernel};
use crate::{AerialImage, MaskGrid, ProcessConfig};

/// A partially coherent optical imaging model at a fixed defocus.
///
/// Holds the pre-transformed SOCS kernel spectra for a fixed grid
/// geometry, so imaging a mask costs one forward FFT of the mask plus one
/// inverse FFT per kernel spectrum. Several models on one grid (a focus
/// stack) can share the mask's forward transform: [`crate::RigorousSim`]
/// transforms each mask once and images that spectrum through every
/// model. The spectra run in order and the weighted intensity folds in
/// kernel order, so the image is bit-identical at any thread count (a
/// large grid's transforms split over the worker pool, see
/// `litho_tensor::fft`).
///
/// When every kernel is real in space (best focus, where the defocus
/// phase vanishes) the kernels are paired: consecutive kernels `k_j` and
/// `k_{j+1}` share one spectrum, the transform of `k_j + i·k_{j+1}`. The
/// fields of a real mask through them are real too, so one inverse
/// transform yields both, `a_j + i·a_{j+1}`, and a best-focus model costs
/// half the inverse transforms and half the spectrum memory. An odd last
/// kernel keeps a spectrum of its own, as does every kernel of a
/// defocused (complex) model.
///
/// The kernel count defaults to the process's *compact* rank; the rigorous
/// facade ([`crate::RigorousSim`]) requests the higher rank explicitly.
#[derive(Debug, Clone)]
pub struct OpticalModel {
    size: usize,
    pitch_nm: f64,
    defocus_nm: f64,
    /// Frequency-domain kernels (precomputed FFTs), one per inverse
    /// transform, in kernel order.
    spectra: Vec<KernelSpectrum>,
}

/// The spectrum of one kernel `k_j`, or of a real pair `k_j + i·k_{j+1}`,
/// with the kernels' eigenvalue weights.
#[derive(Debug, Clone)]
struct KernelSpectrum {
    weight: f64,
    /// `w_{j+1}` when the spectrum carries a real pair.
    pair_weight: Option<f64>,
    samples: Vec<Complex>,
}

impl KernelSpectrum {
    fn single(kernel: OpticalKernel) -> Self {
        KernelSpectrum {
            weight: kernel.weight,
            pair_weight: None,
            samples: kernel.samples,
        }
    }

    /// Packs two real kernels into one complex kernel `k_j + i·k_{j+1}`.
    fn pair(first: OpticalKernel, second: OpticalKernel) -> Self {
        let mut samples = first.samples;
        for (s, k) in samples.iter_mut().zip(&second.samples) {
            s.im = k.re;
        }
        KernelSpectrum {
            weight: first.weight,
            pair_weight: Some(second.weight),
            samples,
        }
    }
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
        // Pairing is exact only for real kernels: the FFT is linear, so the
        // pair's spectrum is `K_j + i·K_{j+1}`, and a real mask's fields
        // through real kernels come back as the real and imaginary parts.
        let real = kernels
            .iter()
            .all(|k| k.samples.iter().all(|c| c.im == 0.0));
        let mut spectra = Vec::with_capacity(kernels.len());
        let mut kernels = kernels.into_iter();
        while let Some(first) = kernels.next() {
            let second = if real { kernels.next() } else { None };
            spectra.push(match second {
                Some(second) => KernelSpectrum::pair(first, second),
                None => KernelSpectrum::single(first),
            });
        }
        // The spectra transform independently, one pool task each, at the
        // caller's kernel level (a `with_level` override is per thread).
        let level = active_level();
        pool::parallel_for_chunks(&mut spectra, 1, |_, slot| {
            with_level(level, || {
                fft2_in_place(&mut slot[0].samples, size, size, FftDirection::Forward)
            })
            .expect("size validated as power of two");
        });
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
        self.spectra
            .iter()
            .map(|s| 1 + usize::from(s.pair_weight.is_some()))
            .sum()
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
    /// of `spectrum ⊙ K` per kernel spectrum, folded into the intensity in
    /// kernel order, `((0 + w_0·|a_0|²) + w_1·|a_1|²) + …`. A paired
    /// spectrum's field is `a_j + i·a_{j+1}`, and it folds as
    /// `acc += w_j·re²; acc += w_{j+1}·im²`.
    pub(crate) fn image_spectrum(&self, spectrum: &[Complex]) -> Result<AerialImage> {
        let n = self.size;
        let mut field = Vec::with_capacity(n * n);
        let mut intensity = vec![0.0f64; n * n];
        for kernel in &self.spectra {
            field.clear();
            field.extend(spectrum.iter().zip(&kernel.samples).map(|(&m, &k)| m * k));
            fft2_in_place(&mut field, n, n, FftDirection::Inverse)?;
            let weight = kernel.weight;
            match kernel.pair_weight {
                None => {
                    for (acc, a) in intensity.iter_mut().zip(&field) {
                        *acc += weight * a.norm_sqr();
                    }
                }
                Some(pair_weight) => {
                    for (acc, a) in intensity.iter_mut().zip(&field) {
                        *acc += weight * (a.re * a.re);
                        *acc += pair_weight * (a.im * a.im);
                    }
                }
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

    /// The kernels at `-d` are the exact conjugates of those at `d`, so a
    /// real mask images alike through both up to the transforms' rounding.
    /// The bound is in clear-field units (a clear mask images to 1): the
    /// images differ by a few ulps per pixel, which for a dim feature is
    /// more than 1e-15 of its own peak.
    #[test]
    fn opposite_defocus_models_image_a_real_mask_alike() {
        for p in [ProcessConfig::n10(), ProcessConfig::n7()] {
            let mut mask = contact_mask(256, 8.0, 60.0);
            mask.fill_rect_nm(1100.0, 980.0, 1160.0, 1040.0, 1.0);
            mask.fill_rect_nm(900.0, 1150.0, 940.0, 1250.0, 0.7);
            for &d in &p.focus_stack_nm {
                let model = |d| OpticalModel::with_settings(&p, 256, 8.0, d, 10).unwrap();
                let plus = model(d).aerial_image(&mask).unwrap();
                let minus = model(-d).aerial_image(&mask).unwrap();
                for (a, b) in plus.as_slice().iter().zip(minus.as_slice()) {
                    assert!((a - b).abs() <= 1e-15, "{} {d}: {a} vs {b}", p.name);
                }
            }
        }
    }

    /// The per-kernel imaging every model did before pairing: one
    /// spectrum and one inverse transform per kernel, folded
    /// `acc += w_j·|a_j|²` in kernel order.
    fn reference_image(
        p: &ProcessConfig,
        mask: &MaskGrid,
        defocus_nm: f64,
        count: usize,
    ) -> AerialImage {
        let n = mask.size();
        let spectrum = mask_spectrum(mask).unwrap();
        let mut intensity = vec![0.0f64; n * n];
        for k in build_kernels(p, n, mask.pitch_nm(), defocus_nm, count) {
            let mut spec = k.samples;
            fft2_in_place(&mut spec, n, n, FftDirection::Forward).unwrap();
            let mut field: Vec<Complex> =
                spectrum.iter().zip(&spec).map(|(&m, &s)| m * s).collect();
            fft2_in_place(&mut field, n, n, FftDirection::Inverse).unwrap();
            for (acc, a) in intensity.iter_mut().zip(&field) {
                *acc += k.weight * a.norm_sqr();
            }
        }
        AerialImage::from_raw(intensity, n, mask.pitch_nm()).unwrap()
    }

    /// A 2048 nm clip on a `size` grid: a centre contact, an off-centre
    /// neighbour and a grey bar, so no image is symmetric.
    fn clip_mask(size: usize) -> MaskGrid {
        let mut mask = contact_mask(size, 2048.0 / size as f64, 60.0);
        mask.fill_rect_nm(1100.0, 980.0, 1160.0, 1040.0, 1.0);
        mask.fill_rect_nm(900.0, 1150.0, 940.0, 1250.0, 0.7);
        mask
    }

    /// Pairing changes only the rounding: a best-focus model images like
    /// the per-kernel reference within 1e-15 in clear-field units (the
    /// tier of `opposite_defocus_models_image_a_real_mask_alike`), with an
    /// odd last kernel left alone.
    #[test]
    fn paired_model_images_like_per_kernel_reference() {
        use litho_tensor::KernelLevel;
        for p in [ProcessConfig::n10(), ProcessConfig::n7()] {
            for size in [64, 256] {
                let mask = clip_mask(size);
                for count in [4, 5, 10] {
                    for level in [KernelLevel::Scalar, KernelLevel::Avx2] {
                        with_level(level, || {
                            let model =
                                OpticalModel::with_settings(&p, size, mask.pitch_nm(), 0.0, count)
                                    .unwrap();
                            assert_eq!(model.kernel_count(), count);
                            assert_eq!(model.spectra.len(), count.div_ceil(2));
                            let got = model.aerial_image(&mask).unwrap();
                            let want = reference_image(&p, &mask, 0.0, count);
                            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                                assert!(
                                    (a - b).abs() <= 1e-15,
                                    "{} {size}px {count}k {level:?}: {a} vs {b}",
                                    p.name
                                );
                            }
                        });
                    }
                }
            }
        }
    }

    /// Defocused kernels are complex, so their models keep one spectrum
    /// per kernel and image bit for bit like the reference.
    #[test]
    fn defocused_model_is_not_paired() {
        use litho_tensor::KernelLevel;
        let bits = |img: &AerialImage| {
            img.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        for p in [ProcessConfig::n10(), ProcessConfig::n7()] {
            let mask = clip_mask(64);
            for &d in p.focus_stack_nm.iter().filter(|d| **d != 0.0) {
                for level in [KernelLevel::Scalar, KernelLevel::Avx2] {
                    with_level(level, || {
                        let model =
                            OpticalModel::with_settings(&p, 64, mask.pitch_nm(), d, 5).unwrap();
                        assert_eq!(model.kernel_count(), 5);
                        assert_eq!(model.spectra.len(), 5);
                        assert_eq!(
                            bits(&model.aerial_image(&mask).unwrap()),
                            bits(&reference_image(&p, &mask, d, 5)),
                            "{} {d} {level:?}",
                            p.name
                        );
                    });
                }
            }
        }
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
