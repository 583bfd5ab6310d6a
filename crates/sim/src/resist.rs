use litho_tensor::{Result, TensorError};

use crate::{AerialImage, ResistParams};

/// A developed resist pattern: a binary print map on the simulation grid.
///
/// `true` pixels are printed (the contact hole opens in positive resist).
#[derive(Debug, Clone, PartialEq)]
pub struct ResistPattern {
    size: usize,
    pitch_nm: f64,
    printed: Vec<bool>,
}

impl ResistPattern {
    /// Wraps a raw print map.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `printed.len()` is not
    /// `size * size`.
    pub fn from_raw(printed: Vec<bool>, size: usize, pitch_nm: f64) -> Result<Self> {
        if printed.len() != size * size {
            return Err(TensorError::LengthMismatch {
                expected: size * size,
                actual: printed.len(),
            });
        }
        Ok(ResistPattern {
            size,
            pitch_nm,
            printed,
        })
    }

    /// The pattern that prints where a development excess field
    /// ([`ResistModel::excess_field`]) is non-negative.
    pub(crate) fn from_excess(excess: &[f64], size: usize, pitch_nm: f64) -> Self {
        ResistPattern {
            size,
            pitch_nm,
            printed: excess.iter().map(|&e| e >= 0.0).collect(),
        }
    }

    /// Grid extent in pixels per side.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Physical pitch in nm per pixel.
    pub fn pitch_nm(&self) -> f64 {
        self.pitch_nm
    }

    /// The raw print map, row-major.
    pub fn as_slice(&self) -> &[bool] {
        &self.printed
    }

    /// Whether pixel `(y, x)` printed.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn at(&self, y: usize, x: usize) -> bool {
        self.printed[y * self.size + x]
    }

    /// Printed area in nm².
    pub fn printed_area_nm2(&self) -> f64 {
        self.printed.iter().filter(|&&b| b).count() as f64 * self.pitch_nm * self.pitch_nm
    }

    /// The 4-connected printed component containing pixel `(y, x)`, as a
    /// new pattern with all other components erased. Returns an all-false
    /// pattern if `(y, x)` did not print.
    fn component_at(&self, y: usize, x: usize) -> ResistPattern {
        let mut out = vec![false; self.size * self.size];
        if y >= self.size || x >= self.size || !self.at(y, x) {
            return ResistPattern {
                size: self.size,
                pitch_nm: self.pitch_nm,
                printed: out,
            };
        }
        let mut stack = vec![(y, x)];
        out[y * self.size + x] = true;
        while let Some((cy, cx)) = stack.pop() {
            let push = |ny: usize, nx: usize, out: &mut Vec<bool>, stack: &mut Vec<(usize, usize)>| {
                let idx = ny * self.size + nx;
                if self.printed[idx] && !out[idx] {
                    out[idx] = true;
                    stack.push((ny, nx));
                }
            };
            if cy > 0 {
                push(cy - 1, cx, &mut out, &mut stack);
            }
            if cy + 1 < self.size {
                push(cy + 1, cx, &mut out, &mut stack);
            }
            if cx > 0 {
                push(cy, cx - 1, &mut out, &mut stack);
            }
            if cx + 1 < self.size {
                push(cy, cx + 1, &mut out, &mut stack);
            }
        }
        ResistPattern {
            size: self.size,
            pitch_nm: self.pitch_nm,
            printed: out,
        }
    }

    /// The printed component nearest to the grid centre: the component
    /// containing the centre pixel if it printed, otherwise the component
    /// of the printed pixel closest to the centre. `None` if nothing
    /// printed.
    pub fn center_component(&self) -> Option<ResistPattern> {
        let c = self.size / 2;
        if self.at(c, c) {
            return Some(self.component_at(c, c));
        }
        let mut best: Option<(usize, usize)> = None;
        let mut best_d = usize::MAX;
        for y in 0..self.size {
            for x in 0..self.size {
                if self.printed[y * self.size + x] {
                    let d = y.abs_diff(c).pow(2) + x.abs_diff(c).pow(2);
                    if d < best_d {
                        best_d = d;
                        best = Some((y, x));
                    }
                }
            }
        }
        best.map(|(y, x)| self.component_at(y, x))
    }

    /// Bounding box `(y_min, x_min, y_max, x_max)` in pixels (inclusive) of
    /// all printed pixels, or `None` if nothing printed.
    pub fn bounding_box(&self) -> Option<(usize, usize, usize, usize)> {
        let mut bb: Option<(usize, usize, usize, usize)> = None;
        for y in 0..self.size {
            for x in 0..self.size {
                if self.printed[y * self.size + x] {
                    bb = Some(match bb {
                        None => (y, x, y, x),
                        Some((y0, x0, y1, x1)) => (y0.min(y), x0.min(x), y1.max(y), x1.max(x)),
                    });
                }
            }
        }
        bb
    }

    /// Centre of the bounding box in physical nm, or `None` if nothing
    /// printed.
    pub fn center_nm(&self) -> Option<(f64, f64)> {
        self.bounding_box().map(|(y0, x0, y1, x1)| {
            (
                (y0 + y1 + 1) as f64 / 2.0 * self.pitch_nm,
                (x0 + x1 + 1) as f64 / 2.0 * self.pitch_nm,
            )
        })
    }

    /// Critical dimension in nm: the printed width along the horizontal
    /// line through the bounding-box centre.
    pub fn cd_horizontal_nm(&self) -> Option<f64> {
        let (y0, _, y1, _) = self.bounding_box()?;
        let row = (y0 + y1) / 2;
        let count = (0..self.size).filter(|&x| self.at(row, x)).count();
        Some(count as f64 * self.pitch_nm)
    }
}

/// The variable-threshold resist model.
///
/// Development proceeds where the diffused aerial intensity exceeds a
/// locally varying threshold
/// `T = base + env_coeff · I_env + slope_coeff · |∇I|`
/// (paper reference \[9\]: Randall et al., "Variable-threshold resist
/// models for lithography simulation").
#[derive(Debug, Clone, PartialEq)]
pub struct ResistModel {
    params: ResistParams,
}

impl ResistModel {
    /// Creates a resist model from calibration constants.
    pub fn new(params: ResistParams) -> Self {
        ResistModel { params }
    }

    /// The calibration constants.
    pub fn params(&self) -> &ResistParams {
        &self.params
    }

    /// The development *excess* field `I_diffused - T`: positive where the
    /// resist prints. The zero level set of this field is the resist
    /// contour, and the dataset pipeline upsamples it for sub-pixel-
    /// accurate golden windows.
    ///
    /// One pass develops the image:
    /// - acid diffusion blurs the aerial image with a separable Gaussian
    ///   of length `diffusion_nm`, taps clamped at the border;
    /// - the envelope `I_env` is the maximum of the diffused image over a
    ///   square window of half-width `env_window_nm` (separable);
    /// - the slope `|∇I|` is the central-difference gradient magnitude of
    ///   the diffused image (one-sided at the border).
    ///
    /// Each filter runs its tap loop outside a loop over pixels, so the
    /// pixel loop vectorises while every pixel folds its taps in order.
    pub fn excess_field(&self, aerial: &AerialImage) -> Vec<f64> {
        let p = &self.params;
        let s = aerial.size();
        let pitch = aerial.pitch_nm();
        if s == 0 {
            return Vec::new();
        }

        // Acid diffusion.
        let sigma_px = p.diffusion_nm / pitch;
        let mut scratch = vec![0.0f64; s * s];
        let diffused = if sigma_px < 1e-6 {
            aerial.as_slice().to_vec()
        } else {
            let radius = (sigma_px * 3.0).ceil() as usize;
            let mut kernel = Vec::with_capacity(2 * radius + 1);
            let mut norm = 0.0;
            for i in 0..=2 * radius {
                let d = i as f64 - radius as f64;
                let v = (-(d * d) / (2.0 * sigma_px * sigma_px)).exp();
                kernel.push(v);
                norm += v;
            }
            for v in &mut kernel {
                *v /= norm;
            }
            for (src, dst) in aerial
                .as_slice()
                .chunks_exact(s)
                .zip(scratch.chunks_exact_mut(s))
            {
                blur_row(src, dst, &kernel);
            }
            let mut out = vec![0.0f64; s * s];
            for (y, dst) in out.chunks_exact_mut(s).enumerate() {
                for (i, &k) in kernel.iter().enumerate() {
                    let yi = (y + i).saturating_sub(radius).min(s - 1);
                    for (o, &v) in dst.iter_mut().zip(&scratch[yi * s..(yi + 1) * s]) {
                        *o += k * v;
                    }
                }
            }
            out
        };

        // Envelope, horizontal half into `scratch`.
        let window = ((p.env_window_nm / pitch).round() as usize).max(1);
        for (src, dst) in diffused.chunks_exact(s).zip(scratch.chunks_exact_mut(s)) {
            max_row(src, dst, window);
        }

        let row = |y: usize| &diffused[y * s..(y + 1) * s];
        let mut env = vec![f64::MIN; s];
        let mut excess = vec![0.0f64; s * s];
        for (y, out) in excess.chunks_exact_mut(s).enumerate() {
            // Envelope, vertical half.
            env.fill(f64::MIN);
            for yi in y.saturating_sub(window)..(y + window + 1).min(s) {
                for (e, &v) in env.iter_mut().zip(&scratch[yi * s..(yi + 1) * s]) {
                    *e = e.max(v);
                }
            }
            let (ym, yp) = (y.saturating_sub(1), (y + 1).min(s - 1));
            let (up, mid, down) = (row(ym), row(y), row(yp));
            let dy_den = (yp - ym).max(1) as f64 * pitch;
            let develop = |x: usize, dx: f64| {
                let dy = (down[x] - up[x]) / dy_den;
                let slope = (dx * dx + dy * dy).sqrt();
                mid[x] - (p.base_threshold + p.env_coeff * env[x] + p.slope_coeff * slope)
            };
            // Border columns take one-sided differences.
            for x in [0, s - 1] {
                let (xm, xp) = (x.saturating_sub(1), (x + 1).min(s - 1));
                out[x] = develop(x, (mid[xp] - mid[xm]) / ((xp - xm).max(1) as f64 * pitch));
            }
            let dx_den = 2.0 * pitch;
            for x in 1..s.saturating_sub(1) {
                out[x] = develop(x, (mid[x + 1] - mid[x - 1]) / dx_den);
            }
        }
        excess
    }

    /// Develops an aerial image into a binary resist pattern: diffuse,
    /// threshold, print.
    pub fn develop(&self, aerial: &AerialImage) -> ResistPattern {
        ResistPattern::from_excess(&self.excess_field(aerial), aerial.size(), aerial.pitch_nm())
    }
}

/// One row of the separable Gaussian blur: `dst[x] = Σ_i k_i · src[x + i - r]`
/// with the taps folded in order from `0.0` and indices clamped at the
/// border.
fn blur_row(src: &[f64], dst: &mut [f64], kernel: &[f64]) {
    let s = src.len();
    let radius = kernel.len() / 2;
    for x in (0..s).filter(|&x| x < radius || x + radius >= s) {
        let mut acc = 0.0;
        for (i, &k) in kernel.iter().enumerate() {
            acc += k * src[(x + i).saturating_sub(radius).min(s - 1)];
        }
        dst[x] = acc;
    }
    if s > 2 * radius {
        let inner = &mut dst[radius..s - radius];
        inner.fill(0.0);
        for (i, &k) in kernel.iter().enumerate() {
            for (o, &v) in inner.iter_mut().zip(&src[i..]) {
                *o += k * v;
            }
        }
    }
}

/// One row of the separable max filter: `dst[x]` is the maximum of `src`
/// over `[x - w, x + w]` clipped to the row, folded in order from
/// `f64::MIN`.
fn max_row(src: &[f64], dst: &mut [f64], w: usize) {
    let s = src.len();
    for x in (0..s).filter(|&x| x < w || x + w >= s) {
        let mut best = f64::MIN;
        for &v in &src[x.saturating_sub(w)..(x + w + 1).min(s)] {
            best = best.max(v);
        }
        dst[x] = best;
    }
    if s > 2 * w {
        let inner = &mut dst[w..s - w];
        inner.fill(f64::MIN);
        for j in 0..=2 * w {
            for (o, &v) in inner.iter_mut().zip(&src[j..]) {
                *o = o.max(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aerial::reference;
    use crate::{MaskGrid, OpticalModel, ProcessConfig, ResistParams};

    fn develop_contact(contact_nm: f64) -> ResistPattern {
        let p = ProcessConfig::n10();
        let model = OpticalModel::new(&p, 128, 8.0).unwrap();
        let mut mask = MaskGrid::new(128, 8.0);
        let c = 128.0 * 8.0 / 2.0;
        let h = contact_nm / 2.0;
        mask.fill_rect_nm(c - h, c - h, c + h, c + h, 1.0);
        let aerial = model.aerial_image(&mask).unwrap();
        ResistModel::new(p.resist).develop(&aerial)
    }

    #[test]
    fn from_raw_validates_length() {
        assert!(ResistPattern::from_raw(vec![false; 3], 2, 1.0).is_err());
    }

    #[test]
    fn large_contact_prints_centered() {
        let pattern = develop_contact(90.0);
        assert!(pattern.printed_area_nm2() > 0.0, "nothing printed");
        let (cy, cx) = pattern.center_nm().unwrap();
        let mid = 128.0 * 8.0 / 2.0;
        assert!((cy - mid).abs() < 16.0, "cy {cy}");
        assert!((cx - mid).abs() < 16.0, "cx {cx}");
    }

    #[test]
    fn printed_cd_grows_with_mask_size() {
        let small = develop_contact(70.0).printed_area_nm2();
        let large = develop_contact(100.0).printed_area_nm2();
        assert!(large > small, "small {small}, large {large}");
    }

    #[test]
    fn component_extraction_separates_islands() {
        let mut printed = vec![false; 64];
        // Two 2x2 islands.
        for (y, x) in [(1, 1), (1, 2), (2, 1), (2, 2), (5, 5), (5, 6), (6, 5), (6, 6)] {
            printed[y * 8 + x] = true;
        }
        let p = ResistPattern::from_raw(printed, 8, 1.0).unwrap();
        let island = p.component_at(1, 1);
        assert_eq!(island.printed_area_nm2(), 4.0);
        assert!(!island.at(5, 5));
        // Component at an unprinted pixel is empty.
        assert_eq!(p.component_at(0, 0).printed_area_nm2(), 0.0);
    }

    #[test]
    fn center_component_prefers_central_island() {
        let mut printed = vec![false; 16 * 16];
        printed[8 * 16 + 8] = true; // center
        printed[16 + 1] = true; // far corner
        let p = ResistPattern::from_raw(printed, 16, 1.0).unwrap();
        let c = p.center_component().unwrap();
        assert!(c.at(8, 8));
        assert!(!c.at(1, 1));
    }

    #[test]
    fn bounding_box_and_cd() {
        let mut printed = vec![false; 64];
        for y in 2..5 {
            for x in 1..7 {
                printed[y * 8 + x] = true;
            }
        }
        let p = ResistPattern::from_raw(printed, 8, 2.0).unwrap();
        assert_eq!(p.bounding_box(), Some((2, 1, 4, 6)));
        assert_eq!(p.cd_horizontal_nm(), Some(12.0));
        assert_eq!(p.center_nm(), Some((7.0, 8.0)));
    }

    #[test]
    fn empty_pattern_has_no_box() {
        let p = ResistPattern::from_raw(vec![false; 16], 4, 1.0).unwrap();
        assert_eq!(p.bounding_box(), None);
        assert_eq!(p.center_component(), None);
        assert_eq!(p.cd_horizontal_nm(), None);
    }

    /// `T = base + env_coeff · I_env + slope_coeff · |∇I|` per pixel, from
    /// the whole-image envelope and the per-pixel slope.
    fn reference_threshold_field(params: &ResistParams, img: &AerialImage) -> Vec<f64> {
        let s = img.size();
        let window_px = ((params.env_window_nm / img.pitch_nm()).round() as usize).max(1);
        let env = reference::envelope(img, window_px);
        let mut t = vec![0.0f64; s * s];
        for y in 0..s {
            for x in 0..s {
                t[y * s + x] = params.base_threshold
                    + params.env_coeff * env[y * s + x]
                    + params.slope_coeff * reference::slope_at(img, y, x);
            }
        }
        t
    }

    /// The development chain that [`ResistModel::excess_field`] fuses, one
    /// whole-image stage at a time: blur, then the threshold of the
    /// blurred image.
    fn reference_excess_field(params: &ResistParams, img: &AerialImage) -> Vec<f64> {
        let diffused = reference::blurred(img, params.diffusion_nm);
        let threshold = reference_threshold_field(params, &diffused);
        diffused
            .as_slice()
            .iter()
            .zip(&threshold)
            .map(|(&i, &t)| i - t)
            .collect()
    }

    #[test]
    fn threshold_field_rises_near_bright_features() {
        let p = ProcessConfig::n10();
        let model = OpticalModel::new(&p, 64, 8.0).unwrap();
        let mut mask = MaskGrid::new(64, 8.0);
        mask.fill_rect_nm(220.0, 220.0, 292.0, 292.0, 1.0);
        let aerial = model.aerial_image(&mask).unwrap();
        let t = reference_threshold_field(&p.resist, &aerial);
        // Threshold near the feature exceeds the dark-corner threshold.
        assert!(t[32 * 64 + 32] > t[4 * 64 + 4]);
        assert!((t[4 * 64 + 4] - p.resist.base_threshold).abs() < 1e-6);
    }

    fn assert_fused_matches_reference(params: &ResistParams, img: &AerialImage, what: &str) {
        let got = ResistModel::new(*params).excess_field(img);
        let want = reference_excess_field(params, img);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(bits(&got) == bits(&want), "{what}");
    }

    #[test]
    fn fused_development_matches_the_staged_chain_on_aerial_images() {
        for p in [ProcessConfig::n10(), ProcessConfig::n7()] {
            for (size, pitch) in [(16, 8.0), (64, 8.0), (64, 16.0), (256, 8.0)] {
                for &d in &p.focus_stack_nm {
                    let model = OpticalModel::with_settings(&p, size, pitch, d, 4).unwrap();
                    let mut mask = MaskGrid::new(size, pitch);
                    let c = size as f64 * pitch / 2.0;
                    mask.fill_rect_nm(c - 40.0, c - 30.0, c + 40.0, c + 30.0, 1.0);
                    mask.fill_rect_nm(c + 60.0, c - 30.0, c + 120.0, c + 30.0, 1.0);
                    let aerial = model.aerial_image(&mask).unwrap();
                    let what = format!("{} {size} {pitch} {d}", p.name);
                    assert_fused_matches_reference(&p.resist, &aerial, &what);
                }
            }
        }
    }

    #[test]
    fn fused_development_matches_the_staged_chain_on_random_images() {
        use litho_tensor::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xDE7E_0001);
        let mut params = ProcessConfig::n10().resist;
        for size in [0, 1, 2, 3, 5, 16, 64, 256] {
            for pitch in [2.0, 8.0, 16.0] {
                // Coarse levels make the max filter see many ties.
                let levels = rng.gen_range(2u32..6) as f64;
                let data = (0..size * size)
                    .map(|_| (rng.gen_range(0.0f64..1.0) * levels).floor() / levels)
                    .collect();
                let img = AerialImage::from_raw(data, size, pitch).unwrap();
                for diffusion_nm in [0.0, 5.0, 10.0, 40.0] {
                    params.diffusion_nm = diffusion_nm;
                    let what = format!("{size} {pitch} {diffusion_nm}");
                    assert_fused_matches_reference(&params, &img, &what);
                }
            }
        }
    }
}
