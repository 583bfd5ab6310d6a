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
    pub fn component_at(&self, y: usize, x: usize) -> ResistPattern {
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

    /// Crops a `window_px` square centred at physical `(cy_nm, cx_nm)`,
    /// clamping the window inside the grid.
    pub fn crop_window(&self, cy_nm: f64, cx_nm: f64, window_px: usize) -> ResistPattern {
        let window_px = window_px.min(self.size);
        let cy = (cy_nm / self.pitch_nm).round() as isize;
        let cx = (cx_nm / self.pitch_nm).round() as isize;
        let max0 = (self.size - window_px) as isize;
        let y0 = (cy - window_px as isize / 2).clamp(0, max0) as usize;
        let x0 = (cx - window_px as isize / 2).clamp(0, max0) as usize;
        let mut printed = vec![false; window_px * window_px];
        for y in 0..window_px {
            for x in 0..window_px {
                printed[y * window_px + x] = self.printed[(y0 + y) * self.size + (x0 + x)];
            }
        }
        ResistPattern {
            size: window_px,
            pitch_nm: self.pitch_nm,
            printed,
        }
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

    /// Computes the locally varying development threshold field.
    pub fn threshold_field(&self, aerial: &AerialImage) -> Vec<f64> {
        let s = aerial.size();
        let window_px =
            ((self.params.env_window_nm / aerial.pitch_nm()).round() as usize).max(1);
        let env = aerial.envelope(window_px);
        let mut t = vec![0.0f64; s * s];
        for y in 0..s {
            for x in 0..s {
                t[y * s + x] = self.params.base_threshold
                    + self.params.env_coeff * env[y * s + x]
                    + self.params.slope_coeff * aerial.slope_at(y, x);
            }
        }
        t
    }

    /// The development *excess* field `I_diffused - T`: positive where the
    /// resist prints. The zero level set of this field is the resist
    /// contour, and the dataset pipeline upsamples it for sub-pixel-
    /// accurate golden windows.
    pub fn excess_field(&self, aerial: &AerialImage) -> Vec<f64> {
        let diffused = aerial.blurred(self.params.diffusion_nm);
        let threshold = self.threshold_field(&diffused);
        diffused
            .as_slice()
            .iter()
            .zip(&threshold)
            .map(|(&i, &t)| i - t)
            .collect()
    }

    /// Develops an aerial image into a binary resist pattern: diffuse,
    /// threshold, print.
    pub fn develop(&self, aerial: &AerialImage) -> ResistPattern {
        ResistPattern::from_excess(&self.excess_field(aerial), aerial.size(), aerial.pitch_nm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MaskGrid, OpticalModel, ProcessConfig};

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

    #[test]
    fn crop_window_is_clamped() {
        let mut printed = vec![false; 64];
        printed[0] = true;
        let p = ResistPattern::from_raw(printed, 8, 1.0).unwrap();
        let crop = p.crop_window(0.0, 0.0, 4);
        assert_eq!(crop.size(), 4);
        assert!(crop.at(0, 0));
    }

    #[test]
    fn threshold_field_rises_near_bright_features() {
        let p = ProcessConfig::n10();
        let model = OpticalModel::new(&p, 64, 8.0).unwrap();
        let mut mask = MaskGrid::new(64, 8.0);
        mask.fill_rect_nm(220.0, 220.0, 292.0, 292.0, 1.0);
        let aerial = model.aerial_image(&mask).unwrap();
        let resist = ResistModel::new(p.resist);
        let t = resist.threshold_field(&aerial);
        // Threshold near the feature exceeds the dark-corner threshold.
        assert!(t[32 * 64 + 32] > t[4 * 64 + 4]);
        assert!((t[4 * 64 + 4] - p.resist.base_threshold).abs() < 1e-6);
    }
}
