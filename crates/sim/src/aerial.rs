use litho_tensor::{Result, TensorError};

/// An aerial image: normalised intensity on the simulation grid
/// (1 ≈ clear field).
#[derive(Debug, Clone, PartialEq)]
pub struct AerialImage {
    size: usize,
    pitch_nm: f64,
    intensity: Vec<f64>,
}

impl AerialImage {
    /// Wraps raw intensity samples.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `intensity.len()` is not
    /// `size * size`.
    pub fn from_raw(intensity: Vec<f64>, size: usize, pitch_nm: f64) -> Result<Self> {
        if intensity.len() != size * size {
            return Err(TensorError::LengthMismatch {
                expected: size * size,
                actual: intensity.len(),
            });
        }
        Ok(AerialImage {
            size,
            pitch_nm,
            intensity,
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

    /// Intensity samples, row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.intensity
    }

    /// Intensity at pixel `(y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn at(&self, y: usize, x: usize) -> f64 {
        self.intensity[y * self.size + x]
    }

    /// Peak intensity.
    pub fn max_intensity(&self) -> f64 {
        self.intensity.iter().copied().fold(f64::MIN, f64::max)
    }

    /// Minimum intensity.
    pub fn min_intensity(&self) -> f64 {
        self.intensity.iter().copied().fold(f64::MAX, f64::min)
    }

    /// Averages a stack of same-geometry aerial images (focus averaging in
    /// the rigorous simulator), summing them in order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the stack is empty or
    /// geometries disagree.
    pub fn average<'a>(stack: impl IntoIterator<Item = &'a AerialImage>) -> Result<AerialImage> {
        let mut stack = stack.into_iter();
        let first = stack.next().ok_or_else(|| {
            TensorError::InvalidArgument("cannot average an empty focus stack".into())
        })?;
        let mut out = vec![0.0f64; first.intensity.len()];
        let mut n = 0usize;
        for img in std::iter::once(first).chain(stack) {
            if img.size != first.size || (img.pitch_nm - first.pitch_nm).abs() > 1e-12 {
                return Err(TensorError::InvalidArgument(
                    "aerial image geometries disagree".into(),
                ));
            }
            for (o, &v) in out.iter_mut().zip(&img.intensity) {
                *o += v;
            }
            n += 1;
        }
        let n = n as f64;
        for o in &mut out {
            *o /= n;
        }
        AerialImage::from_raw(out, first.size, first.pitch_nm)
    }
}

/// The whole-image filters that [`crate::ResistModel::excess_field`] fuses
/// into one pass, one stage at a time: its test oracle.
#[cfg(test)]
pub(crate) mod reference {
    use super::AerialImage;

    /// Gradient magnitude at `(y, x)` by central differences, clamped
    /// at the border.
    pub fn slope_at(img: &AerialImage, y: usize, x: usize) -> f64 {
        let s = img.size();
        let xm = x.saturating_sub(1);
        let xp = (x + 1).min(s - 1);
        let ym = y.saturating_sub(1);
        let yp = (y + 1).min(s - 1);
        let dx = (img.at(y, xp) - img.at(y, xm)) / ((xp - xm).max(1) as f64 * img.pitch_nm());
        let dy = (img.at(yp, x) - img.at(ym, x)) / ((yp - ym).max(1) as f64 * img.pitch_nm());
        (dx * dx + dy * dy).sqrt()
    }

    /// Maximum over a square window of half-width `window_px`.
    pub fn envelope(img: &AerialImage, window_px: usize) -> Vec<f64> {
        let s = img.size();
        let mut horiz = vec![0.0f64; s * s];
        for y in 0..s {
            for x in 0..s {
                let x0 = x.saturating_sub(window_px);
                let x1 = (x + window_px + 1).min(s);
                let mut best = f64::MIN;
                for xi in x0..x1 {
                    best = best.max(img.at(y, xi));
                }
                horiz[y * s + x] = best;
            }
        }
        let mut out = vec![0.0f64; s * s];
        for y in 0..s {
            let y0 = y.saturating_sub(window_px);
            let y1 = (y + window_px + 1).min(s);
            for x in 0..s {
                let mut best = f64::MIN;
                for yi in y0..y1 {
                    best = best.max(horiz[yi * s + x]);
                }
                out[y * s + x] = best;
            }
        }
        out
    }

    /// Separable Gaussian blur of length `sigma_nm`.
    pub fn blurred(img: &AerialImage, sigma_nm: f64) -> AerialImage {
        let sigma_px = sigma_nm / img.pitch_nm();
        if sigma_px < 1e-6 {
            return img.clone();
        }
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
        let s = img.size();
        let mut horiz = vec![0.0f64; s * s];
        for y in 0..s {
            for x in 0..s {
                let mut acc = 0.0;
                for (i, &k) in kernel.iter().enumerate() {
                    let xi = (x as isize + i as isize - radius as isize).clamp(0, s as isize - 1)
                        as usize;
                    acc += k * img.at(y, xi);
                }
                horiz[y * s + x] = acc;
            }
        }
        let mut out = vec![0.0f64; s * s];
        for y in 0..s {
            for x in 0..s {
                let mut acc = 0.0;
                for (i, &k) in kernel.iter().enumerate() {
                    let yi = (y as isize + i as isize - radius as isize).clamp(0, s as isize - 1)
                        as usize;
                    acc += k * horiz[yi * s + x];
                }
                out[y * s + x] = acc;
            }
        }
        AerialImage::from_raw(out, s, img.pitch_nm()).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::reference::*;
    use super::*;

    fn delta_image(size: usize) -> AerialImage {
        let mut data = vec![0.0; size * size];
        data[size / 2 * size + size / 2] = 1.0;
        AerialImage::from_raw(data, size, 4.0).unwrap()
    }

    #[test]
    fn from_raw_validates_length() {
        assert!(AerialImage::from_raw(vec![0.0; 5], 2, 1.0).is_err());
        assert!(AerialImage::from_raw(vec![0.0; 4], 2, 1.0).is_ok());
    }

    #[test]
    fn blur_preserves_total_intensity() {
        let img = delta_image(32);
        let blurred = blurred(&img, 8.0);
        let total: f64 = blurred.as_slice().iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        // Peak spreads out.
        assert!(blurred.max_intensity() < 1.0);
        assert!(blurred.at(16, 17) > 0.0);
    }

    #[test]
    fn blur_zero_sigma_is_identity() {
        let img = delta_image(16);
        assert_eq!(blurred(&img, 0.0), img);
    }

    #[test]
    fn envelope_is_local_max() {
        let img = delta_image(16);
        let env = envelope(&img, 2);
        // Within 2 pixels of the delta, envelope = 1.
        assert_eq!(env[8 * 16 + 8], 1.0);
        assert_eq!(env[6 * 16 + 8], 1.0);
        assert_eq!(env[3 * 16 + 8], 0.0);
    }

    #[test]
    fn slope_of_linear_ramp() {
        let size = 16;
        let pitch = 2.0;
        let data: Vec<f64> = (0..size * size)
            .map(|i| (i % size) as f64 * 0.1)
            .collect();
        let img = AerialImage::from_raw(data, size, pitch).unwrap();
        // dI/dx = 0.1 per pixel = 0.05 per nm.
        assert!((slope_at(&img, 8, 8) - 0.05).abs() < 1e-9);
    }

    #[test]
    fn average_requires_matching_geometry() {
        let a = delta_image(8);
        let b = delta_image(16);
        assert!(AerialImage::average(&[a.clone(), b]).is_err());
        assert!(AerialImage::average(&[]).is_err());
        let avg = AerialImage::average(&[a.clone(), a.clone()]).unwrap();
        assert_eq!(avg, a);
    }
}
