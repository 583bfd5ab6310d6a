//! A minimal PPM image writer for experiment visualisations (Figure 6
//! and Figure 8 reproductions), dependency-free.

use std::io::Write;
use std::path::Path;

use litho_tensor::{Result, Tensor, TensorError};

fn io_err(err: std::io::Error) -> TensorError {
    TensorError::InvalidArgument(format!("image i/o: {err}"))
}

fn to_byte(v: f32) -> u8 {
    (v.clamp(0.0, 1.0) * 255.0).round() as u8
}

/// Writes a `[3, h, w]` tensor (values in `[0, 1]`) as a binary PPM file.
///
/// # Errors
///
/// Returns an error if the tensor is not rank 3 with 3 channels, or on
/// I/O failure.
pub fn write_ppm<P: AsRef<Path>>(image: &Tensor, path: P) -> Result<()> {
    let dims = image.dims();
    if dims.len() != 3 || dims[0] != 3 {
        return Err(TensorError::InvalidArgument(format!(
            "expected [3, h, w] image, got {dims:?}"
        )));
    }
    let (h, w) = (dims[1], dims[2]);
    let mut out = Vec::with_capacity(h * w * 3 + 32);
    out.extend_from_slice(format!("P6\n{w} {h}\n255\n").as_bytes());
    let data = image.as_slice();
    let plane = h * w;
    for i in 0..plane {
        out.push(to_byte(data[i]));
        out.push(to_byte(data[plane + i]));
        out.push(to_byte(data[2 * plane + i]));
    }
    let mut file = std::fs::File::create(path).map_err(io_err)?;
    file.write_all(&out).map_err(io_err)
}

/// Composites a monochrome prediction over a golden outline for Figure-6
/// style panels: prediction filled green, golden contour pixels drawn
/// black, prediction boundary drawn red (paper Figure 6 caption).
///
/// `prediction` and `golden` are `[h, w]` maps in `[0, 1]`; class
/// threshold 0.5.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ or inputs
/// are not rank 2.
pub fn overlay_panel(prediction: &Tensor, golden: &Tensor) -> Result<Tensor> {
    if prediction.dims() != golden.dims() || prediction.dims().len() != 2 {
        return Err(TensorError::ShapeMismatch {
            left: prediction.dims().to_vec(),
            right: golden.dims().to_vec(),
        });
    }
    let (h, w) = (prediction.dims()[0], prediction.dims()[1]);
    let mut out = Tensor::ones(&[3, h, w]);
    let pred = prediction.as_slice();
    let gold = golden.as_slice();
    let is_boundary = |data: &[f32], y: usize, x: usize| -> bool {
        if data[y * w + x] < 0.5 {
            return false;
        }
        let mut edge = false;
        for (dy, dx) in [(-1isize, 0isize), (1, 0), (0, -1), (0, 1)] {
            let (ny, nx) = (y as isize + dy, x as isize + dx);
            if ny < 0
                || nx < 0
                || ny >= h as isize
                || nx >= w as isize
                || data[ny as usize * w + nx as usize] < 0.5
            {
                edge = true;
            }
        }
        edge
    };
    let plane = h * w;
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            let (mut r, mut g, mut b) = (1.0, 1.0, 1.0);
            if pred[i] >= 0.5 {
                // Filled prediction: green.
                r = 0.55;
                g = 0.9;
                b = 0.55;
            }
            if is_boundary(pred, y, x) {
                // Prediction outline: red.
                r = 0.9;
                g = 0.1;
                b = 0.1;
            }
            if is_boundary(gold, y, x) {
                // Golden outline: black (drawn on top).
                r = 0.0;
                g = 0.0;
                b = 0.0;
            }
            let d = out.as_mut_slice();
            d[i] = r;
            d[plane + i] = g;
            d[2 * plane + i] = b;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppm_round_trip_header() {
        let img = Tensor::full(&[3, 2, 4], 0.5);
        let dir = std::env::temp_dir().join("lithogan_test_ppm");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ppm");
        write_ppm(&img, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"P6\n4 2\n255\n"));
        assert_eq!(bytes.len(), 11 + 2 * 4 * 3);
        assert_eq!(bytes[11], 128);
    }

    #[test]
    fn ppm_rejects_bad_shapes() {
        let dir = std::env::temp_dir();
        assert!(write_ppm(&Tensor::zeros(&[1, 4, 4]), dir.join("x.ppm")).is_err());
        assert!(write_ppm(&Tensor::zeros(&[4, 4]), dir.join("x.ppm")).is_err());
    }

    #[test]
    fn overlay_marks_fill_and_outlines() {
        let mut pred = Tensor::zeros(&[8, 8]);
        let mut gold = Tensor::zeros(&[8, 8]);
        for y in 2..6 {
            for x in 2..6 {
                pred.set(&[y, x], 1.0).unwrap();
                gold.set(&[y, x + 1], 1.0).unwrap();
            }
        }
        let panel = overlay_panel(&pred, &gold).unwrap();
        assert_eq!(panel.dims(), &[3, 8, 8]);
        // Interior of prediction (and not on the golden outline): greenish.
        assert!(panel.at(&[1, 3, 4]).unwrap() > panel.at(&[0, 3, 4]).unwrap());
        // Golden boundary pixel: black.
        assert_eq!(panel.at(&[0, 2, 3]).unwrap(), 0.0);
        // Background: white.
        assert_eq!(panel.at(&[0, 0, 0]).unwrap(), 1.0);
    }

    #[test]
    fn overlay_validates_shapes() {
        assert!(overlay_panel(&Tensor::zeros(&[4, 4]), &Tensor::zeros(&[5, 5])).is_err());
    }
}
