//! Spatial tensor helpers shared by the simulator and the dataset pipeline:
//! padding, cropping, integer shifting, flips and bilinear resize.
//!
//! All functions operate on NCHW tensors and return new tensors.

use crate::{Result, Tensor, TensorError};

/// Zero-pads an NCHW tensor by `pad` pixels on every spatial side.
///
/// # Errors
///
/// Returns an error if `input` is not rank 4.
pub fn pad2d(input: &Tensor, pad: usize) -> Result<Tensor> {
    let [n, c, h, w] = input.shape().as_nchw()?;
    let (nh, nw) = (h + 2 * pad, w + 2 * pad);
    let mut out = Tensor::zeros(&[n, c, nh, nw]);
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    for plane in 0..n * c {
        for y in 0..h {
            let src_off = plane * h * w + y * w;
            let dst_off = plane * nh * nw + (y + pad) * nw + pad;
            dst[dst_off..dst_off + w].copy_from_slice(&src[src_off..src_off + w]);
        }
    }
    Ok(out)
}

/// Crops an NCHW tensor to `out_h x out_w` starting at `(top, left)`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if the crop window exceeds the
/// input bounds, or a rank error for non-4-D input.
pub fn crop2d(input: &Tensor, top: usize, left: usize, out_h: usize, out_w: usize) -> Result<Tensor> {
    let [n, c, h, w] = input.shape().as_nchw()?;
    if top + out_h > h || left + out_w > w {
        return Err(TensorError::InvalidArgument(format!(
            "crop {out_h}x{out_w}@({top},{left}) exceeds input {h}x{w}"
        )));
    }
    let mut out = Tensor::zeros(&[n, c, out_h, out_w]);
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    for plane in 0..n * c {
        for y in 0..out_h {
            let src_off = plane * h * w + (y + top) * w + left;
            let dst_off = plane * out_h * out_w + y * out_w;
            dst[dst_off..dst_off + out_w].copy_from_slice(&src[src_off..src_off + out_w]);
        }
    }
    Ok(out)
}

/// Shifts an NCHW tensor by integer pixels, filling vacated pixels with
/// `fill`. Positive `dy` moves content down, positive `dx` moves it right.
///
/// This is the "re-center the resist shape at the CNN-predicted center"
/// adjustment at the heart of LithoGAN.
///
/// # Errors
///
/// Returns an error if `input` is not rank 4.
pub fn shift2d(input: &Tensor, dy: isize, dx: isize, fill: f32) -> Result<Tensor> {
    let [n, c, h, w] = input.shape().as_nchw()?;
    let mut out = Tensor::full(&[n, c, h, w], fill);
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    for plane in 0..n * c {
        for y in 0..h {
            let sy = y as isize - dy;
            if sy < 0 || sy >= h as isize {
                continue;
            }
            for x in 0..w {
                let sx = x as isize - dx;
                if sx < 0 || sx >= w as isize {
                    continue;
                }
                dst[plane * h * w + y * w + x] = src[plane * h * w + sy as usize * w + sx as usize];
            }
        }
    }
    Ok(out)
}

/// Horizontally flips an NCHW tensor (used for data augmentation).
///
/// # Errors
///
/// Returns an error if `input` is not rank 4.
pub fn flip_horizontal(input: &Tensor) -> Result<Tensor> {
    let [n, c, h, w] = input.shape().as_nchw()?;
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    for plane in 0..n * c {
        for y in 0..h {
            for x in 0..w {
                dst[plane * h * w + y * w + x] = src[plane * h * w + y * w + (w - 1 - x)];
            }
        }
    }
    Ok(out)
}

/// Vertically flips an NCHW tensor.
///
/// # Errors
///
/// Returns an error if `input` is not rank 4.
pub fn flip_vertical(input: &Tensor) -> Result<Tensor> {
    let [n, c, h, w] = input.shape().as_nchw()?;
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    for plane in 0..n * c {
        for y in 0..h {
            let src_off = plane * h * w + (h - 1 - y) * w;
            let dst_off = plane * h * w + y * w;
            dst[dst_off..dst_off + w].copy_from_slice(&src[src_off..src_off + w]);
        }
    }
    Ok(out)
}

/// Bilinearly resizes an NCHW tensor to `out_h x out_w`.
///
/// Used by the dataset pipeline to scale the 128×128 nm golden resist
/// window to the 256×256-pixel network resolution (paper §3.1), and to
/// build reduced-resolution experiment configs.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for a zero output size, or a
/// rank error for non-4-D input.
pub fn resize_bilinear(input: &Tensor, out_h: usize, out_w: usize) -> Result<Tensor> {
    let [n, c, h, w] = input.shape().as_nchw()?;
    if out_h == 0 || out_w == 0 {
        return Err(TensorError::InvalidArgument(
            "resize target must be nonzero".into(),
        ));
    }
    let mut out = Tensor::zeros(&[n, c, out_h, out_w]);
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    let scale_y = h as f32 / out_h as f32;
    let scale_x = w as f32 / out_w as f32;
    for plane in 0..n * c {
        let src_plane = plane * h * w;
        let dst_plane = plane * out_h * out_w;
        for oy in 0..out_h {
            // Align pixel centers (the +0.5/-0.5 convention).
            let fy = ((oy as f32 + 0.5) * scale_y - 0.5).clamp(0.0, (h - 1) as f32);
            let y0 = fy.floor() as usize;
            let y1 = (y0 + 1).min(h - 1);
            let ty = fy - y0 as f32;
            for ox in 0..out_w {
                let fx = ((ox as f32 + 0.5) * scale_x - 0.5).clamp(0.0, (w - 1) as f32);
                let x0 = fx.floor() as usize;
                let x1 = (x0 + 1).min(w - 1);
                let tx = fx - x0 as f32;
                let v00 = src[src_plane + y0 * w + x0];
                let v01 = src[src_plane + y0 * w + x1];
                let v10 = src[src_plane + y1 * w + x0];
                let v11 = src[src_plane + y1 * w + x1];
                let top = v00 + (v01 - v00) * tx;
                let bot = v10 + (v11 - v10) * tx;
                dst[dst_plane + oy * out_w + ox] = top + (bot - top) * ty;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|v| v as f32).collect(), dims).unwrap()
    }

    #[test]
    fn pad_then_crop_round_trip() {
        let t = seq(&[1, 2, 3, 4]);
        let padded = pad2d(&t, 2).unwrap();
        assert_eq!(padded.dims(), &[1, 2, 7, 8]);
        let back = crop2d(&padded, 2, 2, 3, 4).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn pad_border_is_zero() {
        let t = Tensor::ones(&[1, 1, 2, 2]);
        let padded = pad2d(&t, 1).unwrap();
        assert_eq!(padded.at(&[0, 0, 0, 0]).unwrap(), 0.0);
        assert_eq!(padded.at(&[0, 0, 1, 1]).unwrap(), 1.0);
        assert_eq!(padded.sum(), 4.0);
    }

    #[test]
    fn crop_bounds_checked() {
        let t = Tensor::zeros(&[1, 1, 4, 4]);
        assert!(crop2d(&t, 2, 2, 3, 3).is_err());
        assert!(crop2d(&t, 0, 0, 4, 4).is_ok());
    }

    #[test]
    fn shift_moves_content() {
        let mut t = Tensor::zeros(&[1, 1, 3, 3]);
        t.set(&[0, 0, 1, 1], 5.0).unwrap();
        let shifted = shift2d(&t, 1, -1, 0.0).unwrap();
        assert_eq!(shifted.at(&[0, 0, 2, 0]).unwrap(), 5.0);
        assert_eq!(shifted.sum(), 5.0);
    }

    #[test]
    fn shift_out_of_frame_fills() {
        let t = Tensor::ones(&[1, 1, 2, 2]);
        let shifted = shift2d(&t, 2, 0, -1.0).unwrap();
        // Everything moved out; the frame is all fill.
        assert_eq!(shifted.sum(), -4.0);
    }

    #[test]
    fn shift_zero_is_identity() {
        let t = seq(&[2, 1, 3, 3]);
        assert_eq!(shift2d(&t, 0, 0, 0.0).unwrap(), t);
    }

    #[test]
    fn flips_are_involutions() {
        let t = seq(&[1, 3, 4, 5]);
        assert_eq!(flip_horizontal(&flip_horizontal(&t).unwrap()).unwrap(), t);
        assert_eq!(flip_vertical(&flip_vertical(&t).unwrap()).unwrap(), t);
    }

    #[test]
    fn bilinear_identity_resize() {
        let t = seq(&[1, 1, 4, 4]);
        let r = resize_bilinear(&t, 4, 4).unwrap();
        for (a, b) in r.as_slice().iter().zip(t.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn bilinear_constant_image_stays_constant() {
        let t = Tensor::full(&[1, 1, 3, 5], 0.7);
        let r = resize_bilinear(&t, 9, 15).unwrap();
        for &v in r.as_slice() {
            assert!((v - 0.7).abs() < 1e-6);
        }
    }

    #[test]
    fn resize_rejects_zero_target() {
        let t = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(resize_bilinear(&t, 0, 4).is_err());
        assert!(resize_bilinear(&t, 4, 0).is_err());
    }
}
