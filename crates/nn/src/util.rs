//! Internal layout helpers shared by convolution layers.

use litho_tensor::{Result, Tensor};

/// A zero-element placeholder tensor for workspace slots whose buffers are
/// currently lent out (or not yet grown).
pub(crate) fn empty() -> Tensor {
    Tensor::zeros(&[0])
}

/// Reshapes `t` to `dims`, reusing its buffer when the element count
/// matches and reallocating only on growth/shrink — the grow-on-demand
/// primitive behind every layer workspace. Contents are unspecified
/// afterwards; callers must fully overwrite.
pub(crate) fn ensure_shape(t: &mut Tensor, dims: &[usize]) {
    if t.dims() == dims {
        return;
    }
    let volume: usize = dims.iter().product();
    litho_tensor::note_workspace_bytes((volume * 4) as u64);
    if t.len() == volume {
        t.reshape_in_place(dims).expect("volume was checked");
    } else {
        *t = Tensor::zeros(dims);
    }
}

/// Reorders an NCHW tensor into a channel-major matrix `[c, n*h*w]` whose
/// columns are ordered `(batch, y, x)` — the column convention produced by
/// `im2col`. The hot paths use [`nchw_to_cm_into`]; this allocating form
/// remains for tests.
#[cfg(test)]
pub(crate) fn nchw_to_cm(input: &Tensor) -> Result<Tensor> {
    let mut out = empty();
    nchw_to_cm_into(input, &mut out)?;
    Ok(out)
}

/// [`nchw_to_cm`] into a caller-owned matrix (resized as needed); every
/// element is overwritten.
pub(crate) fn nchw_to_cm_into(input: &Tensor, out: &mut Tensor) -> Result<()> {
    let [n, c, h, w] = input.shape().as_nchw()?;
    let plane = h * w;
    ensure_shape(out, &[c, n * plane]);
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    for b in 0..n {
        for ci in 0..c {
            let src_off = (b * c + ci) * plane;
            let dst_off = ci * n * plane + b * plane;
            dst[dst_off..dst_off + plane].copy_from_slice(&src[src_off..src_off + plane]);
        }
    }
    Ok(())
}

/// Inverse of [`nchw_to_cm`]: reinterprets a `[c, n*h*w]` channel-major
/// matrix as an NCHW tensor. The convolutions store NCHW directly; this
/// remains for tests.
#[cfg(test)]
pub(crate) fn cm_to_nchw(mat: &Tensor, n: usize, c: usize, h: usize, w: usize) -> Result<Tensor> {
    let plane = h * w;
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let src = mat.as_slice();
    let dst = out.as_mut_slice();
    for b in 0..n {
        for ci in 0..c {
            let src_off = ci * n * plane + b * plane;
            let dst_off = (b * c + ci) * plane;
            dst[dst_off..dst_off + plane].copy_from_slice(&src[src_off..src_off + plane]);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cm_round_trip() {
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]).unwrap();
        let cm = nchw_to_cm(&x).unwrap();
        assert_eq!(cm.dims(), &[3, 8]);
        // Channel 0 row holds batch 0's plane then batch 1's plane.
        assert_eq!(&cm.as_slice()[0..4], &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(&cm.as_slice()[4..8], &[12.0, 13.0, 14.0, 15.0]);
        let back = cm_to_nchw(&cm, 2, 3, 2, 2).unwrap();
        assert_eq!(back, x);
    }
}
