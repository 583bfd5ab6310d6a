use crate::rng::Distribution;
use crate::rng::Rng;

use crate::{Result, Shape, TensorError};

/// A dense, row-major `f32` tensor.
///
/// `Tensor` owns its data in a flat `Vec<f32>` interpreted through a
/// [`Shape`]. All arithmetic is element-wise unless stated otherwise; matrix
/// products live in [`crate::matmul`].
///
/// # Example
///
/// ```
/// use litho_tensor::Tensor;
///
/// let x = Tensor::full(&[2, 3], 2.0);
/// let y = x.scale(0.5);
/// assert_eq!(y.sum(), 6.0);
/// ```
#[derive(Debug, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        crate::alloc::record_elements(self.data.len());
        Tensor {
            shape: self.shape.clone(),
            data: self.data.clone(),
        }
    }
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the shape volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        crate::alloc::record_elements(data.len());
        Ok(Tensor { shape, data })
    }

    /// A tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.volume();
        crate::alloc::record_elements(n);
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// A tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.volume();
        crate::alloc::record_elements(n);
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// A tensor with elements drawn from `dist` using `rng`.
    pub fn random<D, R>(dims: &[usize], dist: &D, rng: &mut R) -> Self
    where
        D: Distribution<f32>,
        R: Rng + ?Sized,
    {
        let shape = Shape::new(dims);
        let n = shape.volume();
        crate::alloc::record_elements(n);
        let data = (0..n).map(|_| dist.sample(rng)).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the flat data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the flat data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index validation errors from [`Shape::offset`].
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index validation errors from [`Shape::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        Tensor::from_vec(self.data.clone(), dims)
    }

    /// In-place reshape, avoiding the copy of [`Tensor::reshape`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape_in_place(&mut self, dims: &[usize]) -> Result<()> {
        let shape = Shape::new(dims);
        if shape.volume() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: self.data.len(),
            });
        }
        self.shape = shape;
        Ok(())
    }

    fn zip_check(&self, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        Ok(())
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_check(other)?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// In-place element-wise sum: `self += other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.zip_check(other)?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// In-place scaled accumulation: `self += alpha * other` (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_scaled_assign(&mut self, other: &Tensor, alpha: f32) -> Result<()> {
        self.zip_check(other)?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_check(other)?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_check(other)?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Multiplies every element by `alpha`, returning a new tensor.
    pub fn scale(&self, alpha: f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|a| a * alpha).collect(),
        }
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sum of squared elements.
    pub fn sum_squares(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum()
    }

    /// Mean absolute difference against another tensor (the ℓ1 metric used
    /// by the CGAN reconstruction loss).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mean_abs_diff(&self, other: &Tensor) -> Result<f32> {
        self.zip_check(other)?;
        if self.data.is_empty() {
            return Ok(0.0);
        }
        let total: f32 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .sum();
        Ok(total / self.data.len() as f32)
    }

    /// Stacks rank-`r` tensors into a rank-`r+1` tensor along a new leading
    /// dimension.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `items` is empty and
    /// [`TensorError::ShapeMismatch`] if the shapes disagree.
    pub fn stack(items: &[Tensor]) -> Result<Tensor> {
        let first = items
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("cannot stack zero tensors".into()))?;
        let mut data = Vec::with_capacity(first.len() * items.len());
        for item in items {
            if item.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    left: first.dims().to_vec(),
                    right: item.dims().to_vec(),
                });
            }
            data.extend_from_slice(&item.data);
        }
        let mut dims = vec![items.len()];
        dims.extend_from_slice(first.dims());
        Tensor::from_vec(data, &dims)
    }

    /// Concatenates tensors along the channel axis (axis 1) of NCHW tensors.
    ///
    /// This is the operation used to feed the discriminator the `(x, y)`
    /// image pair as a 6-channel input.
    ///
    /// # Errors
    ///
    /// Returns an error if any input is not rank 4 or the non-channel
    /// dimensions disagree.
    pub fn concat_channels(items: &[&Tensor]) -> Result<Tensor> {
        let first = items
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("cannot concat zero tensors".into()))?;
        let [n, _, h, w] = first.shape.as_nchw()?;
        let mut total_c = 0;
        for item in items {
            let [ni, ci, hi, wi] = item.shape.as_nchw()?;
            if ni != n || hi != h || wi != w {
                return Err(TensorError::ShapeMismatch {
                    left: first.dims().to_vec(),
                    right: item.dims().to_vec(),
                });
            }
            total_c += ci;
        }
        let mut out = Tensor::zeros(&[n, total_c, h, w]);
        let plane = h * w;
        for b in 0..n {
            let mut c_off = 0;
            for item in items {
                let ci = item.shape.dim(1);
                let src_base = b * ci * plane;
                let dst_base = b * total_c * plane + c_off * plane;
                out.data[dst_base..dst_base + ci * plane]
                    .copy_from_slice(&item.data[src_base..src_base + ci * plane]);
                c_off += ci;
            }
        }
        Ok(out)
    }

    /// Splits an NCHW tensor along the channel axis into chunks of the given
    /// channel counts (inverse of [`Tensor::concat_channels`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not rank 4 or the chunk sizes do
    /// not sum to the channel count.
    pub fn split_channels(&self, chunks: &[usize]) -> Result<Vec<Tensor>> {
        let [n, c, h, w] = self.shape.as_nchw()?;
        if chunks.iter().sum::<usize>() != c {
            return Err(TensorError::InvalidArgument(format!(
                "channel chunks {chunks:?} do not sum to {c}"
            )));
        }
        let plane = h * w;
        let mut out = Vec::with_capacity(chunks.len());
        let mut c_off = 0;
        for &ci in chunks {
            let mut t = Tensor::zeros(&[n, ci, h, w]);
            for b in 0..n {
                let src_base = b * c * plane + c_off * plane;
                let dst_base = b * ci * plane;
                t.data[dst_base..dst_base + ci * plane]
                    .copy_from_slice(&self.data[src_base..src_base + ci * plane]);
            }
            out.push(t);
            c_off += ci;
        }
        Ok(out)
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![0.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![0.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(a.add(&b).is_err());
        assert!(a.mul(&b).is_err());
        assert!(a.mean_abs_diff(&b).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[4]).unwrap();
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.mean(), -0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -4.0);
        assert_eq!(t.sum_squares(), 30.0);
    }

    #[test]
    fn mean_abs_diff_matches_l1() {
        let a = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], &[4]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 1.0, 0.0, 7.0], &[4]).unwrap();
        assert!((a.mean_abs_diff(&b).unwrap() - (1.0 + 0.0 + 2.0 + 4.0) / 4.0).abs() < 1e-6);
    }

    #[test]
    fn stack_and_slice_batch_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        let s = Tensor::stack(&[a, b]).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        // Item i of the stack is input i.
        assert_eq!(s.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn concat_and_split_channels_round_trip() {
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let y = Tensor::from_vec((8..12).map(|v| v as f32).collect(), &[1, 1, 2, 2]).unwrap();
        let cat = Tensor::concat_channels(&[&x, &y]).unwrap();
        assert_eq!(cat.dims(), &[1, 3, 2, 2]);
        let parts = cat.split_channels(&[2, 1]).unwrap();
        assert_eq!(parts[0], x);
        assert_eq!(parts[1], y);
    }

    #[test]
    fn concat_channels_multi_batch() {
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[2, 1, 2, 2]).unwrap();
        let y = x.scale(10.0);
        let cat = Tensor::concat_channels(&[&x, &y]).unwrap();
        assert_eq!(cat.dims(), &[2, 2, 2, 2]);
        // Batch 1, channel 1 should come from y's batch 1.
        assert_eq!(cat.at(&[1, 1, 0, 0]).unwrap(), 40.0);
    }

    #[test]
    fn reshape_checks_volume() {
        let t = Tensor::zeros(&[2, 3]);
        assert!(t.reshape(&[3, 2]).is_ok());
        assert!(t.reshape(&[4, 2]).is_err());
    }
}
