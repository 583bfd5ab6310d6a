use litho_tensor::rng::Rng;

use litho_tensor::{
    conv_backward_fused, gemm, im2col_into, Im2ColSpec, MatRef, Result, Tensor, TensorError,
};

use crate::layer::{Layer, Param, Phase};
use crate::util::{cm_to_nchw, ensure_shape, nchw_to_cm_into};
use crate::WeightInit;

/// 2-D convolution over NCHW tensors, lowered to GEMM via im2col.
///
/// Weight layout is `[out_c, in_c * kh * kw]`; bias is `[out_c]`. The
/// paper's encoder/discriminator layers are all `Conv2d::new(..., 5, 2, 2)`
/// (5×5 kernel, stride 2, "same" padding).
///
/// # Example
///
/// ```
/// use litho_nn::{Conv2d, Layer, Phase};
/// use litho_tensor::Tensor;
/// use litho_tensor::rng::SeedableRng;
///
/// let mut rng = litho_tensor::rng::StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(3, 64, 5, 2, 2, &mut rng);
/// let x = Tensor::zeros(&[1, 3, 32, 32]);
/// let y = conv.forward(&x, Phase::Eval)?;
/// assert_eq!(y.dims(), &[1, 64, 16, 16]);
/// # Ok::<(), litho_tensor::TensorError>(())
/// ```
#[derive(Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    spec: Im2ColSpec,
    weight: Param,
    bias: Param,
    cache: Option<ConvCache>,
    ws: ConvWorkspace,
}

#[derive(Debug)]
struct ConvCache {
    cols: Tensor,
    input_dims: [usize; 4],
    output_hw: (usize, usize),
}

/// Layer-owned scratch, grown on demand and reused every step so the hot
/// loop stops allocating. The im2col matrix cycles between the workspace
/// and the train cache: forward moves it into the cache, backward hands it
/// back.
#[derive(Debug)]
struct ConvWorkspace {
    cols: Tensor,
    y_mat: Tensor,
    dy: Tensor,
    dw: Tensor,
}

impl Default for ConvWorkspace {
    fn default() -> Self {
        ConvWorkspace {
            cols: crate::util::empty(),
            y_mat: crate::util::empty(),
            dy: crate::util::empty(),
            dw: crate::util::empty(),
        }
    }
}

impl Conv2d {
    /// Creates a convolution with the default (paper) weight init.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        Conv2d::with_init(
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            WeightInit::default(),
            rng,
        )
    }

    /// Creates a convolution with an explicit weight initialisation scheme.
    pub fn with_init<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        init: WeightInit,
        rng: &mut R,
    ) -> Self {
        let k = in_channels * kernel * kernel;
        let weight = init.sample(
            &[out_channels, k],
            k,
            out_channels * kernel * kernel,
            rng,
        );
        Conv2d {
            in_channels,
            out_channels,
            spec: Im2ColSpec::square(kernel, stride, pad),
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            cache: None,
            ws: ConvWorkspace::default(),
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, phase: Phase) -> Result<Tensor> {
        let [n, c, h, w] = input.shape().as_nchw()?;
        if c != self.in_channels {
            return Err(TensorError::InvalidArgument(format!(
                "Conv2d expects {} input channels, got {c}",
                self.in_channels
            )));
        }
        let (oh, ow) = self.spec.output_size(h, w)?;
        let k = c * self.spec.kernel_h * self.spec.kernel_w;
        let ncols = n * oh * ow;
        ensure_shape(&mut self.ws.cols, &[k, ncols]);
        im2col_into(input, &self.spec, &mut self.ws.cols)?;
        // [out_c, k] x [k, n*oh*ow] -> [out_c, n*oh*ow], bias fused into
        // the GEMM's last store instead of a separate full-tensor sweep.
        ensure_shape(&mut self.ws.y_mat, &[self.out_channels, ncols]);
        gemm(
            MatRef::row_major(self.weight.value.as_slice(), self.out_channels, k),
            MatRef::row_major(self.ws.cols.as_slice(), k, ncols),
            self.ws.y_mat.as_mut_slice(),
            Some(self.bias.value.as_slice()),
        );
        if phase == Phase::Train {
            // Lend the cols buffer to the cache; backward returns it.
            self.cache = Some(ConvCache {
                cols: std::mem::replace(&mut self.ws.cols, crate::util::empty()),
                input_dims: [n, c, h, w],
                output_hw: (oh, ow),
            });
        } else {
            self.cache = None;
        }
        cm_to_nchw(&self.ws.y_mat, n, self.out_channels, oh, ow)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self.cache.take().ok_or_else(|| {
            TensorError::InvalidArgument("Conv2d::backward called before train forward".into())
        })?;
        let [n, c, h, w] = cache.input_dims;
        let (oh, ow) = cache.output_hw;
        let ncols = n * oh * ow;
        nchw_to_cm_into(grad_output, &mut self.ws.dy)?; // [out_c, n*oh*ow]
        if self.ws.dy.dims() != [self.out_channels, ncols] {
            return Err(TensorError::ShapeMismatch {
                left: self.ws.dy.dims().to_vec(),
                right: vec![self.out_channels, ncols],
            });
        }

        // dW = dy · colsᵀ and dx = col2im(Wᵀ · dy) in one fused kernel:
        // colsᵀ is read through strides and dx is scattered from per-item
        // windows, so neither a transpose nor the full dcols is built.
        ensure_shape(&mut self.ws.dw, self.weight.value.dims());
        let mut dx = Tensor::zeros(&[n, c, h, w]);
        conv_backward_fused(
            self.weight.value.as_slice(),
            self.ws.dy.as_slice(),
            cache.cols.as_slice(),
            self.ws.dw.as_mut_slice(),
            &mut dx,
            &self.spec,
            self.out_channels,
        )?;
        self.weight.grad.add_assign(&self.ws.dw)?;

        // db = row sums of dy.
        {
            let dy_data = self.ws.dy.as_slice();
            let db = self.bias.grad.as_mut_slice();
            for (oc, acc) in db.iter_mut().enumerate() {
                *acc += dy_data[oc * ncols..(oc + 1) * ncols].iter().sum::<f32>();
            }
        }

        // Return the lent cols buffer to the workspace for the next step.
        self.ws.cols = cache.cols;
        Ok(dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn name(&self) -> String {
        format!(
            "Conv2d({}→{}, {}x{}, s{}, p{})",
            self.in_channels,
            self.out_channels,
            self.spec.kernel_h,
            self.spec.kernel_w,
            self.spec.stride_h,
            self.spec.pad_h
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litho_tensor::rng::SeedableRng;

    #[test]
    fn forward_shape_halves_with_stride_two() {
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(3, 8, 5, 2, 2, &mut rng);
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let y = conv.forward(&x, Phase::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        assert!(conv.forward(&Tensor::zeros(&[1, 4, 8, 8]), Phase::Eval).is_err());
    }

    #[test]
    fn known_convolution_values() {
        // 1 input channel, 1 output channel, 3x3 averaging kernel.
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        conv.visit_params(&mut |p| {
            if p.value.len() == 9 {
                p.value.as_mut_slice().fill(1.0);
            } else {
                p.value.as_mut_slice().fill(0.5);
            }
        });
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv.forward(&x, Phase::Eval).unwrap();
        // Center pixel sees all 9 ones + bias.
        assert_eq!(y.at(&[0, 0, 1, 1]).unwrap(), 9.5);
        // Corner pixel sees 4 ones + bias.
        assert_eq!(y.at(&[0, 0, 0, 0]).unwrap(), 4.5);
    }

    #[test]
    fn backward_requires_train_forward() {
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        conv.forward(&x, Phase::Eval).unwrap();
        assert!(conv.backward(&Tensor::ones(&[1, 1, 4, 4])).is_err());
    }

    #[test]
    fn gradient_check() {
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(7);
        let conv = Conv2d::new(2, 3, 3, 2, 1, &mut rng);
        crate::gradcheck::check_layer(Box::new(conv), &[2, 2, 5, 5], 1e-2, 2e-2);
    }

    #[test]
    fn param_count() {
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(3, 64, 5, 2, 2, &mut rng);
        assert_eq!(conv.param_count(), 64 * 3 * 25 + 64);
    }
}
