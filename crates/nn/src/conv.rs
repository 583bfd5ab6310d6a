use litho_tensor::rng::Rng;

use litho_tensor::{
    conv_forward_fused, conv_transpose_fused, gemm, Im2ColSpec, MatRef, Result, Tensor,
    TensorError,
};

use crate::layer::{Layer, Param, Phase};
use crate::util::{ensure_shape, ConvWorkspace};
use crate::WeightInit;

/// 2-D convolution over NCHW tensors, lowered to GEMM via im2col. The
/// column matrix is never stored: the GEMM packs it straight from the
/// input ([`litho_tensor::conv_forward_fused`]). The backward is the
/// adjoint kernel, a transposed convolution of the output gradient
/// ([`litho_tensor::conv_transpose_fused`]), plus one GEMM for the weight
/// gradient.
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
    input: Tensor,
    output_hw: (usize, usize),
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
        // [out_c, k] x im2col(x) straight into the NCHW output, bias fused
        // into the GEMM's last store instead of a separate sweep.
        let mut y = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        conv_forward_fused(
            self.weight.value.as_slice(),
            input,
            Some(self.bias.value.as_slice()),
            &mut y,
            &self.spec,
        )?;
        if phase == Phase::Train {
            // The weight gradient reads im2col of the input: keep a copy in
            // the reused buffer and lend it to the cache; backward returns it.
            self.cache = Some(ConvCache {
                input: self.ws.lend_input(input),
                output_hw: (oh, ow),
            });
        } else {
            self.cache = None;
        }
        Ok(y)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self.cache.take().ok_or_else(|| {
            TensorError::InvalidArgument("Conv2d::backward called before train forward".into())
        })?;
        let [n, c, h, w] = cache.input.shape().as_nchw()?;
        let (oh, ow) = cache.output_hw;
        if grad_output.dims() != [n, self.out_channels, oh, ow] {
            return Err(TensorError::ShapeMismatch {
                left: grad_output.dims().to_vec(),
                right: vec![n, self.out_channels, oh, ow],
            });
        }

        // dW = dy · im2col(x)ᵀ: dy's channel-major matrix is its 1×1
        // im2col view and im2col(x)ᵀ is packed straight from the saved
        // input, so neither is stored.
        ensure_shape(&mut self.ws.dw, self.weight.value.dims());
        gemm(
            MatRef::im2col(grad_output, &Im2ColSpec::square(1, 1, 0))?,
            MatRef::im2col(&cache.input, &self.spec)?.t(),
            self.ws.dw.as_mut_slice(),
            None,
        );
        self.weight.grad.add_assign(&self.ws.dw)?;

        // db = per-channel sums of dy, one fold over all items' planes.
        {
            let plane = oh * ow;
            let dy_data = grad_output.as_slice();
            let db = self.bias.grad.as_mut_slice();
            for (oc, acc) in db.iter_mut().enumerate() {
                *acc += (0..n)
                    .flat_map(|b| {
                        let off = (b * self.out_channels + oc) * plane;
                        &dy_data[off..off + plane]
                    })
                    .sum::<f32>();
            }
        }

        // dx = col2im(Wᵀ · dy): the transposed convolution of dy, scattered
        // from per-item windows, so no column matrix is built.
        let mut dx = Tensor::zeros(&[n, c, h, w]);
        let weight = self.weight.value.as_slice();
        conv_transpose_fused(weight, grad_output, None, &mut dx, &self.spec)?;

        // Return the lent input buffer to the workspace for the next step.
        self.ws.input = cache.input;
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
    fn gradient_check_at_both_levels_past_one_reduction_block() {
        // k = 12·5·5 = 300 crosses the GEMM's 256-deep reduction block, and
        // n·oh·ow = 2·3·3 = 18 leaves a partial 16-column tile.
        use litho_tensor::{with_level, KernelLevel};
        for level in [KernelLevel::Scalar, KernelLevel::Avx2] {
            let mut rng = litho_tensor::rng::StdRng::seed_from_u64(17);
            let conv = Conv2d::new(12, 3, 5, 2, 2, &mut rng);
            with_level(level, || {
                crate::gradcheck::check_layer(Box::new(conv), &[2, 12, 5, 5], 1e-2, 2e-2)
            });
        }
    }

    #[test]
    fn param_count() {
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(3, 64, 5, 2, 2, &mut rng);
        assert_eq!(conv.param_count(), 64 * 3 * 25 + 64);
    }
}
