use litho_tensor::rng::Rng;

use litho_tensor::{
    conv_transpose_fused, gemm, im2col_into, Im2ColSpec, MatRef, Result, Tensor, TensorError,
};

use crate::layer::{Layer, Param, Phase};
use crate::util::{cm_to_nchw, ensure_shape, nchw_to_cm_into};
use crate::WeightInit;

/// 2-D transposed convolution ("Deconv" in the paper's Table 1).
///
/// Implemented as the adjoint of [`crate::Conv2d`]: the forward pass is
/// `col2im(Wᵀ · x) + bias`, the same fused kernel as the conv backward
/// data pass ([`litho_tensor::conv_transpose_fused`]). With `kernel = 5,
/// stride = 2, pad = 2, output_pad = 1` the spatial size doubles — the
/// paper's decoder configuration.
///
/// Weight layout is `[in_c, out_c * kh * kw]`; bias is `[out_c]`.
///
/// # Example
///
/// ```
/// use litho_nn::{ConvTranspose2d, Layer, Phase};
/// use litho_tensor::Tensor;
/// use litho_tensor::rng::SeedableRng;
///
/// let mut rng = litho_tensor::rng::StdRng::seed_from_u64(0);
/// let mut deconv = ConvTranspose2d::new(8, 4, 5, 2, 2, 1, &mut rng);
/// let x = Tensor::zeros(&[1, 8, 16, 16]);
/// let y = deconv.forward(&x, Phase::Eval)?;
/// assert_eq!(y.dims(), &[1, 4, 32, 32]);
/// # Ok::<(), litho_tensor::TensorError>(())
/// ```
#[derive(Debug)]
pub struct ConvTranspose2d {
    in_channels: usize,
    out_channels: usize,
    spec: Im2ColSpec,
    output_pad: usize,
    weight: Param,
    bias: Param,
    cache: Option<DeconvCache>,
    ws: DeconvWorkspace,
}

#[derive(Debug)]
struct DeconvCache {
    x_mat: Tensor,
    input_dims: [usize; 4],
    output_hw: (usize, usize),
}

/// Layer-owned scratch, grown on demand and reused every step. The
/// channel-major input matrix cycles between the workspace and the train
/// cache exactly like `Conv2d`'s cols buffer.
#[derive(Debug)]
struct DeconvWorkspace {
    x_mat: Tensor,
    dcols: Tensor,
    dw: Tensor,
    dx_mat: Tensor,
}

impl Default for DeconvWorkspace {
    fn default() -> Self {
        DeconvWorkspace {
            x_mat: crate::util::empty(),
            dcols: crate::util::empty(),
            dw: crate::util::empty(),
            dx_mat: crate::util::empty(),
        }
    }
}

impl ConvTranspose2d {
    /// Creates a transposed convolution with the default (paper) init.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        output_pad: usize,
        rng: &mut R,
    ) -> Self {
        ConvTranspose2d::with_init(
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            output_pad,
            WeightInit::default(),
            rng,
        )
    }

    /// Creates a transposed convolution with an explicit init scheme.
    #[allow(clippy::too_many_arguments)]
    pub fn with_init<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        output_pad: usize,
        init: WeightInit,
        rng: &mut R,
    ) -> Self {
        let k = out_channels * kernel * kernel;
        let weight = init.sample(
            &[in_channels, k],
            in_channels * kernel * kernel,
            k,
            rng,
        );
        ConvTranspose2d {
            in_channels,
            out_channels,
            spec: Im2ColSpec::square(kernel, stride, pad),
            output_pad,
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            cache: None,
            ws: DeconvWorkspace::default(),
        }
    }

    /// Output spatial size for an `ih x iw` input.
    pub fn output_size(&self, ih: usize, iw: usize) -> (usize, usize) {
        let oh = (ih - 1) * self.spec.stride_h + self.spec.kernel_h - 2 * self.spec.pad_h
            + self.output_pad;
        let ow = (iw - 1) * self.spec.stride_w + self.spec.kernel_w - 2 * self.spec.pad_w
            + self.output_pad;
        (oh, ow)
    }
}

impl Layer for ConvTranspose2d {
    fn forward(&mut self, input: &Tensor, phase: Phase) -> Result<Tensor> {
        let [n, c, ih, iw] = input.shape().as_nchw()?;
        if c != self.in_channels {
            return Err(TensorError::InvalidArgument(format!(
                "ConvTranspose2d expects {} input channels, got {c}",
                self.in_channels
            )));
        }
        let (oh, ow) = self.output_size(ih, iw);
        // Consistency: the adjoint conv applied to the output must land back
        // on the input grid.
        let back = self.spec.output_size(oh, ow)?;
        if back != (ih, iw) {
            return Err(TensorError::InvalidArgument(format!(
                "transposed conv geometry inconsistent: conv({oh}x{ow}) = {back:?} != {ih}x{iw}"
            )));
        }

        nchw_to_cm_into(input, &mut self.ws.x_mat)?; // [in_c, n*ih*iw]
        // y = col2im(Wᵀ · x) + bias, with no [out_c*kh*kw, n*ih*iw] matrix
        // in between.
        let mut y = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        conv_transpose_fused(
            self.weight.value.as_slice(),
            self.ws.x_mat.as_slice(),
            self.bias.value.as_slice(),
            &mut y,
            &self.spec,
            self.in_channels,
        )?;
        if phase == Phase::Train {
            // Lend the x_mat buffer to the cache; backward returns it.
            self.cache = Some(DeconvCache {
                x_mat: std::mem::replace(&mut self.ws.x_mat, crate::util::empty()),
                input_dims: [n, c, ih, iw],
                output_hw: (oh, ow),
            });
        } else {
            self.cache = None;
        }
        Ok(y)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self.cache.take().ok_or_else(|| {
            TensorError::InvalidArgument(
                "ConvTranspose2d::backward called before train forward".into(),
            )
        })?;
        let [n, c, ih, iw] = cache.input_dims;
        let (oh, ow) = cache.output_hw;
        if grad_output.dims() != [n, self.out_channels, oh, ow] {
            return Err(TensorError::ShapeMismatch {
                left: grad_output.dims().to_vec(),
                right: vec![n, self.out_channels, oh, ow],
            });
        }

        let taps = self.out_channels * self.spec.kernel_h * self.spec.kernel_w;
        let ncols = n * ih * iw;
        // dcols = im2col(dy): the adjoint of the forward col2im scatter.
        ensure_shape(&mut self.ws.dcols, &[taps, ncols]);
        im2col_into(grad_output, &self.spec, &mut self.ws.dcols)?; // [out_c*kh*kw, n*ih*iw]

        // dW = x · dcolsᵀ
        let dcols = MatRef::row_major(self.ws.dcols.as_slice(), taps, ncols);
        ensure_shape(&mut self.ws.dw, self.weight.value.dims());
        gemm(
            MatRef::row_major(cache.x_mat.as_slice(), self.in_channels, ncols),
            dcols.t(),
            self.ws.dw.as_mut_slice(),
            None,
        );
        self.weight.grad.add_assign(&self.ws.dw)?;

        // db = per-channel sums of dy.
        {
            let plane = oh * ow;
            let dy_data = grad_output.as_slice();
            let db = self.bias.grad.as_mut_slice();
            for b in 0..n {
                for (oc, acc) in db.iter_mut().enumerate() {
                    let off = (b * self.out_channels + oc) * plane;
                    *acc += dy_data[off..off + plane].iter().sum::<f32>();
                }
            }
        }

        // dx = W · dcols
        ensure_shape(&mut self.ws.dx_mat, &[self.in_channels, ncols]);
        gemm(
            MatRef::row_major(self.weight.value.as_slice(), self.in_channels, taps),
            dcols,
            self.ws.dx_mat.as_mut_slice(),
            None,
        );
        // Return the lent x_mat buffer to the workspace for the next step.
        self.ws.x_mat = cache.x_mat;
        cm_to_nchw(&self.ws.dx_mat, n, c, ih, iw)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn name(&self) -> String {
        format!(
            "ConvTranspose2d({}→{}, {}x{}, s{}, p{}, op{})",
            self.in_channels,
            self.out_channels,
            self.spec.kernel_h,
            self.spec.kernel_w,
            self.spec.stride_h,
            self.spec.pad_h,
            self.output_pad
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litho_tensor::rng::SeedableRng;

    #[test]
    fn doubles_spatial_size_with_paper_geometry() {
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(0);
        let mut deconv = ConvTranspose2d::new(4, 2, 5, 2, 2, 1, &mut rng);
        let x = Tensor::zeros(&[3, 4, 8, 8]);
        let y = deconv.forward(&x, Phase::Eval).unwrap();
        assert_eq!(y.dims(), &[3, 2, 16, 16]);
    }

    #[test]
    fn one_by_one_to_two_by_two() {
        // The paper's first decoder layer: 1x1x512 -> 2x2x512.
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(0);
        let mut deconv = ConvTranspose2d::new(8, 8, 5, 2, 2, 1, &mut rng);
        let x = Tensor::zeros(&[1, 8, 1, 1]);
        let y = deconv.forward(&x, Phase::Eval).unwrap();
        assert_eq!(y.dims(), &[1, 8, 2, 2]);
    }

    #[test]
    fn adjoint_of_conv() {
        // <deconv(x), y> == <x, conv(y)> when deconv and conv share weights
        // (zero bias): transposed convolution is literally the adjoint map.
        use crate::Conv2d;
        use litho_tensor::rng::Rng;
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(9);
        let mut deconv = ConvTranspose2d::new(2, 3, 3, 2, 1, 1, &mut rng);
        let mut conv = Conv2d::new(3, 2, 3, 2, 1, &mut rng);
        // Copy deconv's [in_c=2, out_c*k*k=27] weights into conv's
        // [out_c=2, in_c*k*k=27] slot — identical layout by construction.
        let mut w = Vec::new();
        deconv.visit_params(&mut |p| {
            if p.value.len() == 2 * 27 {
                w = p.value.as_slice().to_vec();
            }
        });
        conv.visit_params(&mut |p| {
            if p.value.len() == 2 * 27 {
                p.value.as_mut_slice().copy_from_slice(&w);
            } else {
                p.value.as_mut_slice().fill(0.0);
            }
        });
        deconv.visit_params(&mut |p| {
            if p.value.len() == 3 {
                p.value.as_mut_slice().fill(0.0);
            }
        });

        let x_data: Vec<f32> = (0..2 * 2 * 4 * 4).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let x = Tensor::from_vec(x_data, &[2, 2, 4, 4]).unwrap();
        let fx = deconv.forward(&x, Phase::Eval).unwrap(); // [2,3,8,8]
        let y_data: Vec<f32> = (0..2 * 3 * 8 * 8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let y = Tensor::from_vec(y_data, &[2, 3, 8, 8]).unwrap();
        let fy = conv.forward(&y, Phase::Eval).unwrap(); // [2,2,4,4]

        let lhs: f32 = fx.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.as_slice().iter().zip(fy.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn gradient_check() {
        use litho_tensor::{with_level, KernelLevel};
        for level in [KernelLevel::Scalar, KernelLevel::Avx2] {
            let mut rng = litho_tensor::rng::StdRng::seed_from_u64(3);
            let deconv = ConvTranspose2d::new(3, 2, 3, 2, 1, 1, &mut rng);
            with_level(level, || {
                crate::gradcheck::check_layer(Box::new(deconv), &[2, 3, 4, 4], 1e-2, 2e-2)
            });
        }
    }

    #[test]
    fn backward_requires_train_forward() {
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(0);
        let mut deconv = ConvTranspose2d::new(1, 1, 3, 1, 1, 0, &mut rng);
        assert!(deconv.backward(&Tensor::zeros(&[1, 1, 4, 4])).is_err());
    }
}
