use litho_tensor::rng::StdRng;
use litho_tensor::rng::SeedableRng;

use litho_nn::{
    BatchNorm2d, Conv2d, ConvTranspose2d, Dropout, Flatten, LeakyRelu, Linear, MaxPool2d, Relu,
    Sequential, Tanh,
};

/// Architecture hyper-parameters for the three networks.
///
/// [`NetConfig::paper`] builds the exact layer stacks of the paper's
/// Table 1 and Table 2 (256 × 256 images, base width 64).
/// [`NetConfig::scaled`] builds the same topology at reduced resolution
/// and width for CPU-budget experiments — depth scales with
/// `log2(image_size)` so the generator always bottlenecks at 1 × 1.
///
/// Two documented deviations from the published tables (see DESIGN.md):
/// the generator emits 1 monochrome channel through `tanh` (the table
/// lists a 3-channel `Deconv-LReLU` output, but the resist target is a
/// monochrome image and `tanh` is the standard pix2pix output), and
/// encoder/decoder activations follow the paper's *text* (encoder
/// LeakyReLU, decoder ReLU) where the table swaps them.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Image edge length (power of two, ≥ 8).
    pub image_size: usize,
    /// Mask-image channels (3: neighbors/target/SRAFs).
    pub in_channels: usize,
    /// Resist-image channels (1, monochrome).
    pub out_channels: usize,
    /// Width of the first encoder level (64 in the paper).
    pub base_channels: usize,
    /// Channel cap as a multiple of `base_channels` (8 in the paper:
    /// 64 → 512).
    pub max_channel_multiplier: usize,
    /// Dropout probability in the decoder and CNN head (0.5).
    pub dropout_p: f32,
    /// Negative slope of leaky ReLU activations (0.2).
    pub leaky_slope: f32,
}

impl NetConfig {
    /// The paper's architecture: 256 × 256, base width 64.
    pub fn paper() -> Self {
        NetConfig {
            image_size: 256,
            in_channels: 3,
            out_channels: 1,
            base_channels: 64,
            max_channel_multiplier: 8,
            dropout_p: 0.5,
            leaky_slope: 0.2,
        }
    }

    /// A reduced configuration with the same topology (see DESIGN.md's
    /// substitution table for why experiments default to this scale).
    ///
    /// # Panics
    ///
    /// Panics if `image_size` is not a power of two at least 8.
    pub fn scaled(image_size: usize) -> Self {
        assert!(
            image_size.is_power_of_two() && image_size >= 8,
            "image size must be a power of two >= 8"
        );
        NetConfig {
            image_size,
            in_channels: 3,
            out_channels: 1,
            base_channels: 16,
            max_channel_multiplier: 8,
            dropout_p: 0.5,
            leaky_slope: 0.2,
        }
    }

    /// The network the command-line front ends use for `image_size`
    /// images: [`NetConfig::paper`] at 256, else [`NetConfig::scaled`].
    pub fn for_size(image_size: usize) -> Self {
        if image_size == 256 {
            NetConfig::paper()
        } else {
            NetConfig::scaled(image_size)
        }
    }

    /// Number of stride-2 encoder levels (bottleneck at 1 × 1).
    pub fn encoder_levels(&self) -> usize {
        self.image_size.trailing_zeros() as usize
    }

    /// Channel width of encoder level `i`.
    fn ch(&self, i: usize) -> usize {
        (self.base_channels << i).min(self.base_channels * self.max_channel_multiplier)
    }

    /// Builds the generator of Table 1: a stride-2 conv encoder down to a
    /// 1 × 1 bottleneck, mirrored by a transposed-conv decoder with
    /// dropout after the first two blocks, `tanh` output.
    pub fn build_generator(&self, seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let levels = self.encoder_levels();
        let mut net = Sequential::new();
        // Encoder: Conv-LReLU then Conv-BN-LReLU blocks.
        for i in 0..levels {
            let in_ch = if i == 0 { self.in_channels } else { self.ch(i - 1) };
            net.push(Conv2d::new(in_ch, self.ch(i), 5, 2, 2, &mut rng));
            if i > 0 {
                net.push(BatchNorm2d::new(self.ch(i)));
            }
            net.push(LeakyRelu::new(self.leaky_slope));
        }
        // Decoder: Deconv-BN-ReLU blocks, dropout on the first two,
        // final Deconv-Tanh.
        for j in 0..levels {
            let in_ch = self.ch(levels - 1 - j);
            let last = j == levels - 1;
            let out_ch = if last {
                self.out_channels
            } else {
                self.ch(levels - 2 - j)
            };
            net.push(ConvTranspose2d::new(in_ch, out_ch, 5, 2, 2, 1, &mut rng));
            if !last {
                net.push(BatchNorm2d::new(out_ch));
                net.push(Relu::new());
                if j < 2 {
                    net.push(Dropout::new(self.dropout_p, seed.wrapping_add(j as u64 + 1)));
                }
            } else {
                net.push(Tanh::new());
            }
        }
        net
    }

    /// Builds the discriminator of Table 1: stride-2 Conv-(BN-)LReLU
    /// blocks over the concatenated `(x, y)` pair, then a fully connected
    /// logit (the loss applies the sigmoid).
    pub fn build_discriminator(&self, seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        // 4 stride-2 levels in the paper (256 → 16); shallower images
        // reduce depth so at least a 4 × 4 map feeds the FC layer.
        let levels = 4.min(self.image_size.trailing_zeros() as usize - 2);
        let mut net = Sequential::new();
        let mut in_ch = self.in_channels + self.out_channels;
        for i in 0..levels {
            let out_ch = self.ch(i);
            net.push(Conv2d::new(in_ch, out_ch, 5, 2, 2, &mut rng));
            if i > 0 {
                net.push(BatchNorm2d::new(out_ch));
            }
            net.push(LeakyRelu::new(self.leaky_slope));
            in_ch = out_ch;
        }
        let spatial = self.image_size >> levels;
        net.push(Flatten::new());
        net.push(Linear::new(in_ch * spatial * spatial, 1, &mut rng));
        net
    }

    /// Builds the centre-prediction CNN of Table 2: a 7 × 7 stem then
    /// 3 × 3 Conv-ReLU-BN-MaxPool blocks down to an 8 × 8 map, a 64-unit
    /// FC with ReLU + dropout, and a 2-unit regression head.
    pub fn build_center_cnn(&self, seed: u64) -> Sequential {
        self.build_regression_cnn(seed, self.in_channels, 2)
    }

    /// Builds a Table-2-style regression CNN with arbitrary input channel
    /// count and output dimension (the Ref. \[12\] baseline's threshold
    /// predictor uses 1 input channel and 4 outputs).
    pub fn build_regression_cnn(&self, seed: u64, in_channels: usize, outputs: usize) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        // Pool down to 8x8 (paper: 256 → five pools → 8).
        let levels = (self.image_size.trailing_zeros() as usize).saturating_sub(3).max(1);
        let cnn_ch = |i: usize| if i == 0 { 32 } else { 64 };
        let mut net = Sequential::new();
        let mut in_ch = in_channels;
        for i in 0..levels {
            let k = if i == 0 { 7 } else { 3 };
            let out_ch = cnn_ch(i);
            net.push(Conv2d::new(in_ch, out_ch, k, 1, k / 2, &mut rng));
            net.push(Relu::new());
            net.push(BatchNorm2d::new(out_ch));
            net.push(MaxPool2d::new(2, 2));
            in_ch = out_ch;
        }
        let spatial = self.image_size >> levels;
        net.push(Flatten::new());
        net.push(Linear::new(in_ch * spatial * spatial, 64, &mut rng));
        net.push(Relu::new());
        net.push(Dropout::new(self.dropout_p, seed.wrapping_add(99)));
        net.push(Linear::new(64, outputs, &mut rng));
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litho_nn::{Layer, Phase};
    use litho_tensor::Tensor;

    #[test]
    fn scaled_generator_shapes() {
        let cfg = NetConfig::scaled(32);
        let mut g = cfg.build_generator(0);
        let x = Tensor::zeros(&[2, 3, 32, 32]);
        let y = g.forward(&x, Phase::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 1, 32, 32]);
        // Output through tanh: bounded.
        assert!(y.max() <= 1.0 && y.min() >= -1.0);
    }

    #[test]
    fn scaled_discriminator_shapes() {
        let cfg = NetConfig::scaled(32);
        let mut d = cfg.build_discriminator(0);
        let xy = Tensor::zeros(&[4, 4, 32, 32]);
        let out = d.forward(&xy, Phase::Eval).unwrap();
        assert_eq!(out.dims(), &[4, 1]);
    }

    #[test]
    fn scaled_center_cnn_shapes() {
        let cfg = NetConfig::scaled(32);
        let mut c = cfg.build_center_cnn(0);
        let x = Tensor::zeros(&[3, 3, 32, 32]);
        let out = c.forward(&x, Phase::Eval).unwrap();
        assert_eq!(out.dims(), &[3, 2]);
    }

    #[test]
    fn paper_architecture_matches_table1_depth() {
        let cfg = NetConfig::paper();
        assert_eq!(cfg.encoder_levels(), 8);
        // 8 encoder convs (Table 1's input + 8 rows) and 8 decoder deconvs.
        let g = cfg.build_generator(0);
        let names = g.layer_names();
        let convs = names.iter().filter(|n| n.starts_with("Conv2d")).count();
        let deconvs = names.iter().filter(|n| n.starts_with("ConvTranspose2d")).count();
        let dropouts = names.iter().filter(|n| n.starts_with("Dropout")).count();
        assert_eq!(convs, 8);
        assert_eq!(deconvs, 8);
        assert_eq!(dropouts, 2); // Table 1: dropout after the first two deconv blocks
        // Channel cap at 512 = 64 * 8.
        assert!(names.iter().any(|n| n.contains("512")));
        assert!(!names.iter().any(|n| n.contains("1024")));
    }

    #[test]
    fn paper_generator_forward_shape() {
        // One shape-level sanity pass at full paper scale (batch 1).
        let cfg = NetConfig::paper();
        let mut g = cfg.build_generator(0);
        let x = Tensor::zeros(&[1, 3, 256, 256]);
        let y = g.forward(&x, Phase::Eval).unwrap();
        assert_eq!(y.dims(), &[1, 1, 256, 256]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn scaled_rejects_non_power_of_two() {
        NetConfig::scaled(48);
    }

    #[test]
    fn generator_is_deterministic_in_seed() {
        let cfg = NetConfig::scaled(16);
        let mut a = cfg.build_generator(5);
        let mut b = cfg.build_generator(5);
        let x = Tensor::ones(&[1, 3, 16, 16]);
        assert_eq!(
            a.forward(&x, Phase::Eval).unwrap(),
            b.forward(&x, Phase::Eval).unwrap()
        );
    }
}
