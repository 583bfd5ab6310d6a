//! Pins the bits of trained models: a few cGAN D/G steps and centre-CNN
//! steps, driven as perfbench's `train_small` workload drives them, must
//! leave every parameter bit-identical to the recorded digests at each
//! kernel level and at one and two pool threads.
//!
//! A change that moves training numerics on purpose updates the digests
//! below and says why in CHANGES.md.

use litho_nn::{Layer, Sequential};
use litho_tensor::rng::{Rng, SeedableRng, StdRng};
use litho_tensor::{detect_level, pool, with_level, Fnv1a, KernelLevel, Tensor};
use lithogan::{CenterCnn, Cgan, NetConfig, TrainConfig, TrainPair};

const IMAGE: usize = 32;
const BATCH: usize = 4;
const STEPS: usize = 3;

/// FNV-1a of every parameter's bits (G, then D, then C) after training.
const SCALAR_DIGEST: &str = "58b41871346e56c3";
const AVX2_DIGEST: &str = "33729f7369488c74";

fn uniform(rng: &mut StdRng, dims: &[usize], lo: f32, hi: f32) -> Tensor {
    let len = dims.iter().product();
    Tensor::from_vec((0..len).map(|_| rng.gen_range(lo..hi)).collect(), dims).unwrap()
}

fn hash_params(hash: &mut Fnv1a, net: &mut Sequential) {
    net.visit_params(&mut |p| {
        for v in p.value.as_slice() {
            hash.write(&v.to_bits().to_le_bytes());
        }
    });
}

/// Trains fresh nets for `STEPS` steps each and returns their digest.
fn trained_digest() -> String {
    let mut rng = StdRng::seed_from_u64(5);
    let pairs: Vec<TrainPair> = (0..BATCH)
        .map(|_| TrainPair {
            input: uniform(&mut rng, &[3, IMAGE, IMAGE], -1.0, 1.0),
            target: uniform(&mut rng, &[1, IMAGE, IMAGE], -1.0, 1.0),
        })
        .collect();
    let centers: Vec<(Tensor, (f32, f32))> = (0..BATCH)
        .map(|_| {
            let mask = uniform(&mut rng, &[3, IMAGE, IMAGE], 0.0, 1.0);
            let mid = (IMAGE as f32 - 1.0) / 2.0;
            (mask, (mid + rng.gen_range(-3.0f32..3.0), mid + rng.gen_range(-3.0f32..3.0)))
        })
        .collect();

    let net = NetConfig::scaled(IMAGE);
    assert!(net.dropout_p > 0.0, "the pinned steps run with dropout on");
    let cfg = TrainConfig {
        batch_size: BATCH,
        seed: 1,
        ..TrainConfig::paper()
    };
    let mut cgan = Cgan::with_train_config(&net, &cfg, cfg.seed);
    let mut center = CenterCnn::new(&net, cfg.seed.wrapping_add(7));
    for step in 0..STEPS {
        cgan.train_epoch(&pairs, &cfg, step).unwrap();
        center.train_epoch(&centers, &cfg, step).unwrap();
    }

    let mut hash = Fnv1a::new();
    hash_params(&mut hash, cgan.generator_mut());
    hash_params(&mut hash, cgan.discriminator_mut());
    hash_params(&mut hash, center.network_mut());
    hash.hex()
}

#[test]
fn trained_parameters_are_pinned_at_every_level_and_thread_count() {
    // One test: the pool width is process-global.
    let mut levels = vec![(KernelLevel::Scalar, SCALAR_DIGEST)];
    if detect_level() >= KernelLevel::Avx2 {
        levels.push((KernelLevel::Avx2, AVX2_DIGEST));
    }
    for threads in [1, 2] {
        pool::configure_threads(threads);
        for &(level, want) in &levels {
            let got = with_level(level, trained_digest);
            assert_eq!(got, want, "{level:?} at {threads} thread(s)");
        }
    }
    pool::configure_threads(0);
}
