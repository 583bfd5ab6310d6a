//! Ablation study of the design choices called out in DESIGN.md §5:
//!
//! 1. λ (the ℓ1 weight of Eq. 3) — sweep {0, 1, 10, 100}.
//! 2. ℓ1 vs ℓ2 reconstruction loss (the paper argues ℓ1 "encourages less
//!    blurring").
//! 3. The RGB object-class color encoding vs a flat binary mask (paper
//!    §3.1: the coloring "helps the model discriminate these objects").
//! 4. Recentring — CGAN vs LithoGAN (the paper's core contribution;
//!    quantified in Table 3 / Figure 7 and re-measured here).
//!
//! Run: `cargo run --release -p lithogan-bench --bin ablate [--quick|--paper]`

use std::process::ExitCode;

use litho_ledger::RunLedger;
use litho_tensor::{Result, Tensor};
use lithogan::{Cgan, LithoGan, ReconLoss, TrainConfig, TrainPair};
use lithogan_bench::{dataset, evaluate, run_experiment, Node, Scale};

/// Collapses the RGB object-class encoding into a flat "every shape is
/// the same color" mask replicated on all three channels.
fn collapse_colors(mask: &Tensor) -> Result<Tensor> {
    let dims = mask.dims();
    let (s, plane) = (dims[1], dims[1] * dims[2]);
    let data = mask.as_slice();
    let mut flat = vec![0.0f32; plane];
    for c in 0..3 {
        for i in 0..plane {
            flat[i] = (flat[i] + data[c * plane + i]).min(1.0);
        }
    }
    let mut out = Vec::with_capacity(3 * plane);
    for _ in 0..3 {
        out.extend_from_slice(&flat);
    }
    Tensor::from_vec(out, &[3, s, s])
}

fn main() -> ExitCode {
    run_experiment(run)
}

fn run(scale: &Scale, ledger: &mut Option<RunLedger>) -> Result<()> {
    println!("# Ablation studies — scale: {}", scale.label);
    let ds = dataset(Node::N10, scale, ledger)?;
    let (train, test) = ds.split();
    let nmpp = ds.config.golden_nm_per_px();
    let net = scale.net_config();

    let centered_pairs: Vec<TrainPair> = train
        .iter()
        .map(|s| TrainPair::from_dataset(&s.mask, &s.golden_centered))
        .collect::<Result<Vec<_>>>()?;

    println!("\n## 1+2. λ sweep and reconstruction-loss flavour (CGAN on centred targets)");
    println!("{:<18} {:>8} {:>9} {:>9}", "config", "EDE", "MeanIoU", "PixAcc");
    for (label, lambda, recon) in [
        ("λ=0 (GAN only)", 0.0, ReconLoss::L1),
        ("λ=1", 1.0, ReconLoss::L1),
        ("λ=10", 10.0, ReconLoss::L1),
        ("λ=100 (paper)", 100.0, ReconLoss::L1),
        ("λ=100, ℓ2", 100.0, ReconLoss::L2),
    ] {
        let cfg = TrainConfig {
            lambda,
            recon,
            ..scale.train_config(0)
        };
        let mut cgan = Cgan::with_train_config(&net, &cfg, 11);
        cgan.train(&centered_pairs, &cfg, |_, _| {})?;
        let (summary, _) = evaluate(&test, nmpp, |s| cgan.predict(&s.mask))?;
        println!(
            "{label:<18} {:>8.2} {:>9.4} {:>9.4}",
            summary.ede_mean_nm, summary.mean_iou, summary.pixel_accuracy
        );
    }

    println!("\n## 3. Color encoding: RGB object classes vs flat binary mask");
    for (label, collapse) in [("RGB encoding (paper)", false), ("flat binary mask", true)] {
        let cfg = scale.train_config(0);
        let mut model = LithoGan::new(&net, 21);
        if collapse {
            let flat: Vec<litho_dataset::Sample> = train
                .iter()
                .map(|s| {
                    let mut c = (*s).clone();
                    c.mask = collapse_colors(&s.mask)?;
                    Ok(c)
                })
                .collect::<Result<Vec<_>>>()?;
            let refs: Vec<&litho_dataset::Sample> = flat.iter().collect();
            model.train(&refs, &cfg, |_, _| {})?;
            let (summary, _) = evaluate(&test, nmpp, |s| {
                let m = collapse_colors(&s.mask)?;
                model.predict(&m)
            })?;
            println!(
                "{label:<22} EDE {:.2} nm, mean IoU {:.4}",
                summary.ede_mean_nm, summary.mean_iou
            );
        } else {
            model.train(&train, &cfg, |_, _| {})?;
            let (summary, _) = evaluate(&test, nmpp, |s| model.predict(&s.mask))?;
            println!(
                "{label:<22} EDE {:.2} nm, mean IoU {:.4}",
                summary.ede_mean_nm, summary.mean_iou
            );
        }
    }

    println!("\n## 4. Recentring: CGAN (uncentred targets) vs LithoGAN (dual learning)");
    {
        let cfg = scale.train_config(0);
        let uncentered: Vec<TrainPair> = train
            .iter()
            .map(|s| TrainPair::from_dataset(&s.mask, &s.golden))
            .collect::<Result<Vec<_>>>()?;
        let mut cgan = Cgan::with_train_config(&net, &cfg, 31);
        cgan.train(&uncentered, &cfg, |_, _| {})?;
        let (cg, _) = evaluate(&test, nmpp, |s| cgan.predict(&s.mask))?;

        let mut model = LithoGan::new(&net, 31);
        model.train(&train, &cfg, |_, _| {})?;
        let (lg, _) = evaluate(&test, nmpp, |s| model.predict(&s.mask))?;
        println!("CGAN:     EDE {:.2} nm, centre error {:.2} nm", cg.ede_mean_nm, cg.center_error_nm);
        println!("LithoGAN: EDE {:.2} nm, centre error {:.2} nm", lg.ede_mean_nm, lg.center_error_nm);
    }
    Ok(())
}
