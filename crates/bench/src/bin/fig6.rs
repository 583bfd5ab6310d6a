//! Reproduces **Figure 6**: per-sample visual panels of (a) the mask
//! input, (b) the CGAN output and (c) the LithoGAN output, with the
//! golden contour outlined in black and the prediction filled green with
//! a red outline. Writes PPM images to `target/experiments/fig6/`,
//! covering at least one sample of each contact-array family.
//!
//! Run: `cargo run --release -p lithogan-bench --bin fig6 [--quick|--paper]`

use std::process::ExitCode;

use litho_layout::image::{overlay_panel, write_ppm};
use litho_layout::ClipFamily;
use litho_ledger::RunLedger;
use litho_tensor::{Result, Tensor};
use lithogan_bench::{dataset, out_dir, run_experiment, train_all, Node, Scale};

fn binarize(image: &Tensor) -> Tensor {
    image.map(|v| if v >= 0.5 { 1.0 } else { 0.0 })
}

fn main() -> ExitCode {
    run_experiment(run)
}

fn run(scale: &Scale, ledger: &mut Option<RunLedger>) -> Result<()> {
    let dir = out_dir().join("fig6");
    std::fs::create_dir_all(&dir)
        .map_err(|e| litho_tensor::TensorError::InvalidArgument(e.to_string()))?;
    println!("# Figure 6 reproduction — scale: {} -> {}", scale.label, dir.display());

    let node = Node::N10;
    let ds = dataset(node, scale, ledger)?;
    let (_, test) = ds.split();
    let mut trained = train_all(&ds, scale, 0)?;

    // One sample per family (plus a second Array2d like the paper's 4 rows).
    let mut picks = Vec::new();
    for family in ClipFamily::ALL {
        if let Some(s) = test.iter().find(|s| s.family == family) {
            picks.push(*s);
        }
    }
    if let Some(s) = test.iter().filter(|s| s.family == ClipFamily::Array2d).nth(1) {
        picks.push(*s);
    }

    for (row, s) in picks.iter().enumerate() {
        let mask_path = dir.join(format!("row{row}_{:?}_mask.ppm", s.family));
        write_ppm(&s.mask, &mask_path)?;

        let cgan_out = binarize(&trained.cgan.predict(&s.mask)?);
        let cgan_panel = overlay_panel(&cgan_out, &s.golden)?;
        write_ppm(&cgan_panel, dir.join(format!("row{row}_{:?}_cgan.ppm", s.family)))?;

        let lg_out = binarize(&trained.lithogan.predict(&s.mask)?);
        let lg_panel = overlay_panel(&lg_out, &s.golden)?;
        write_ppm(&lg_panel, dir.join(format!("row{row}_{:?}_lithogan.ppm", s.family)))?;

        // Quantified caption per row.
        let nmpp = ds.config.golden_nm_per_px();
        let ede = |pred: &Tensor| -> String {
            litho_metrics::ede(pred, &s.golden, nmpp)
                .map(|e| format!("{:.2} nm", e.mean_nm()))
                .unwrap_or_else(|_| "n/a (empty)".into())
        };
        println!(
            "row {row} [{:?}]: CGAN EDE {} | LithoGAN EDE {}",
            s.family,
            ede(&cgan_out),
            ede(&lg_out)
        );
    }
    println!("wrote {} panels to {}", picks.len() * 3, dir.display());
    Ok(())
}
