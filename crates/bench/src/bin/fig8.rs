//! Reproduces **Figure 8**: how the generated resist pattern for two test
//! clips evolves over training epochs (the paper snapshots epochs
//! 1, 3, 5, 7, 15, 27, 50, 80). Snapshot epochs are scaled to the run's
//! epoch budget; panels are written to `target/experiments/fig8/`.
//!
//! Run: `cargo run --release -p lithogan-bench --bin fig8 [--quick|--paper]`

use std::process::ExitCode;

use litho_layout::image::{overlay_panel, write_ppm};
use litho_ledger::RunLedger;
use litho_tensor::Result;
use lithogan::{LithoGan, TrainConfig};
use lithogan_bench::{dataset, out_dir, run_experiment, Node, Scale};

/// The paper's snapshot epochs, rescaled from its 80-epoch budget.
fn snapshot_epochs(total: usize) -> Vec<usize> {
    let paper = [1usize, 3, 5, 7, 15, 27, 50, 80];
    let mut out: Vec<usize> = paper
        .iter()
        .map(|&e| ((e * total).div_ceil(80)).clamp(1, total))
        .collect();
    out.dedup();
    out
}

fn main() -> ExitCode {
    run_experiment(run)
}

fn run(scale: &Scale, ledger: &mut Option<RunLedger>) -> Result<()> {
    let dir = out_dir().join("fig8");
    std::fs::create_dir_all(&dir)
        .map_err(|e| litho_tensor::TensorError::InvalidArgument(e.to_string()))?;
    println!("# Figure 8 reproduction — scale: {} -> {}", scale.label, dir.display());

    let ds = dataset(Node::N10, scale, ledger)?;
    let (train, test) = ds.split();
    let samples: Vec<_> = test.iter().take(2).copied().collect();
    let snaps = snapshot_epochs(scale.epochs);
    println!("snapshot epochs: {snaps:?} (paper: 1,3,5,7,15,27,50,80)");

    let net = scale.net_config();
    let cfg: TrainConfig = scale.train_config(0);
    let mut model = LithoGan::new(&net, 0);

    // Train the CGAN with per-epoch snapshots; epoch indices are 0-based
    // in the callback, 1-based in the figure.
    let pairs: Vec<lithogan::TrainPair> = train
        .iter()
        .map(|s| lithogan::TrainPair::from_dataset(&s.mask, &s.golden_centered))
        .collect::<Result<Vec<_>>>()?;
    let dir_ref = &dir;
    let samples_ref = &samples;
    model.cgan.train(&pairs, &cfg, |epoch, cgan| {
        let shown = epoch + 1;
        if !snaps.contains(&shown) {
            return;
        }
        for (row, s) in samples_ref.iter().enumerate() {
            if let Ok(pred) = cgan.predict(&s.mask) {
                let bin = pred.map(|v| if v >= 0.5 { 1.0 } else { 0.0 });
                if let Ok(panel) = overlay_panel(&bin, &s.golden_centered) {
                    let path = dir_ref.join(format!("row{row}_epoch{shown:03}.ppm"));
                    let _ = write_ppm(&panel, path);
                }
            }
        }
        eprintln!("  snapshot at epoch {shown}");
    })?;

    // Also store the inputs for the figure's leftmost column.
    for (row, s) in samples.iter().enumerate() {
        write_ppm(&s.mask, dir.join(format!("row{row}_input.ppm")))?;
    }
    println!("wrote snapshots for {} samples to {}", samples.len(), dir.display());
    Ok(())
}
