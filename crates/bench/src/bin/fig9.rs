//! Reproduces **Figure 9**: the generator and discriminator loss curves
//! over training epochs (the paper's model converges after ~50 of 80
//! epochs). Prints an ASCII chart and writes `target/experiments/fig9.csv`.
//!
//! Run: `cargo run --release -p lithogan-bench --bin fig9 [--quick|--paper]`

use std::io::Write;
use std::process::ExitCode;

use litho_ledger::RunLedger;
use litho_tensor::Result;
use lithogan::{LithoGan, TrainPair};
use lithogan_bench::{dataset, out_dir, run_experiment, Node, Scale};

fn ascii_series(label: &str, values: &[f32], width: usize) {
    let max = values.iter().copied().fold(f32::MIN, f32::max).max(1e-6);
    println!("{label} (max {max:.2}):");
    for (i, &v) in values.iter().enumerate() {
        let bar = "#".repeat(((v / max) * width as f32).round() as usize);
        println!("  epoch {:>3} {:>8.3} {bar}", i + 1, v);
    }
}

fn main() -> ExitCode {
    run_experiment(run)
}

fn run(scale: &Scale, ledger: &mut Option<RunLedger>) -> Result<()> {
    println!("# Figure 9 reproduction — scale: {}", scale.label);

    let ds = dataset(Node::N10, scale, ledger)?;
    let (train, _) = ds.split();
    let net = scale.net_config();
    let cfg = scale.train_config(0);

    let mut model = LithoGan::new(&net, 0);
    let pairs: Vec<TrainPair> = train
        .iter()
        .map(|s| TrainPair::from_dataset(&s.mask, &s.golden_centered))
        .collect::<Result<Vec<_>>>()?;
    let history = model.cgan.train(&pairs, &cfg, |_, _| {})?;

    ascii_series("Generator loss", &history.g_loss, 40);
    ascii_series("Discriminator loss", &history.d_loss, 40);

    let csv = out_dir().join("fig9.csv");
    let mut f = std::fs::File::create(&csv)
        .map_err(|e| litho_tensor::TensorError::InvalidArgument(e.to_string()))?;
    writeln!(f, "epoch,g_loss,d_loss")
        .map_err(|e| litho_tensor::TensorError::InvalidArgument(e.to_string()))?;
    for (i, (g, d)) in history.g_loss.iter().zip(&history.d_loss).enumerate() {
        writeln!(f, "{},{g},{d}", i + 1)
            .map_err(|e| litho_tensor::TensorError::InvalidArgument(e.to_string()))?;
    }
    println!("wrote {}", csv.display());
    println!("(paper: generator loss decays and flattens after ~50/80 epochs; discriminator stays low)");
    Ok(())
}
