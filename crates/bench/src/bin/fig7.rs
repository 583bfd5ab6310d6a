//! Reproduces **Figure 7**: the distribution (histogram) of per-sample
//! EDE values for CGAN vs LithoGAN over the test set. LithoGAN's
//! distribution should concentrate at lower EDE. Prints ASCII histograms
//! and writes `target/experiments/fig7.csv`.
//!
//! Run: `cargo run --release -p lithogan-bench --bin fig7 [--quick|--paper]`

use std::io::Write;
use std::process::ExitCode;

use litho_ledger::RunLedger;
use litho_metrics::Histogram;
use litho_tensor::Result;
use lithogan_bench::{dataset, evaluate, out_dir, run_experiment, train_all, Node, Scale};

fn main() -> ExitCode {
    run_experiment(run)
}

fn run(scale: &Scale, ledger: &mut Option<RunLedger>) -> Result<()> {
    println!("# Figure 7 reproduction — scale: {}", scale.label);

    let node = Node::N10;
    let ds = dataset(node, scale, ledger)?;
    let (_, test) = ds.split();
    let nmpp = ds.config.golden_nm_per_px();
    let mut trained = train_all(&ds, scale, 0)?;

    let (_, cgan_ede) = evaluate(&test, nmpp, |s| trained.cgan.predict(&s.mask))?;
    let (_, lg_ede) = evaluate(&test, nmpp, |s| trained.lithogan.predict(&s.mask))?;

    let max = cgan_ede
        .iter()
        .chain(&lg_ede)
        .copied()
        .fold(1.0f64, f64::max)
        .ceil();
    let bins = (max as usize).clamp(8, 16);
    let mut h_cgan = Histogram::new(0.0, max, bins)?;
    h_cgan.extend(cgan_ede.iter().copied());
    let mut h_lg = Histogram::new(0.0, max, bins)?;
    h_lg.extend(lg_ede.iter().copied());

    println!("\nCGAN EDE distribution (nm):");
    print!("{}", h_cgan.to_ascii(40));
    println!("\nLithoGAN EDE distribution (nm):");
    print!("{}", h_lg.to_ascii(40));

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "\nmeans: CGAN {:.2} nm, LithoGAN {:.2} nm (paper: LithoGAN shifts mass to lower EDE)",
        mean(&cgan_ede),
        mean(&lg_ede)
    );

    let csv = out_dir().join("fig7.csv");
    let mut f = std::fs::File::create(&csv)
        .map_err(|e| litho_tensor::TensorError::InvalidArgument(e.to_string()))?;
    writeln!(f, "bin_lo,bin_hi,cgan,lithogan")
        .map_err(|e| litho_tensor::TensorError::InvalidArgument(e.to_string()))?;
    for i in 0..bins {
        let (lo, hi) = h_cgan.bin_edges(i);
        writeln!(f, "{lo},{hi},{},{}", h_cgan.counts()[i], h_lg.counts()[i])
            .map_err(|e| litho_tensor::TensorError::InvalidArgument(e.to_string()))?;
    }
    println!("wrote {}", csv.display());
    Ok(())
}
