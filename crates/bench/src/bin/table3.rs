//! Reproduces **Table 3**: EDE (mean/std), pixel accuracy, class accuracy
//! and mean IoU for Ref \[12\] / CGAN / LithoGAN on the N10 and N7
//! datasets, plus the §4.1 centre-prediction error (0.43 nm N10,
//! 0.37 nm N7 in the paper). Averages over `--seeds=N` runs (paper: 5).
//!
//! Run: `cargo run --release -p lithogan-bench --bin table3 [--quick|--paper]`

use std::process::ExitCode;

use litho_ledger::RunLedger;
use litho_metrics::MetricSummary;
use litho_tensor::Result;
use lithogan_bench::{
    dataset, evaluate, format_row, run_experiment, table3_header, train_all, Node, Scale,
};

fn mean_summary(list: &[MetricSummary]) -> MetricSummary {
    let n = list.len().max(1) as f64;
    MetricSummary {
        samples: list.first().map(|s| s.samples).unwrap_or(0),
        ede_mean_nm: list.iter().map(|s| s.ede_mean_nm).sum::<f64>() / n,
        ede_std_nm: list.iter().map(|s| s.ede_std_nm).sum::<f64>() / n,
        ede_edge_mean_nm: {
            let mut edges = [0.0; 4];
            for s in list {
                for (acc, e) in edges.iter_mut().zip(s.ede_edge_mean_nm) {
                    *acc += e / n;
                }
            }
            edges
        },
        pixel_accuracy: list.iter().map(|s| s.pixel_accuracy).sum::<f64>() / n,
        class_accuracy: list.iter().map(|s| s.class_accuracy).sum::<f64>() / n,
        mean_iou: list.iter().map(|s| s.mean_iou).sum::<f64>() / n,
        center_error_nm: list.iter().map(|s| s.center_error_nm).sum::<f64>() / n,
        skipped: list.iter().map(|s| s.skipped).sum(),
        // Per-seed slice aggregates don't average meaningfully here; the
        // table reports the paper's aggregate axes only.
        slices: Vec::new(),
    }
}

fn main() -> ExitCode {
    run_experiment(run)
}

fn run(scale: &Scale, ledger: &mut Option<RunLedger>) -> Result<()> {
    println!("# Table 3 reproduction — scale: {}", scale.label);
    println!("{}", table3_header());

    for node in Node::ALL {
        let ds = dataset(node, scale, ledger)?;
        let (_, test) = ds.split();
        let nmpp = ds.config.golden_nm_per_px();

        let mut rows: [Vec<MetricSummary>; 3] = Default::default();
        let mut center_err_nm = Vec::new();
        for seed in 0..scale.seeds as u64 {
            let mut trained = train_all(&ds, scale, seed)?;

            let (baseline_summary, _) =
                evaluate(&test, nmpp, |s| Ok(trained.baseline.predict(s)?.image))?;
            let (cgan_summary, _) = evaluate(&test, nmpp, |s| trained.cgan.predict(&s.mask))?;
            let (lg_summary, _) = evaluate(&test, nmpp, |s| trained.lithogan.predict(&s.mask))?;
            rows[0].push(baseline_summary);
            rows[1].push(cgan_summary);
            rows[2].push(lg_summary);

            // §4.1 centre-prediction error of the CNN alone.
            let mut err = 0.0f64;
            for s in &test {
                let (py, px) = trained.lithogan.center.predict(&s.mask)?;
                err += (((py - s.center_px.0).powi(2) + (px - s.center_px.1).powi(2)) as f64)
                    .sqrt()
                    * nmpp;
            }
            center_err_nm.push(err / test.len() as f64);
        }

        for (method, list) in ["Ref[12]", "CGAN", "LithoGAN"].iter().zip(&rows) {
            println!("{}", format_row(node.name(), method, &mean_summary(list)));
        }
        println!(
            "{:<5} CNN centre-prediction error: {:.2} nm (paper: {})",
            node.name(),
            center_err_nm.iter().sum::<f64>() / center_err_nm.len() as f64,
            if node == Node::N10 { "0.43 nm" } else { "0.37 nm" }
        );
    }
    println!();
    println!("Paper Table 3 (for shape comparison):");
    println!("  N10  Ref[12] 0.67/0.55 0.98 0.99 0.98 | CGAN 1.52/0.95 0.96 0.97 0.94 | LithoGAN 1.08/0.88 0.97 0.98 0.96");
    println!("  N7   Ref[12] 0.55/0.53 0.99 0.99 0.98 | CGAN 1.21/0.77 0.98 0.98 0.96 | LithoGAN 0.88/0.67 0.99 0.99 0.97");
    Ok(())
}
