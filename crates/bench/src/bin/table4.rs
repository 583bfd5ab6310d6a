//! Reproduces **Table 4**: runtime comparison between rigorous
//! simulation, the Ref \[12\] flow (optical sim + ML threshold prediction +
//! contour processing) and CGAN/LithoGAN inference, over a full test set.
//!
//! The paper reports >15 h rigorous, 80 m optical + 8 s ML + 15 m contour,
//! and 30 s for LithoGAN (ratios ≈ 1800 : 190 : 1). Absolute numbers here
//! differ (our "rigorous" simulator is itself fast), but the ordering and
//! the orders-of-magnitude gaps are the reproduction target.
//!
//! Run: `cargo run --release -p lithogan-bench --bin table4 [--quick|--paper]`

use std::process::ExitCode;
use std::time::Duration;

use litho_ledger::RunLedger;
use litho_sim::RigorousSim;
use litho_tensor::Result;
use lithogan_bench::{dataset, run_experiment, train_all, Node, Scale};

fn fmt(d: Duration) -> String {
    if d.as_secs() >= 60 {
        format!("{:.1} min", d.as_secs_f64() / 60.0)
    } else if d.as_secs_f64() >= 1.0 {
        format!("{:.2} s", d.as_secs_f64())
    } else {
        format!("{:.1} ms", d.as_secs_f64() * 1e3)
    }
}

fn main() -> ExitCode {
    run_experiment(run)
}

fn run(scale: &Scale, ledger: &mut Option<RunLedger>) -> Result<()> {
    println!("# Table 4 reproduction — scale: {}", scale.label);

    for node in Node::ALL {
        let ds = dataset(node, scale, ledger)?;
        let (_, test) = ds.split();
        let mut trained = train_all(&ds, scale, 0)?;

        // Rigorous simulation over the test set.
        let sim = RigorousSim::new(
            &ds.config.process,
            ds.config.sim_grid,
            2048.0 / ds.config.sim_grid as f64,
        )?;
        let mut rigorous = Duration::ZERO;
        for s in &test {
            let (_, report) = sim.simulate(&s.clip.to_mask_grid(ds.config.sim_grid))?;
            rigorous += report.total_time();
        }

        // Ref [12] staged flow.
        let (mut optical, mut ml, mut contour) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for s in &test {
            let p = trained.baseline.predict(s)?;
            optical += p.optical_time;
            ml += p.ml_time;
            contour += p.contour_time;
        }
        let ref12 = optical + ml + contour;

        // LithoGAN inference.
        let mut lithogan = Duration::ZERO;
        for s in &test {
            lithogan += trained.lithogan.predict_detailed(&s.mask)?.elapsed;
        }

        let ratio = |d: Duration| d.as_secs_f64() / lithogan.as_secs_f64().max(1e-12);
        println!();
        println!(
            "{} ({} test clips):",
            node.name(),
            test.len()
        );
        println!("  {:<28} {:>10}  ratio vs LithoGAN", "Method", "Time");
        println!("  {:<28} {:>10}  {:>6.0}x", "Rigorous sim", fmt(rigorous), ratio(rigorous));
        println!(
            "  {:<28} {:>10}  {:>6.0}x   (optical {} + ML {} + contour {})",
            "Ref[12] flow",
            fmt(ref12),
            ratio(ref12),
            fmt(optical),
            fmt(ml),
            fmt(contour)
        );
        println!("  {:<28} {:>10}  {:>6.1}x", "LithoGAN", fmt(lithogan), 1.0);
    }
    println!();
    println!("Paper Table 4: rigorous >15 h (~1800x), Ref[12] 80m+8s+15m (~190x), LithoGAN 30 s (1x)");
    Ok(())
}
