//! Per-clip prediction cost — Table 4 in microbenchmark form: rigorous
//! simulation vs one LithoGAN forward pass, plus the telemetry overhead
//! check (instrumented `predict` with telemetry disabled vs enabled must
//! differ by well under a few percent; the disabled path is one atomic
//! load per span site).
//!
//! Flags: `--samples=N`, `--min-sample-ms=N`, `--quick`, `--trace`,
//! `--metrics-out FILE`.

use std::process::ExitCode;

use litho_sim::RigorousSim;
use litho_tensor::Tensor;
use lithogan::{LithoGan, NetConfig};
use lithogan_bench::microbench::{fmt_duration, MicroBench};
use lithogan_bench::{dataset, Node, Scale};

fn main() -> ExitCode {
    lithogan_bench::run_microbench("inference", bench)
}

fn bench(mb: &MicroBench) {
    let scale = Scale::quick();
    let ds = dataset(Node::N10, &scale, &mut None).expect("dataset");
    let sample = &ds.samples[0];
    let grid = ds.config.sim_grid;

    // Rigorous golden flow per clip.
    let sim = RigorousSim::new(&ds.config.process, grid, 2048.0 / grid as f64).expect("sim");
    let mask_grid = sample.clip.to_mask_grid(grid);
    mb.run("rigorous_per_clip", || sim.simulate(&mask_grid).unwrap());

    // LithoGAN forward per clip (untrained weights time identically).
    let net = scale.net_config();
    let mut model = LithoGan::new(&net, 0);
    let mask = sample.mask.clone();
    mb.run("lithogan_per_clip", || model.predict(&mask).unwrap());

    // Generator-only forward at the standard experiment scale.
    let net64 = NetConfig::scaled(64);
    let mut model64 = LithoGan::new(&net64, 0);
    let mask64 = Tensor::zeros(&[3, 64, 64]);

    // Telemetry overhead: the same predict with spans disabled vs live.
    // `lithogan_per_clip_64px` above already timed this exact call, so
    // off-vs-that is the disabled-mode overhead (one atomic load per
    // instrumentation site — should sit inside run-to-run noise), while
    // on-vs-off is the cost of actually recording spans and histograms.
    let baseline = mb.run("lithogan_per_clip_64px", || model64.predict(&mask64).unwrap());
    let was_enabled = litho_telemetry::is_enabled();
    litho_telemetry::disable();
    let off = mb.run("predict_telemetry_off", || model64.predict(&mask64).unwrap());
    litho_telemetry::enable();
    let on = mb.run("predict_telemetry_on", || model64.predict(&mask64).unwrap());
    if !was_enabled {
        litho_telemetry::disable();
    }
    // Compare fastest samples: the min is the least noise-sensitive
    // statistic for a fixed workload on a shared machine.
    let disabled = (off.min.as_secs_f64() / baseline.min.as_secs_f64() - 1.0) * 100.0;
    let recording = (on.min.as_secs_f64() / off.min.as_secs_f64() - 1.0) * 100.0;
    println!(
        "disabled-telemetry overhead on predict: {disabled:+.2}% (baseline min {}, off min {})",
        fmt_duration(baseline.min),
        fmt_duration(off.min),
    );
    println!(
        "enabled-telemetry recording cost on predict: {recording:+.2}% (off min {}, on min {})",
        fmt_duration(off.min),
        fmt_duration(on.min),
    );
}
