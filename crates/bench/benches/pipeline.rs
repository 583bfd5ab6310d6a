//! Microbenches for the data-preparation pipeline: clip generation, SRAF
//! insertion, model-based OPC and rasterisation (the Mentor-Calibre
//! substitute of DESIGN.md's inventory).
//!
//! Flags: `--samples=N`, `--min-sample-ms=N`, `--quick`, `--trace`,
//! `--metrics-out FILE`, `--json-out FILE` (merge medians into a
//! `BENCH_KERNELS.json` for the `perf_gate` bin).

use std::process::ExitCode;

use litho_tensor::rng::SeedableRng;

use litho_layout::{
    insert_srafs, rasterize_clip, ClipFamily, ClipGenerator, OpcConfig, OpcEngine, RasterConfig,
    SrafRules,
};
use litho_sim::ProcessConfig;
use lithogan_bench::microbench::MicroBench;

fn main() -> ExitCode {
    lithogan_bench::run_microbench("pipeline", bench)
}

fn bench(mb: &MicroBench) {
    let process = ProcessConfig::n10();
    let generator = ClipGenerator::new(&process);
    let rules = SrafRules::for_process(&process);
    let opc = OpcEngine::new(&process, 2048.0, OpcConfig::default()).unwrap();

    let mut rng = litho_tensor::rng::StdRng::seed_from_u64(0);
    mb.run("clip_generate", || {
        generator.generate(ClipFamily::Array2d, &mut rng)
    });

    let mut rng = litho_tensor::rng::StdRng::seed_from_u64(1);
    let clip = generator.generate(ClipFamily::Array2d, &mut rng);

    mb.run("sraf_insert", || {
        let mut work = clip.clone();
        insert_srafs(&mut work, &rules)
    });

    let mut with_srafs = clip.clone();
    insert_srafs(&mut with_srafs, &rules);
    mb.run("opc_correct", || opc.correct(&with_srafs).unwrap());

    let corrected = opc.correct(&with_srafs).unwrap().clip;
    mb.run("rasterize_256px", || {
        rasterize_clip(&corrected, &RasterConfig::paper()).unwrap()
    });

    mb.flush_json().expect("writing --json-out");
}
