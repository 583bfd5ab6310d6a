//! `generate` runs its clips as worker-pool tasks; the dataset it writes
//! must not depend on how many workers there are.
//!
//! Its own test binary: the pool width is process-wide state.

use litho_dataset::{generate, save_dataset, DatasetConfig};
use litho_sim::ProcessConfig;
use litho_tensor::pool;

/// The bytes `save_dataset` writes for `config` at a pool of `threads`.
fn generated_bytes(
    config: &DatasetConfig,
    threads: usize,
) -> (Vec<u8>, litho_dataset::GenerationStats) {
    pool::configure_threads(threads);
    let (dataset, stats) = generate(config).expect("generation succeeds");
    let path = std::env::temp_dir().join(format!(
        "litho-dataset-threads-{}-{}-{threads}.lgd",
        std::process::id(),
        config.process.name
    ));
    save_dataset(&dataset, &path).expect("dataset saves");
    let bytes = std::fs::read(&path).expect("saved dataset reads back");
    std::fs::remove_file(&path).expect("temporary dataset removes");
    (bytes, stats)
}

#[test]
fn generate_is_identical_at_one_and_two_threads() {
    // The paper's 256-pixel simulation grid, so the transforms are large
    // enough to split over the pool wherever they run outside a clip task.
    for config in [
        DatasetConfig::scaled(ProcessConfig::n10(), 4, 32),
        DatasetConfig::scaled(ProcessConfig::n7(), 3, 32),
    ] {
        let (one, one_stats) = generated_bytes(&config, 1);
        let (two, two_stats) = generated_bytes(&config, 2);
        assert_eq!(one_stats, two_stats, "{}", config.process.name);
        assert!(
            one == two,
            "{}: dataset bytes differ between 1 and 2 threads",
            config.process.name
        );
    }
    pool::configure_threads(0);
}
