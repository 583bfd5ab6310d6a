//! Microbenches for the optical substrate: SOCS kernel construction, the
//! rigorous engine's construction, and aerial-image computation at compact
//! vs rigorous rank — the computational gap behind Table 4's
//! rigorous-vs-ML runtime hierarchy.
//!
//! Flags: `--samples=N`, `--min-sample-ms=N`, `--quick`, `--trace`,
//! `--metrics-out FILE`.

use litho_sim::{MaskGrid, OpticalModel, ProcessConfig, ResistModel, RigorousSim};
use lithogan_bench::microbench::MicroBench;

fn contact_mask(size: usize, pitch: f64) -> MaskGrid {
    let mut mask = MaskGrid::new(size, pitch);
    let c = size as f64 * pitch / 2.0;
    for (dx, dy) in [(0.0, 0.0), (120.0, 0.0), (0.0, 120.0), (-120.0, -120.0)] {
        mask.fill_rect_nm(c + dx - 45.0, c + dy - 45.0, c + dx + 45.0, c + dy + 45.0, 1.0);
    }
    mask
}

fn bench_aerial(mb: &MicroBench) {
    let process = ProcessConfig::n10();
    for &(size, kernels) in &[(128usize, 4usize), (256, 4), (256, 10)] {
        let pitch = 2048.0 / size as f64;
        let model = OpticalModel::with_settings(&process, size, pitch, 0.0, kernels).unwrap();
        let mask = contact_mask(size, pitch);
        mb.run(&format!("aerial_image_{size}px_{kernels}k"), || {
            model.aerial_image(&mask).unwrap()
        });
    }
}

fn bench_rigorous_vs_compact(mb: &MicroBench) {
    let process = ProcessConfig::n10();
    let size = 256;
    let pitch = 2048.0 / size as f64;
    let mask = contact_mask(size, pitch);

    let compact = OpticalModel::new(&process, size, pitch).unwrap();
    let resist = ResistModel::new(process.resist);
    mb.run("compact_flow_256", || {
        let aerial = compact.aerial_image(&mask).unwrap();
        resist.develop(&aerial)
    });

    mb.run("rigorous_new_256", || {
        RigorousSim::new(&process, size, pitch).unwrap()
    });
    let rigorous = RigorousSim::new(&process, size, pitch).unwrap();
    mb.run("rigorous_flow_256", || rigorous.simulate(&mask).unwrap());
}

fn bench_resist(mb: &MicroBench) {
    let process = ProcessConfig::n10();
    let size = 256;
    let pitch = 2048.0 / size as f64;
    let model = OpticalModel::new(&process, size, pitch).unwrap();
    let mask = contact_mask(size, pitch);
    let aerial = model.aerial_image(&mask).unwrap();
    let resist = ResistModel::new(process.resist);
    mb.run("resist_develop_256", || resist.develop(&aerial));
    let excess = resist.excess_field(&aerial);
    mb.run("contour_extract_256", || {
        litho_sim::extract_contours(&excess, size, pitch, 0.0).unwrap()
    });
}

fn main() {
    lithogan_bench::init_telemetry_from_args(&[(
        "bench",
        litho_telemetry::Value::Str("optical".into()),
    )]);
    let mb = MicroBench::from_args();
    bench_aerial(&mb);
    bench_rigorous_vs_compact(&mb);
    bench_resist(&mb);
    lithogan_bench::finish_telemetry();
}
