//! Self-tests: a tiny configuration of every workload, checked against the
//! metric declarations in `BENCHMARK.json`.

use std::sync::{Mutex, MutexGuard};

use litho_json::Json;

use crate::metrics::{result_line, Checks, MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::{self, Plan, PredictPaper, Scale, TrainSmall, Workload, NAMES};

/// Telemetry is process-wide: tests that run workloads take turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn tiny(trace: bool) -> Plan {
    Plan {
        seed: 3,
        seconds: 0.001,
        trace,
        scale: Scale::Tiny,
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one `BENCHMARK.json` metric list.
fn declared(key: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn pairs(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn declarations_match_benchmark_json() {
    assert_eq!(pairs(END_TO_END), declared("end_to_end"));
    assert_eq!(pairs(PER_LAYER), declared("per_layer"));
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    assert_eq!(names, NAMES);
}

/// Parses a result line and returns `metrics` as `(name, value, unit)`.
fn parse_result(line: &str) -> (Json, Vec<(String, f64, String)>) {
    let json = Json::parse(line).expect("result line is JSON");
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        panic!("no metrics object in {line}");
    };
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .expect("unit")
                .to_string();
            (name.clone(), value, unit)
        })
        .collect();
    (json, metrics)
}

/// Per-layer rows each workload must measure as non-zero.
fn exercised(workload: &str) -> &'static [&'static str] {
    match workload {
        "train_small" => &[
            "core.cgan_step_ms",
            "core.center_step_ms",
            "core.glue_share",
            "nn.G.fwd_ms",
            "nn.G.bwd_ms",
            "nn.D.fwd_ms",
            "nn.D.bwd_ms",
            "nn.C.fwd_ms",
            "nn.C.bwd_ms",
            "nn.adam_ms",
            "nn.conv.fwd_ms",
            "nn.conv.bwd_ms",
            "nn.deconv.fwd_ms",
            "nn.deconv.bwd_ms",
            "nn.batchnorm.fwd_ms",
            "nn.batchnorm.bwd_ms",
            "nn.other_ms",
        ],
        "predict_paper" => &[
            "core.predict_batch_ms",
            "nn.G.fwd_eval_ms",
            "nn.C.fwd_eval_ms",
            "nn.conv.fwd_ms",
            "nn.deconv.fwd_ms",
            "nn.batchnorm.fwd_ms",
            "metrics.score_ms",
        ],
        "golden" => &[
            "sim.rigorous_ms",
            "sim.optical_ms",
            "sim.resist_contour_ms",
            "sim.compact_aerial_ms",
            "layout.clip_gen_ms",
            "layout.opc_ms",
            "layout.opc_iterations",
            "layout.raster_ms",
            "dataset.golden_window_ms",
            "tensor.fft2_ms",
            "tensor.fft2_gflops",
            "tensor.gflop_per_clip",
        ],
        other => panic!("unknown workload {other}"),
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let _turn = serial();
    for &name in NAMES {
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let outcome = workloads::run(name, &tiny(trace)).expect("tiny workload runs");
            let mut values = outcome.values;
            values.insert("peak_rss_mb", crate::metrics::peak_rss_mb());
            let line = result_line(&outcome.checks, defs, &values);
            let (json, metrics) = parse_result(&line);
            assert_eq!(
                json.get("correct").and_then(Json::as_bool),
                Some(true),
                "{name}: {line}"
            );
            assert_eq!(
                json.get("failed").and_then(Json::as_u64),
                Some(0),
                "{name}: {line}"
            );
            assert!(
                json.get("attempted").and_then(Json::as_u64) >= Some(1),
                "{name}: {line}"
            );
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(n, _, u)| (n.clone(), u.clone()))
                .collect();
            assert_eq!(emitted, pairs(defs), "{name} trace={trace}");
            for (metric, value, _) in &metrics {
                let needed = !trace || exercised(name).contains(&metric.as_str());
                assert!(!needed || *value > 0.0, "{name}: {metric} = {value}");
            }
        }
    }
}

#[test]
fn injected_non_finite_prediction_counts_as_failed() {
    let _turn = serial();
    let mut w = PredictPaper::setup(&tiny(false)).expect("tiny predict set-up");
    let mut checks = Checks::default();
    w.op(0, &mut checks).expect("clean batch");
    assert_eq!(checks.failed, 0);
    w.poison_next_batch();
    w.op(1, &mut checks).expect("poisoned batch still returns");
    assert!(checks.failed >= 1, "poisoned prediction passed its check");
    let line = result_line(&checks, END_TO_END, &Default::default());
    assert!(line.starts_with("{\"correct\": false"), "{line}");
}

#[test]
fn injected_non_finite_parameter_counts_as_failed() {
    let _turn = serial();
    let mut w = TrainSmall::setup(&tiny(false)).expect("tiny train set-up");
    let mut checks = Checks::default();
    w.poison_generator();
    w.op(0, &mut checks).expect("poisoned step still returns");
    assert_eq!((checks.attempted, checks.failed), (1, 1));
}

#[test]
fn traced_train_step_replays_the_public_step_bit_for_bit() {
    let _turn = serial();
    let mut public = TrainSmall::setup(&tiny(false)).expect("set-up");
    let mut traced = TrainSmall::setup(&tiny(false)).expect("set-up");
    let mut checks = Checks::default();
    public.op(5, &mut checks).expect("public step");
    let mut rec = crate::trace::Recorder::new();
    traced
        .traced_op(5, &mut rec, &mut checks)
        .expect("traced step");
    assert_eq!(checks.failed, 0);
    assert_eq!(public.param_bits(), traced.param_bits());
    assert!(rec.covered_secs() > 0.0);
}
