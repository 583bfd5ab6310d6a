//! Measures the cost of arming the crash-forensics flight recorder —
//! the in-memory ring that tees every telemetry event so a crash can
//! dump the run's last moments (`runs/<id>/incident/ring.jsonl`).
//!
//! The tee costs sub-microseconds per event against a ~70 ms training
//! step, far below this machine's run-to-run drift, so timing whole
//! steps armed-vs-disarmed measures only noise. Instead the bench
//! derives the epoch overhead from its two stable components:
//!
//! 1. *per-event tee cost* — tight interleaved loops of
//!    [`litho_telemetry::event`] with the ring disarmed vs armed, best
//!    batch time each (scheduler noise only ever slows a batch down,
//!    so the minimum is the drift-robust estimator);
//! 2. *event rate* — how many events one real conv forward+backward
//!    step actually emits, counted by the ring itself.
//!
//! `overhead = tee_cost × events_per_step / step_time`, with the step
//! time taken as the *minimum* observed (the conservative denominator).
//! The acceptance bar is < 2%; the process exits nonzero past it so
//! the check can run as a manual gate.
//!
//! Flags ([`MicroBench::parse`]): `--samples=N` (interleaved rounds,
//! default 15), `--quick` (halves them, at least 5). The harness's other
//! flags are accepted and have no effect here; any other argument, or a
//! count that is not a number, exits 1 before the bench runs.

use std::hint::black_box;
use std::time::Instant;

use litho_nn::{Conv2d, Layer, Phase};
use litho_tensor::rng::{Rng, SeedableRng, StdRng};
use litho_tensor::Tensor;
use litho_telemetry::Value;
use lithogan_bench::microbench::MicroBench;

/// Emissions per timed batch: large enough that one batch spans
/// milliseconds (timer granularity is irrelevant), small enough that
/// the trace file the sink accumulates stays modest.
const BATCH: u64 = 5_000;

fn random_tensor(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let n: usize = dims.iter().product();
    Tensor::from_vec((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(), dims).unwrap()
}

/// Seconds per emitted event for one timed batch.
fn emit_batch() -> f64 {
    let t = Instant::now();
    for i in 0..BATCH {
        litho_telemetry::event("bench.flight", &[("i", Value::U64(i))]);
    }
    t.elapsed().as_secs_f64() / BATCH as f64
}

fn main() {
    let rounds = MicroBench::from_args().samples().max(1);

    let path = std::env::temp_dir().join(format!("flight-overhead-{}.jsonl", std::process::id()));
    match litho_telemetry::JsonlSink::create(&path) {
        Ok(sink) => litho_telemetry::set_sink(Some(Box::new(sink))),
        Err(e) => {
            eprintln!("cannot open trace sink {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    litho_telemetry::enable();

    // Component 1: per-event cost, disarmed vs armed, interleaved.
    litho_telemetry::flight_disarm();
    emit_batch(); // warm-up: registry, sink buffer, allocator
    let mut base_min = f64::INFINITY;
    let mut armed_min = f64::INFINITY;
    for _ in 0..rounds {
        litho_telemetry::flight_disarm();
        base_min = base_min.min(emit_batch());
        litho_telemetry::flight_arm(litho_telemetry::DEFAULT_FLIGHT_CAPACITY);
        armed_min = armed_min.min(emit_batch());
    }
    // The armed loop must actually have ringed its events.
    let ringed = litho_telemetry::flight_snapshot().len();
    if ringed == 0 {
        eprintln!("flight ring saw no events; the bench measured nothing");
        std::process::exit(2);
    }
    let tee_s = (armed_min - base_min).max(0.0);

    // Component 2: the real per-step event rate and step time, from the
    // paper's first generator layer at half resolution.
    let mut rng = StdRng::seed_from_u64(11);
    let mut conv = Conv2d::new(3, 64, 5, 2, 2, &mut rng);
    let x = random_tensor(&[4, 3, 128, 128], 12);
    let mut step = move || {
        let y = conv.forward(&x, Phase::Train).unwrap();
        conv.zero_grad();
        black_box(conv.backward(&y).unwrap());
    };
    step(); // warm-up
    litho_telemetry::flight_arm(litho_telemetry::DEFAULT_FLIGHT_CAPACITY);
    let t = Instant::now();
    step();
    let mut step_min = t.elapsed().as_secs_f64();
    let events_per_step = litho_telemetry::flight_snapshot().len().max(1);
    for _ in 0..4 {
        let t = Instant::now();
        step();
        step_min = step_min.min(t.elapsed().as_secs_f64());
    }
    litho_telemetry::flight_disarm();
    litho_telemetry::flush();
    std::fs::remove_file(&path).ok();

    println!(
        "event_disarmed      {:>9.1} ns/event  (min of {rounds} interleaved batches of {BATCH})",
        base_min * 1e9
    );
    println!(
        "event_armed         {:>9.1} ns/event  (min of {rounds} interleaved batches of {BATCH})",
        armed_min * 1e9
    );
    println!(
        "conv_step           {:>9.3} ms, {events_per_step} events/step",
        step_min * 1e3
    );

    let pct = tee_s * events_per_step as f64 / step_min * 100.0;
    let ok = pct < 2.0;
    println!(
        "flight recorder overhead (ring tee: {:.1} ns/event x {events_per_step} events \
         over a {:.1} ms step): {pct:+.4}% (budget 2.00%) -> {}",
        tee_s * 1e9,
        step_min * 1e3,
        if ok { "PASS" } else { "FAIL" }
    );
    if !ok {
        std::process::exit(1);
    }
}
