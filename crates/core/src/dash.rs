//! The `lithogan-cli dash` observability daemon.
//!
//! Serves the runs fleet over HTTP (see DESIGN §4f for the endpoint and
//! exposition schema):
//!
//! * `GET /` — minimal HTML fleet page;
//! * `GET /metrics` — Prometheus text exposition: index-level gauges,
//!   drift-detector state, live gauges for in-flight runs, and the
//!   dash's own request accounting;
//! * `GET /api/runs`, `GET /api/runs/<id>` — JSON over the same
//!   [`litho_ledger::IndexRecord`] serializer as `runs ls --json`;
//! * `GET /api/eval/<id>` — eval forensics for one run: the aggregate
//!   metric summary, per-clip-family slices and the worst-clip ranking,
//!   rebuilt from `samples.jsonl` on demand. Absent values are absent
//!   fields, never `NaN`;
//! * `GET /api/alerts` — evaluates the fleet's alert rules on demand
//!   (same engine as `lithogan_cli alerts`), persists any state
//!   transitions to `runs/alerts.jsonl`, and returns the active alerts
//!   as JSON; the fleet page shows firing alerts as a banner and
//!   `/metrics` exposes them as `lithogan_alerts_*` families;
//! * `GET /runs/<id>/{dashboard,triage,health,trend,flamegraph}.svg` —
//!   the ledger renderers, invoked on demand;
//! * `POST /shutdown` — clean stop (what tests and the CI smoke use).
//!
//! The daemon itself is a ledger run: request counts and latency go
//! through litho-telemetry into its `trace.jsonl` (quantile summaries
//! land at shutdown via [`litho_telemetry::emit_histogram_summaries`]),
//! and `main` finalizes its manifest when [`run_dash`] returns — so
//! `runs trend` can watch the watcher. Ctrl-C / SIGTERM funnel into the
//! same atomic-flag + connect-to-self shutdown the `/shutdown` route
//! uses: the signal handler only stores a flag (async-signal-safe), a
//! watchdog thread performs the actual wakeup.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use litho_alert::{AlertRecord, AlertRule, EngineContext, EvalOutcome};
use litho_http::{Request, Response, Server, ShutdownHandle};
use litho_ledger::json::Json;
use litho_ledger::{
    dashboard_svg, flamegraph_svg, fleet_html, health_svg, load_index, load_run,
    prometheus_exposition, rank_worst, trend, trend_svg, triage_svg, validate_run_id,
    DashSelfMetrics, IndexRecord, LatencySummary, LiveTails, TrendConfig, DASH_TREND_METRICS,
};
use litho_metrics::MetricSummary;

/// `Content-Type` of the Prometheus text exposition format.
const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Configuration for one dash daemon.
#[derive(Debug, Clone)]
pub struct DashConfig {
    /// `HOST:PORT` to bind; port 0 picks an ephemeral port (announced on
    /// stdout as `dash listening on http://…`).
    pub addr: String,
    /// The fleet to serve.
    pub runs_root: PathBuf,
    /// The dash's own run-ledger id, excluded from live-run tailing so
    /// the daemon does not watch itself.
    pub run_id: Option<String>,
}

/// Shared request-handler state.
struct DashState {
    runs_root: PathBuf,
    tails: Mutex<LiveTails>,
    started: Instant,
    requests: AtomicU64,
    responses_by_code: Mutex<BTreeMap<u16, u64>>,
    shutdown: ShutdownHandle,
}

/// Set by the SIGINT/SIGTERM handler; nothing else happens in signal
/// context.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // `signal` is in the C library std already links; declaring it here
    // keeps the workspace std-only. The handler must be async-signal-safe,
    // hence the bare atomic store.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_sig: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Runs the daemon until `/shutdown` or a termination signal. Blocking;
/// returns once the accept loop has drained and the workers joined.
///
/// # Errors
///
/// Bind/accept errors.
pub fn run_dash(cfg: &DashConfig) -> io::Result<()> {
    let server = Server::bind(cfg.addr.as_str())?;
    let addr = server.local_addr();
    let state = Arc::new(DashState {
        runs_root: cfg.runs_root.clone(),
        tails: Mutex::new(LiveTails::new(&cfg.runs_root, cfg.run_id.clone())),
        started: Instant::now(),
        requests: AtomicU64::new(0),
        responses_by_code: Mutex::new(BTreeMap::new()),
        shutdown: server.shutdown_handle(),
    });
    install_signal_handlers();
    let watchdog = server.shutdown_handle();
    std::thread::Builder::new()
        .name("dash-watchdog".into())
        .spawn(move || loop {
            if SIGNALLED.load(Ordering::SeqCst) {
                watchdog.shutdown();
                return;
            }
            if watchdog.is_shutdown() {
                return;
            }
            std::thread::sleep(Duration::from_millis(100));
        })?;
    // The announce line is the contract with scripts starting dash on an
    // ephemeral port: parse the URL off stdout.
    crate::cli::write_stdout(format_args!(
        "dash listening on http://{addr} (runs root {})\n",
        cfg.runs_root.display()
    ))?;
    let handler_state = Arc::clone(&state);
    server.serve(Arc::new(move |req: &Request| handle(&handler_state, req)))?;
    // Latency histograms never stream per-sample; persist the final
    // quantiles into the run's trace before main finalizes the manifest.
    litho_telemetry::emit_histogram_summaries();
    crate::cli::write_stdout(format_args!(
        "dash: shut down after {} request(s)\n",
        state.requests.load(Ordering::Relaxed)
    ))?;
    Ok(())
}

/// Accounting wrapper around [`route`]: request counter, per-code
/// counters and a latency histogram, through both the local state (for
/// `/metrics` self-exposition) and litho-telemetry (for the dash run's
/// own trace). Every response carries `Cache-Control: no-store`: the
/// dash serves live fleet state, and a cached fleet page or metrics
/// scrape is worse than a slow one.
fn handle(state: &DashState, req: &Request) -> Response {
    let t0 = Instant::now();
    state.requests.fetch_add(1, Ordering::Relaxed);
    litho_telemetry::counter_add("http.requests", 1);
    let mut response = route(state, req);
    response
        .headers
        .push(("Cache-Control".to_string(), "no-store".to_string()));
    litho_telemetry::observe_duration("http.request_s", t0.elapsed());
    litho_telemetry::counter_add(&format!("http.responses.{}", response.status), 1);
    *state
        .responses_by_code
        .lock()
        .unwrap()
        .entry(response.status)
        .or_default() += 1;
    response
}

fn route(state: &DashState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/shutdown") => {
            state.shutdown.shutdown();
            Response::text(200, "shutting down\n")
        }
        ("GET", "/") => fleet_page(state),
        ("GET", "/metrics") => metrics(state),
        ("GET", "/api/runs") => api_runs(state),
        ("GET", "/api/alerts") => api_alerts(state),
        ("GET", path) if path.starts_with("/api/runs/") => {
            api_run(state, &path["/api/runs/".len()..])
        }
        ("GET", path) if path.starts_with("/api/eval/") => {
            api_eval(state, &path["/api/eval/".len()..])
        }
        ("GET", path) if path.starts_with("/runs/") => artifact(state, &path["/runs/".len()..]),
        ("GET", path) => Response::not_found(path),
        _ => Response::method_not_allowed(),
    }
}

/// One alert-engine pass over the fleet: rules from
/// `<runs_root>/alerts.toml` (or the defaults), prior state replayed
/// from `runs/alerts.jsonl`, transitions appended back best-effort.
/// Shared by the fleet page, `/metrics` and `/api/alerts`, so every
/// surface shows the same evaluation the CLI would.
fn eval_alerts(state: &DashState, records: &[IndexRecord]) -> (Vec<AlertRule>, EvalOutcome) {
    let rules = litho_alert::load_rules(&state.runs_root, None)
        .unwrap_or_else(|_| litho_alert::default_rules());
    let prior = litho_alert::load_alerts(&state.runs_root)
        .map(|load| load.active())
        .unwrap_or_default();
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let outcome = litho_alert::evaluate(
        &rules,
        &EngineContext {
            records,
            runs_root: &state.runs_root,
            now_unix_s: now,
        },
        &prior,
    );
    let _ = litho_alert::append_alerts(&state.runs_root, &outcome.transitions);
    (rules, outcome)
}

fn fleet_page(state: &DashState) -> Response {
    let records = match load_index(&state.runs_root) {
        Ok(parse) => parse.records,
        Err(e) => return Response::text(500, format!("index: {e}\n")),
    };
    let live = state.tails.lock().unwrap().poll().unwrap_or_default();
    let (_, alerts) = eval_alerts(state, &records);
    let banner = litho_alert::alerts_html(&alerts.active);
    Response::ok(
        "text/html; charset=utf-8",
        fleet_html(&records, &live, &banner),
    )
}

fn metrics(state: &DashState) -> Response {
    let records = match load_index(&state.runs_root) {
        Ok(parse) => parse.records,
        Err(e) => return Response::text(500, format!("index: {e}\n")),
    };
    let live = match state.tails.lock().unwrap().poll() {
        Ok(live) => live,
        Err(e) => return Response::text(500, format!("live tails: {e}\n")),
    };
    let me = self_metrics(state);
    let mut text = prometheus_exposition(&records, &live, Some(&me), &TrendConfig::default());
    let (rules, alerts) = eval_alerts(state, &records);
    text.push_str(&litho_alert::alerts_exposition(&rules, &alerts.active));
    Response::ok(METRICS_CONTENT_TYPE, text)
}

fn api_alerts(state: &DashState) -> Response {
    let records = match load_index(&state.runs_root) {
        Ok(parse) => parse.records,
        Err(e) => return Response::text(500, format!("index: {e}\n")),
    };
    let (_, alerts) = eval_alerts(state, &records);
    let active: Vec<AlertRecord> = alerts.active;
    let firing = active
        .iter()
        .filter(|a| a.state == litho_alert::AlertState::Firing)
        .count();
    // AlertRecord serializes itself (it is the alerts.jsonl line format);
    // splice those objects into the envelope verbatim.
    let mut body = String::with_capacity(64 + active.len() * 256);
    body.push_str("{\"firing\":");
    let _ = write!(body, "{firing}");
    body.push_str(",\"active\":[");
    for (i, a) in active.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&a.to_json());
    }
    body.push_str("]}");
    Response::ok("application/json; charset=utf-8", body)
}

fn self_metrics(state: &DashState) -> DashSelfMetrics {
    // Latency quantiles come from the telemetry registry; with telemetry
    // off (--no-run --metrics-out unset) the histogram is simply absent.
    let latency = litho_telemetry::snapshot()
        .histograms
        .into_iter()
        .find(|(name, _)| name == "http.request_s")
        .map(|(_, h)| LatencySummary {
            count: h.count,
            sum_s: h.sum,
            p50_s: h.p50,
            p95_s: h.p95,
            p99_s: h.p99,
        });
    DashSelfMetrics {
        uptime_s: state.started.elapsed().as_secs_f64(),
        requests_total: state.requests.load(Ordering::Relaxed),
        responses_by_code: state
            .responses_by_code
            .lock()
            .unwrap()
            .iter()
            .map(|(code, count)| (*code, *count))
            .collect(),
        latency,
    }
}

fn api_runs(state: &DashState) -> Response {
    match load_index(&state.runs_root) {
        Ok(parse) => {
            let arr = Json::Arr(parse.records.iter().map(|r| r.to_json()).collect());
            Response::ok("application/json; charset=utf-8", arr.to_string_compact())
        }
        Err(e) => Response::text(500, format!("index: {e}\n")),
    }
}

fn api_run(state: &DashState, id: &str) -> Response {
    if let Err(e) = validate_run_id(id) {
        return Response::bad_request(&e.to_string());
    }
    let index = load_index(&state.runs_root)
        .ok()
        .and_then(|parse| parse.records.into_iter().find(|r| r.run_id == id))
        .map(|r| r.to_json());
    // A still-running run has no index line yet; the on-disk manifest is
    // the authority either way.
    let manifest = std::fs::read_to_string(state.runs_root.join(id).join("manifest.json"))
        .ok()
        .and_then(|text| Json::parse(&text).ok());
    if index.is_none() && manifest.is_none() {
        return Response::not_found(&format!("run {id}"));
    }
    let artifacts = Json::Obj(
        ["dashboard", "triage", "health", "trend", "flamegraph"]
            .iter()
            .map(|kind| {
                (
                    format!("{kind}_svg"),
                    Json::Str(format!("/runs/{id}/{kind}.svg")),
                )
            })
            .collect(),
    );
    let body = Json::Obj(vec![
        ("run_id".to_string(), Json::Str(id.to_string())),
        ("index".to_string(), index.unwrap_or(Json::Null)),
        ("manifest".to_string(), manifest.unwrap_or(Json::Null)),
        ("artifacts".to_string(), artifacts),
    ]);
    Response::ok("application/json; charset=utf-8", body.to_string_compact())
}

/// Serializes a metric summary for `/api/eval/<id>`. Absent box metrics
/// (an all-skipped slice) become absent fields, never `NaN`.
fn summary_json(s: &MetricSummary) -> Json {
    let num = |v: f64| Json::Num(if v.is_finite() { v } else { 0.0 });
    let mut slices = Vec::with_capacity(s.slices.len());
    for slice in &s.slices {
        let mut obj = vec![
            ("family".to_string(), Json::Str(slice.family.clone())),
            ("samples".to_string(), num(slice.samples as f64)),
            ("skipped".to_string(), num(slice.skipped as f64)),
        ];
        if let Some(v) = slice.ede_mean_nm {
            obj.push(("ede_mean_nm".to_string(), num(v)));
        }
        if let Some(v) = slice.center_error_nm {
            obj.push(("center_error_nm".to_string(), num(v)));
        }
        obj.push(("pixel_accuracy".to_string(), num(slice.pixel_accuracy)));
        obj.push(("class_accuracy".to_string(), num(slice.class_accuracy)));
        obj.push(("mean_iou".to_string(), num(slice.mean_iou)));
        slices.push(Json::Obj(obj));
    }
    Json::Obj(vec![
        ("samples".to_string(), num(s.samples as f64)),
        ("skipped".to_string(), num(s.skipped as f64)),
        ("ede_mean_nm".to_string(), num(s.ede_mean_nm)),
        ("ede_std_nm".to_string(), num(s.ede_std_nm)),
        (
            "ede_edge_mean_nm".to_string(),
            Json::Arr(s.ede_edge_mean_nm.iter().map(|v| num(*v)).collect()),
        ),
        ("pixel_accuracy".to_string(), num(s.pixel_accuracy)),
        ("class_accuracy".to_string(), num(s.class_accuracy)),
        ("mean_iou".to_string(), num(s.mean_iou)),
        ("center_error_nm".to_string(), num(s.center_error_nm)),
        ("slices".to_string(), Json::Arr(slices)),
    ])
}

/// `GET /api/eval/<id>` — per-run eval forensics: aggregate summary,
/// per-family slices and the worst-clip ranking, from `samples.jsonl`.
fn api_eval(state: &DashState, id: &str) -> Response {
    if let Err(e) = validate_run_id(id) {
        return Response::bad_request(&e.to_string());
    }
    let data = match load_run(&state.runs_root.join(id)) {
        Ok(data) => data,
        Err(e) => return Response::not_found(&format!("run {id}: {e}")),
    };
    let num = |v: f64| Json::Num(v);
    let mut worst = Vec::new();
    for r in rank_worst(&data.records, 10) {
        let mut obj = vec![("sample".to_string(), num(r.sample as f64))];
        if let Some(fp) = &r.clip_fingerprint {
            obj.push(("clip_fingerprint".to_string(), Json::Str(fp.clone())));
        }
        if let Some(family) = &r.family {
            obj.push(("family".to_string(), Json::Str(family.clone())));
        }
        if let Some(v) = r.ede_mean_nm {
            obj.push(("ede_mean_nm".to_string(), num(v)));
        }
        worst.push(Json::Obj(obj));
    }
    let body = Json::Obj(vec![
        ("run_id".to_string(), Json::Str(id.to_string())),
        (
            "summary".to_string(),
            data.summary.as_ref().map_or(Json::Null, summary_json),
        ),
        ("worst".to_string(), Json::Arr(worst)),
        (
            "skipped_records".to_string(),
            num(data.skipped_records as f64),
        ),
        (
            "triage_svg".to_string(),
            Json::Str(format!("/runs/{id}/triage.svg")),
        ),
    ]);
    Response::ok("application/json; charset=utf-8", body.to_string_compact())
}

/// `GET /runs/<id>/<kind>.svg` — render one run view on demand.
fn artifact(state: &DashState, rest: &str) -> Response {
    let Some((id, file)) = rest.split_once('/') else {
        return Response::not_found(rest);
    };
    if let Err(e) = validate_run_id(id) {
        return Response::bad_request(&e.to_string());
    }
    let dir = state.runs_root.join(id);
    match file {
        "dashboard.svg" => match load_run(&dir) {
            Ok(data) => Response::ok("image/svg+xml", dashboard_svg(&data)),
            Err(e) => Response::not_found(&format!("run {id}: {e}")),
        },
        "triage.svg" => match load_run(&dir) {
            Ok(data) => {
                let nm_per_px = data
                    .manifest
                    .dataset
                    .as_ref()
                    .map_or(1.0, |d| d.nm_per_px);
                Response::ok(
                    "image/svg+xml",
                    triage_svg(id, &data.records, 10, nm_per_px),
                )
            }
            Err(e) => Response::not_found(&format!("run {id}: {e}")),
        },
        "health.svg" => match load_run(&dir) {
            Ok(data) => match &data.health {
                Some(h) => Response::ok("image/svg+xml", health_svg(id, h)),
                None => Response::not_found(&format!("run {id} has no health stream")),
            },
            Err(e) => Response::not_found(&format!("run {id}: {e}")),
        },
        "flamegraph.svg" => match load_run(&dir) {
            Ok(data) => match &data.trace {
                Some(t) => Response::ok("image/svg+xml", flamegraph_svg(t)),
                None => Response::not_found(&format!("run {id} has no telemetry trace")),
            },
            Err(e) => Response::not_found(&format!("run {id}: {e}")),
        },
        // Fleet-level trends, anchored on a run that must exist so the
        // route namespace stays consistent with the other views.
        "trend.svg" => {
            if !dir.join("manifest.json").is_file() {
                return Response::not_found(&format!("run {id}"));
            }
            match load_index(&state.runs_root) {
                Ok(parse) => {
                    let cfg = TrendConfig::default();
                    let trends: Vec<_> = DASH_TREND_METRICS
                        .iter()
                        .map(|m| trend(&parse.records, m, None, &cfg))
                        .collect();
                    Response::ok("image/svg+xml", trend_svg(&trends))
                }
                Err(e) => Response::text(500, format!("index: {e}\n")),
            }
        }
        other => Response::not_found(other),
    }
}
