//! Fleet state for the `lithogan_cli dash` observability daemon.
//!
//! Two pieces live here rather than in the daemon binary because they
//! are pure ledger logic and want ledger-level tests:
//!
//! * [`LiveTails`] — discovery + incremental tailing of *in-flight*
//!   runs. Running runs are not in `runs/index.jsonl` (the index is
//!   appended at finalize), so discovery scans run directories for
//!   `status: "running"` manifests and attaches a [`WatchSession`] to
//!   each, reusing the truncation-tolerant `JsonlTailer` so a `/metrics`
//!   scrape racing a writer never sees a torn line.
//! * [`prometheus_exposition`] — renders the fleet (index records +
//!   live snapshots + the dash's own request accounting) in Prometheus
//!   text exposition format 0.0.4. It is a pure function of its inputs,
//!   which is what makes the golden test possible: same fixtures in,
//!   byte-identical exposition out. Absent values emit *no sample* —
//!   never `NaN` — matching the ledger's absent-not-null convention.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

use crate::index::{scan_run_dirs, IndexRecord};
use crate::manifest::load_manifest;
use crate::trend::{trend, TrendConfig};
use crate::watch::{WatchSession, WatchSnapshot};

/// The headline metrics the dash exposes per command
/// (`lithogan_latest_metric`) and runs the drift detector over
/// (`lithogan_drift_active`). A fixed list keeps the exposition schema
/// stable for scrapers and golden tests.
pub const DASH_TREND_METRICS: [&str; 3] = ["ede_mean_nm", "samples_per_sec", "pool_utilization"];

/// Incremental follower of every in-flight run under a runs root.
#[derive(Debug)]
pub struct LiveTails {
    root: PathBuf,
    /// Run id to never tail — the dash's own still-running ledger entry.
    exclude: Option<String>,
    /// Keyed by run id; `BTreeMap` so snapshots come out in a stable
    /// order for the exposition.
    sessions: BTreeMap<String, WatchSession>,
}

impl LiveTails {
    /// Aims at a runs root. `exclude` is the daemon's own run id.
    pub fn new(root: impl Into<PathBuf>, exclude: Option<String>) -> LiveTails {
        LiveTails {
            root: root.into(),
            exclude,
            sessions: BTreeMap::new(),
        }
    }

    /// One poll: rescan for newly-started runs, drain every tailer, drop
    /// finished runs. Returns `(run_id, snapshot)` pairs for the runs
    /// still in flight, in run-id order.
    ///
    /// A run whose directory vanished mid-poll (`runs gc`) is silently
    /// dropped — a scrape must not 500 because the fleet churned.
    ///
    /// # Errors
    ///
    /// Propagates only the directory-scan error; per-run tail errors
    /// retire that run's session instead.
    pub fn poll(&mut self) -> io::Result<Vec<(String, WatchSnapshot)>> {
        for dir in scan_run_dirs(&self.root)? {
            let Ok(manifest) = load_manifest(&dir) else {
                continue;
            };
            if manifest.status != "running" {
                continue;
            }
            if self.exclude.as_deref() == Some(manifest.run_id.as_str()) {
                continue;
            }
            self.sessions
                .entry(manifest.run_id)
                .or_insert_with(|| WatchSession::new(&dir));
        }
        let mut live = Vec::new();
        let mut retire = Vec::new();
        for (id, session) in &mut self.sessions {
            match session.poll() {
                Ok(snap) if snap.finished => retire.push(id.clone()),
                Ok(snap) => live.push((id.clone(), snap)),
                Err(_) => retire.push(id.clone()),
            }
        }
        for id in retire {
            self.sessions.remove(&id);
        }
        Ok(live)
    }
}

/// A latency summary over the dash's own request handling, fed from the
/// telemetry histogram snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencySummary {
    pub count: u64,
    pub sum_s: f64,
    pub p50_s: f64,
    pub p95_s: f64,
    pub p99_s: f64,
}

/// The dash daemon's own request accounting, exposed so the dash is
/// observable by the same scraper that watches the fleet.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DashSelfMetrics {
    pub uptime_s: f64,
    pub requests_total: u64,
    /// `(status code, count)` pairs, any order (sorted on render).
    pub responses_by_code: Vec<(u16, u64)>,
    pub latency: Option<LatencySummary>,
}

/// Escapes a label value per the exposition format: backslash, quote
/// and newline.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// `aborted(nan-poisoned)` → `aborted`, so the status label set stays
/// bounded regardless of abort reasons.
fn normalize_status(status: &str) -> &str {
    if status.starts_with("aborted") {
        "aborted"
    } else {
        status
    }
}

/// Formats a sample value: finite shortest-round-trip floats; the
/// exposition format spells the IEEE specials `NaN`/`+Inf`/`-Inf`.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        (if v > 0.0 { "+Inf" } else { "-Inf" }).to_string()
    } else {
        format!("{v}")
    }
}

fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label(v));
        }
        out.push('}');
    }
    let _ = writeln!(out, " {}", fmt_value(value));
}

/// Renders the fleet in Prometheus text exposition format 0.0.4.
///
/// * `records` — the decoded index, chronological (as
///   [`crate::load_index`] returns it);
/// * `live` — in-flight snapshots from [`LiveTails::poll`];
/// * `dash_self` — the daemon's own accounting, `None` in pure-fleet
///   renders (golden tests);
/// * `cfg` — drift-detector tuning shared with `runs trend`.
///
/// Schema (see DESIGN §4f): fleet families are always present (HELP/TYPE
/// even with zero samples), live families only while runs are in flight,
/// self families only with `dash_self`. A run that never recorded a
/// metric contributes no sample — absent, not `NaN`.
pub fn prometheus_exposition(
    records: &[IndexRecord],
    live: &[(String, WatchSnapshot)],
    dash_self: Option<&DashSelfMetrics>,
    cfg: &TrendConfig,
) -> String {
    let mut out = String::new();

    // Run counts by (normalized) status.
    family(
        &mut out,
        "lithogan_runs_total",
        "gauge",
        "Runs in the fleet index by status.",
    );
    let mut by_status: BTreeMap<&str, u64> = BTreeMap::new();
    for rec in records {
        *by_status.entry(normalize_status(&rec.status)).or_default() += 1;
    }
    for (status, count) in &by_status {
        sample(
            &mut out,
            "lithogan_runs_total",
            &[("status", status)],
            *count as f64,
        );
    }

    // Latest headline metric per command: the most recent run of each
    // command that actually recorded the metric.
    family(
        &mut out,
        "lithogan_latest_metric",
        "gauge",
        "Latest recorded headline metric per command.",
    );
    let mut commands: Vec<&str> = records.iter().map(|r| r.command.as_str()).collect();
    commands.sort_unstable();
    commands.dedup();
    for command in commands {
        for metric in DASH_TREND_METRICS {
            let latest = records
                .iter()
                .rev()
                .filter(|r| r.command == command)
                .find_map(|r| r.metric(metric));
            if let Some(value) = latest {
                sample(
                    &mut out,
                    "lithogan_latest_metric",
                    &[("command", command), ("metric", metric)],
                    value,
                );
            }
        }
    }

    // Per-clip-family slices of the headline metrics, joined back out of
    // the slice-qualified index keys (`ede_mean_nm{family=chain1d}`).
    // Like the latest-metric family: newest run of the command that
    // recorded the slice wins, and an absent slice emits no sample.
    family(
        &mut out,
        "lithogan_slice_metric",
        "gauge",
        "Latest per-clip-family slice of a headline metric, per command.",
    );
    let mut commands: Vec<&str> = records.iter().map(|r| r.command.as_str()).collect();
    commands.sort_unstable();
    commands.dedup();
    for command in commands {
        let mut keys: Vec<&str> = records
            .iter()
            .filter(|r| r.command == command)
            .flat_map(|r| r.metrics.iter().map(|(k, _)| k.as_str()))
            .filter(|k| crate::index::split_slice_key(k).is_some())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            let latest = records
                .iter()
                .rev()
                .filter(|r| r.command == command)
                .find_map(|r| r.metric(key));
            if let Some(value) = latest {
                let (metric, fam) = crate::index::split_slice_key(key).expect("filtered above");
                sample(
                    &mut out,
                    "lithogan_slice_metric",
                    &[("command", command), ("metric", metric), ("family", fam)],
                    value,
                );
            }
        }
    }

    // Drift-detector state, same machinery as `runs trend --gate`.
    let drifts: Vec<_> = DASH_TREND_METRICS
        .iter()
        .map(|metric| (*metric, trend(records, metric, None, cfg).drift))
        .collect();
    family(
        &mut out,
        "lithogan_drift_active",
        "gauge",
        "1 when the streak drift detector has confirmed a regression for the metric.",
    );
    for (metric, drift) in &drifts {
        sample(
            &mut out,
            "lithogan_drift_active",
            &[("metric", metric)],
            if drift.is_some() { 1.0 } else { 0.0 },
        );
    }
    if drifts.iter().any(|(_, d)| d.is_some()) {
        family(
            &mut out,
            "lithogan_drift_streak_runs",
            "gauge",
            "Length of the confirmed off-median streak, in runs.",
        );
        for (metric, drift) in &drifts {
            if let Some(drift) = drift {
                sample(
                    &mut out,
                    "lithogan_drift_streak_runs",
                    &[("metric", metric)],
                    drift.runs as f64,
                );
            }
        }
    }

    // Live gauges for in-flight runs, tailed incrementally.
    if !live.is_empty() {
        family(
            &mut out,
            "lithogan_live_epochs_total",
            "gauge",
            "Training epochs completed so far by an in-flight run.",
        );
        for (id, snap) in live {
            sample(
                &mut out,
                "lithogan_live_epochs_total",
                &[("run", id)],
                snap.epochs_done as f64,
            );
        }
        family(
            &mut out,
            "lithogan_live_loss",
            "gauge",
            "Latest generator/discriminator loss of an in-flight run.",
        );
        for (id, snap) in live {
            if let Some(e) = &snap.last_epoch {
                sample(
                    &mut out,
                    "lithogan_live_loss",
                    &[("run", id), ("net", "g")],
                    e.g_loss,
                );
                sample(
                    &mut out,
                    "lithogan_live_loss",
                    &[("run", id), ("net", "d")],
                    e.d_loss,
                );
            }
        }
        family(
            &mut out,
            "lithogan_live_pool_utilization",
            "gauge",
            "Latest worker-pool utilization gauge of an in-flight run (0..1).",
        );
        for (id, snap) in live {
            if let Some(util) = snap.pool_utilization {
                sample(
                    &mut out,
                    "lithogan_live_pool_utilization",
                    &[("run", id)],
                    util,
                );
            }
        }
    }

    // The dash's own accounting.
    if let Some(me) = dash_self {
        family(
            &mut out,
            "lithogan_dash_uptime_seconds",
            "gauge",
            "Seconds since the dash daemon started.",
        );
        sample(&mut out, "lithogan_dash_uptime_seconds", &[], me.uptime_s);
        family(
            &mut out,
            "lithogan_dash_http_requests_total",
            "counter",
            "HTTP requests handled by the dash daemon.",
        );
        sample(
            &mut out,
            "lithogan_dash_http_requests_total",
            &[],
            me.requests_total as f64,
        );
        family(
            &mut out,
            "lithogan_dash_http_responses_total",
            "counter",
            "HTTP responses by status code.",
        );
        let mut codes = me.responses_by_code.clone();
        codes.sort_unstable();
        for (code, count) in codes {
            sample(
                &mut out,
                "lithogan_dash_http_responses_total",
                &[("code", &code.to_string())],
                count as f64,
            );
        }
        if let Some(lat) = &me.latency {
            family(
                &mut out,
                "lithogan_dash_http_request_seconds",
                "summary",
                "Dash request handling latency.",
            );
            for (q, v) in [("0.5", lat.p50_s), ("0.95", lat.p95_s), ("0.99", lat.p99_s)] {
                sample(
                    &mut out,
                    "lithogan_dash_http_request_seconds",
                    &[("quantile", q)],
                    v,
                );
            }
            sample(
                &mut out,
                "lithogan_dash_http_request_seconds_sum",
                &[],
                lat.sum_s,
            );
            sample(
                &mut out,
                "lithogan_dash_http_request_seconds_count",
                &[],
                lat.count as f64,
            );
        }
    }
    out
}

/// The minimal HTML fleet page behind `GET /`: one row per indexed run
/// linking its JSON and SVG views, newest first. `banner` is a
/// pre-rendered (already escaped) HTML fragment inserted above the
/// table — the dash passes the firing-alerts banner here so this crate
/// stays independent of the alert engine; pass `""` for none.
pub fn fleet_html(
    records: &[IndexRecord],
    live: &[(String, WatchSnapshot)],
    banner: &str,
) -> String {
    let mut rows = String::new();
    for (id, snap) in live {
        let _ = write!(
            rows,
            "<tr><td><code>{id}</code></td><td>{}</td><td>running</td>\
             <td>epoch {}</td><td><a href=\"/api/runs/{id}\">json</a></td></tr>",
            escape_html(snap.command.as_deref().unwrap_or("?")),
            snap.epochs_done,
        );
    }
    for rec in records.iter().rev() {
        let metrics = DASH_TREND_METRICS
            .iter()
            .filter_map(|m| rec.metric(m).map(|v| format!("{m} {v:.3}")))
            .collect::<Vec<_>>()
            .join(", ");
        let id = escape_html(&rec.run_id);
        let _ = write!(
            rows,
            "<tr><td><code>{id}</code></td><td>{}</td><td>{}</td><td>{}</td>\
             <td><a href=\"/api/runs/{id}\">json</a> \
             <a href=\"/api/eval/{id}\">eval</a> \
             <a href=\"/runs/{id}/dashboard.svg\">dashboard</a> \
             <a href=\"/runs/{id}/triage.svg\">triage</a> \
             <a href=\"/runs/{id}/health.svg\">health</a> \
             <a href=\"/runs/{id}/trend.svg\">trend</a> \
             <a href=\"/runs/{id}/flamegraph.svg\">flamegraph</a></td></tr>",
            escape_html(&rec.command),
            escape_html(&rec.status),
            escape_html(&metrics),
        );
    }
    format!(
        "<!doctype html><html><head><meta charset=\"utf-8\">\
         <title>lithogan fleet</title>\
         <style>body{{font:14px system-ui;margin:2em}}table{{border-collapse:collapse}}\
         td,th{{border:1px solid #ccc;padding:4px 8px;text-align:left}}</style>\
         </head><body><h1>lithogan fleet</h1>\
         <p><a href=\"/metrics\">/metrics</a> · <a href=\"/api/runs\">/api/runs</a> · \
         <a href=\"/api/alerts\">/api/alerts</a></p>\
         {banner}\
         <table><tr><th>run</th><th>command</th><th>status</th><th>metrics</th>\
         <th>views</th></tr>{rows}</table></body></html>"
    )
}

fn escape_html(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::INDEX_SCHEMA;
    use std::fs;

    fn rec(id: &str, command: &str, started: u64, status: &str, metrics: &[(&str, f64)]) -> IndexRecord {
        IndexRecord {
            schema_version: INDEX_SCHEMA,
            run_id: id.to_string(),
            command: command.to_string(),
            started_unix_s: started,
            seed: None,
            dataset_fingerprint: None,
            status: status.to_string(),
            wall_clock_s: Some(1.0),
            simd: None,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            health: None,
        }
    }

    #[test]
    fn exposition_counts_statuses_and_normalizes_aborts() {
        let records = vec![
            rec("a", "train", 1, "ok", &[]),
            rec("b", "train", 2, "aborted(nan-poisoned)", &[]),
            rec("c", "eval", 3, "error", &[]),
            rec("d", "train", 4, "ok", &[]),
        ];
        let text = prometheus_exposition(&records, &[], None, &TrendConfig::default());
        assert!(text.contains("lithogan_runs_total{status=\"ok\"} 2\n"), "{text}");
        assert!(text.contains("lithogan_runs_total{status=\"aborted\"} 1\n"));
        assert!(text.contains("lithogan_runs_total{status=\"error\"} 1\n"));
        assert!(text.contains("# TYPE lithogan_runs_total gauge\n"));
    }

    #[test]
    fn latest_metric_is_per_command_and_absent_fields_emit_no_sample() {
        let records = vec![
            rec("t1", "train", 1, "ok", &[("ede_mean_nm", 8.0), ("pool_utilization", 0.5)]),
            // Newest train run lacks pool_utilization: the latest sample
            // for it falls back to t1, and no NaN ever appears.
            rec("t2", "train", 2, "ok", &[("ede_mean_nm", 6.5)]),
            rec("e1", "eval", 3, "ok", &[("samples_per_sec", 42.0)]),
        ];
        let text = prometheus_exposition(&records, &[], None, &TrendConfig::default());
        assert!(text
            .contains("lithogan_latest_metric{command=\"train\",metric=\"ede_mean_nm\"} 6.5\n"));
        assert!(text
            .contains("lithogan_latest_metric{command=\"train\",metric=\"pool_utilization\"} 0.5\n"));
        assert!(text
            .contains("lithogan_latest_metric{command=\"eval\",metric=\"samples_per_sec\"} 42\n"));
        assert!(
            !text.contains("NaN"),
            "absent metrics must be absent, not NaN: {text}"
        );
        assert!(!text.contains("command=\"eval\",metric=\"ede_mean_nm\""));
    }

    #[test]
    fn slice_metrics_join_family_out_of_the_key() {
        let records = vec![
            rec(
                "t1",
                "train",
                1,
                "ok",
                &[
                    ("ede_mean_nm", 4.0),
                    ("ede_mean_nm{family=isolated}", 3.0),
                    ("ede_mean_nm{family=chain1d}", 5.0),
                ],
            ),
            // Newest run lacks the chain1d slice (no chain1d clips in its
            // split): the chain1d sample falls back to t1, never NaN.
            rec(
                "t2",
                "train",
                2,
                "ok",
                &[("ede_mean_nm", 4.5), ("ede_mean_nm{family=isolated}", 3.5)],
            ),
        ];
        let text = prometheus_exposition(&records, &[], None, &TrendConfig::default());
        assert!(text.contains("# TYPE lithogan_slice_metric gauge\n"), "{text}");
        assert!(text.contains(
            "lithogan_slice_metric{command=\"train\",metric=\"ede_mean_nm\",family=\"isolated\"} 3.5\n"
        ));
        assert!(text.contains(
            "lithogan_slice_metric{command=\"train\",metric=\"ede_mean_nm\",family=\"chain1d\"} 5\n"
        ));
        assert!(!text.contains("NaN"));
        // The aggregate key stays out of the slice family.
        assert!(!text.contains("lithogan_slice_metric{command=\"train\",metric=\"ede_mean_nm\"} "));
    }

    #[test]
    fn drift_state_follows_the_trend_detector() {
        // Four clean runs around 6.5 nm then two at 9+: with the default
        // tol/streak config that is a confirmed drift.
        let records: Vec<IndexRecord> = [6.4, 6.5, 6.6, 6.5, 9.2, 9.5]
            .iter()
            .enumerate()
            .map(|(i, v)| {
                rec(
                    &format!("t{i}"),
                    "train",
                    i as u64,
                    "ok",
                    &[("ede_mean_nm", *v)],
                )
            })
            .collect();
        let text = prometheus_exposition(&records, &[], None, &TrendConfig::default());
        assert!(text.contains("lithogan_drift_active{metric=\"ede_mean_nm\"} 1\n"), "{text}");
        assert!(text.contains("lithogan_drift_streak_runs{metric=\"ede_mean_nm\"} 2\n"));
        assert!(text.contains("lithogan_drift_active{metric=\"samples_per_sec\"} 0\n"));
    }

    #[test]
    fn throughput_drop_activates_its_drift_gauge() {
        let records: Vec<IndexRecord> = [20.0, 21.0, 19.0, 20.0, 11.0, 10.0]
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let id = format!("e{i}");
                rec(&id, "eval", i as u64, "ok", &[("samples_per_sec", *v)])
            })
            .collect();
        let text = prometheus_exposition(&records, &[], None, &TrendConfig::default());
        let active = "lithogan_drift_active{metric=\"samples_per_sec\"} 1\n";
        assert!(text.contains(active), "{text}");
        assert!(text.contains("lithogan_drift_streak_runs{metric=\"samples_per_sec\"} 2\n"));
    }

    #[test]
    fn self_metrics_render_as_counters_and_summary() {
        let me = DashSelfMetrics {
            uptime_s: 12.5,
            requests_total: 7,
            responses_by_code: vec![(404, 1), (200, 6)],
            latency: Some(LatencySummary {
                count: 7,
                sum_s: 0.014,
                p50_s: 0.001,
                p95_s: 0.004,
                p99_s: 0.004,
            }),
        };
        let text = prometheus_exposition(&[], &[], Some(&me), &TrendConfig::default());
        assert!(text.contains("# TYPE lithogan_dash_http_requests_total counter\n"));
        assert!(text.contains("lithogan_dash_http_requests_total 7\n"));
        // Codes sorted regardless of insertion order.
        let p200 = text.find("code=\"200\"").unwrap();
        let p404 = text.find("code=\"404\"").unwrap();
        assert!(p200 < p404);
        assert!(text.contains("# TYPE lithogan_dash_http_request_seconds summary\n"));
        assert!(text.contains("lithogan_dash_http_request_seconds{quantile=\"0.5\"} 0.001\n"));
        assert!(text.contains("lithogan_dash_http_request_seconds_count 7\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let records = vec![rec("r\"1\"", "tr\\ain", 1, "ok", &[("ede_mean_nm", 1.0)])];
        let html = fleet_html(&records, &[], "");
        assert!(html.contains("<code>r\"1\"</code>"));
        let bannered = fleet_html(&records, &[], "<div class=\"alerts\">1 firing</div>");
        assert!(bannered.contains("<div class=\"alerts\">1 firing</div>"));
        let text = prometheus_exposition(&records, &[], None, &TrendConfig::default());
        assert!(text.contains("command=\"tr\\\\ain\""), "{text}");
    }

    #[test]
    fn live_tails_discover_running_runs_and_drop_finished() {
        let root = std::env::temp_dir().join(format!("litho_dash_live_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let write = |id: &str, status: &str| {
            let dir = root.join(id);
            fs::create_dir_all(&dir).unwrap();
            fs::write(
                dir.join("manifest.json"),
                format!(
                    "{{\"schema_version\":2,\"run_id\":\"{id}\",\"command\":\"train\",\
                     \"started_unix_s\":1,\"config\":{{}},\"status\":\"{status}\"}}\n"
                ),
            )
            .unwrap();
        };
        write("train-1-1", "running");
        write("train-2-2", "ok");
        write("dash-3-3", "running");

        let mut tails = LiveTails::new(&root, Some("dash-3-3".to_string()));
        let live = tails.poll().unwrap();
        assert_eq!(live.len(), 1, "only the foreign running run");
        assert_eq!(live[0].0, "train-1-1");

        // Epoch events stream in between polls.
        fs::write(
            root.join("train-1-1/trace.jsonl"),
            "{\"ts_us\":1000,\"kind\":\"event\",\"name\":\"train_epoch\",\
             \"epoch\":0,\"g_loss\":2.0,\"d_loss\":0.9}\n",
        )
        .unwrap();
        let live = tails.poll().unwrap();
        assert_eq!(live[0].1.epochs_done, 1);

        // Exposition surfaces the live run.
        let text = prometheus_exposition(&[], &live, None, &TrendConfig::default());
        assert!(text.contains("lithogan_live_epochs_total{run=\"train-1-1\"} 1\n"));
        assert!(text.contains("lithogan_live_loss{run=\"train-1-1\",net=\"g\"} 2\n"));

        // Finishing retires the session; live families disappear.
        write("train-1-1", "ok");
        assert!(tails.poll().unwrap().is_empty());
        let text = prometheus_exposition(&[], &[], None, &TrendConfig::default());
        assert!(!text.contains("lithogan_live_epochs_total"));

        fs::remove_dir_all(&root).ok();
    }
}
