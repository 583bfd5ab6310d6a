//! Run ledger and trace analysis for the LithoGAN reproduction.
//!
//! Every `lithogan_cli` / bench invocation records itself under
//! `runs/<id>/`:
//!
//! * `manifest.json` — command, config, seed, dataset fingerprint,
//!   status and wall clock ([`RunManifest`], written by [`RunLedger`]);
//! * `samples.jsonl` — one [`litho_metrics::SampleRecord`] per evaluated
//!   sample;
//! * `trace.jsonl` — the litho-telemetry event stream (unless redirected
//!   with `--metrics-out`).
//!
//! On top of that sit three consumers:
//!
//! * [`load_run`] + [`render_report`] + [`dashboard_svg`] — the
//!   `lithogan_cli report <run>` view: metric table, span aggregates
//!   with exact quantiles, critical path, and an SVG dashboard;
//! * [`flamegraph_svg`] + [`render_attribution`] + [`fold_lines`] — the
//!   `lithogan_cli profile <run>` view: a self-time flamegraph SVG with
//!   roofline tinting, a top-N attribution table, and the folded-stack
//!   text form;
//! * [`render_compare`] — `lithogan_cli compare <run-a> <run-b>` delta
//!   table;
//! * [`gate`] against a committed [`Baseline`] — the CI regression gate
//!   (`compare <run> --gate baseline.json --tol-pct N`); [`gate_metrics`]
//!   is its metric loop, shared with the kernel perf gate. Whether a
//!   metric improves up or down is decided in one place, [`Direction`].
//!
//! Above the per-run layer sits the *fleet* layer:
//!
//! * [`index`] — the append-only `runs/index.jsonl`, one summary record
//!   per run, maintained transactionally by every finalize and repaired
//!   by [`reindex`] (`lithogan_cli runs ls` / `reindex` / `runs gc`);
//! * [`trend`] — cross-run trend tables, `trend.svg` and a streak-based
//!   drift gate over the index (`lithogan_cli runs trend`);
//! * [`watch`] — an incremental live tailer over an in-flight run's
//!   `trace.jsonl` + `health.jsonl` (`lithogan_cli watch <run>`).
//!
//! The crate is std-only: JSON parsing is the shared `litho-json`
//! recursive-descent parser (re-exported here as [`json`]), which
//! tolerates the truncated final line a killed run leaves behind in its
//! JSONL streams.

pub use litho_json as json;
/// The shared FNV-1a behind [`fingerprint_file`], re-exported for the
/// crates above the ledger (alert dedup keys).
pub use litho_tensor::Fnv1a;

mod compare;
pub mod dash;
mod diff;
mod health;
pub mod index;
mod manifest;
pub mod profile;
mod report;
mod svg;
mod trace;
pub mod trend;
mod triage;
pub mod watch;

pub use compare::{
    gate, gate_metrics, render_compare, run_metrics, Baseline, Direction, GateCheck, GateOutcome,
    AI_SUFFIX, GFLOPS_SUFFIX, UTIL_SUFFIX,
};
pub use diff::{diff_eval, render_diff_eval, DiffEntry, DiffEval};
pub use dash::{
    fleet_html, prometheus_exposition, DashSelfMetrics, LatencySummary, LiveTails,
    DASH_TREND_METRICS,
};
pub use health::{health_svg, load_health, render_health, HealthAnalysis, LayerHealth, UpdateHealth};
pub use index::{
    append_index, index_record_for_run, load_index, reindex, scan_run_dirs, slice_metric_key,
    split_slice_key, GcOutcome, IndexParse, IndexRecord, ReindexOutcome, INDEX_SCHEMA,
};
pub use manifest::{
    fingerprint_file, load_manifest, load_records, peak_rss_bytes, validate_run_id, DatasetInfo,
    RunLedger, RunManifest, MANIFEST_SCHEMA,
};
pub use profile::{flamegraph_svg, fold_lines, render_attribution};
pub use report::{load_run, render_report, RunData};
pub use svg::dashboard_svg;
pub use trace::{
    analyze, analyze_file, parse_trace_file, parse_trace_str, CriticalHop, EpochPoint, SpanAgg,
    TraceAnalysis, TraceEvent, TraceParse,
};
pub use trend::{fmt_unix, render_trend, trend, trend_svg, Drift, Trend, TrendConfig, TrendPoint};
pub use triage::{rank_worst, render_triage, triage_svg};
pub use watch::{render_snapshot, EpochProgress, WatchConfig, WatchSession, WatchSnapshot};
