//! Cross-run trend analytics over the fleet index.
//!
//! A trend is one metric's chronological series across runs, read from
//! `runs/index.jsonl` (see [`crate::index`]): an aligned table for the
//! terminal, a self-contained `trend.svg`, and a streak-based drift
//! detector built on the same consecutive-hit machinery litho-health's
//! diagnosis rules use. A run is *off* when its value is worse than the
//! fleet median by more than the tolerance; a drift is confirmed when
//! `drift_runs` consecutive runs are off — one bad run is noise, a
//! streak is a regression.

use std::fmt::Write as _;

use litho_health::Streak;

use crate::compare::Direction;
use crate::index::IndexRecord;

/// Tuning for the drift detector.
#[derive(Debug, Clone, Copy)]
pub struct TrendConfig {
    /// Allowed deviation from the fleet median, percent.
    pub tol_pct: f64,
    /// Consecutive off-median runs needed to confirm a drift.
    pub drift_runs: usize,
}

impl Default for TrendConfig {
    fn default() -> Self {
        TrendConfig {
            tol_pct: 10.0,
            drift_runs: 2,
        }
    }
}

/// One run's contribution to a trend.
#[derive(Debug, Clone)]
pub struct TrendPoint {
    pub run_id: String,
    pub started_unix_s: u64,
    pub status: String,
    pub health: Option<String>,
    /// The metric value; `None` when the run did not record it.
    pub value: Option<f64>,
    /// True when the value is worse than the reference beyond tolerance.
    pub off: bool,
}

/// A confirmed drift: `drift_runs` consecutive off-median runs.
#[derive(Debug, Clone)]
pub struct Drift {
    /// Run id of the first run in the confirmed streak.
    pub start_run_id: String,
    /// Index of that run in [`Trend::points`].
    pub start_index: usize,
    /// Length of the streak once confirmed (keeps growing if the drift
    /// continues to the end of the series).
    pub runs: usize,
    /// Worst value observed inside the streak.
    pub worst: f64,
}

/// One metric's series across runs, chronological.
#[derive(Debug, Clone)]
pub struct Trend {
    pub metric: String,
    /// Fleet median of the recorded values (the drift reference).
    pub reference: Option<f64>,
    pub tol_pct: f64,
    pub points: Vec<TrendPoint>,
    pub drift: Option<Drift>,
}

fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = values.len();
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    })
}

/// Builds the trend for `metric` over (the last `last` of) the index
/// records, which must already be chronological (as [`crate::load_index`]
/// returns them). NaN values are treated as off-median outright — a
/// poisoned run is never "within tolerance".
pub fn trend(
    records: &[IndexRecord],
    metric: &str,
    last: Option<usize>,
    cfg: &TrendConfig,
) -> Trend {
    let tail_start = last.map_or(0, |n| records.len().saturating_sub(n));
    let window = &records[tail_start..];
    let values: Vec<f64> = window
        .iter()
        .filter_map(|r| r.metric(metric))
        .filter(|v| v.is_finite())
        .collect();
    let reference = median(values);
    let direction = Direction::of(metric);

    let mut points = Vec::with_capacity(window.len());
    let mut drift: Option<Drift> = None;
    let mut streak = Streak::default();
    for (i, rec) in window.iter().enumerate() {
        let value = rec.metric(metric);
        let off = match (value, reference) {
            (Some(v), _) if !v.is_finite() => true,
            (Some(v), Some(reference)) => direction.regressed(v, reference, cfg.tol_pct / 100.0),
            _ => false,
        };
        if let Some(v) = value {
            if off {
                // Epoch slot carries the point index so the streak
                // remembers where the drift began.
                if streak.hit(i as u64, 0, cfg.drift_runs) {
                    let start = streak.start_epoch as usize;
                    drift = Some(Drift {
                        start_run_id: window[start].run_id.clone(),
                        start_index: start,
                        runs: streak.len,
                        worst: v,
                    });
                } else if let Some(d) = drift.as_mut() {
                    if streak.len > d.runs {
                        d.runs = streak.len;
                        if direction.is_worse(v, d.worst) {
                            d.worst = v;
                        }
                    }
                }
            } else {
                streak.miss();
            }
        }
        points.push(TrendPoint {
            run_id: rec.run_id.clone(),
            started_unix_s: rec.started_unix_s,
            status: rec.status.clone(),
            health: rec.health.clone(),
            value,
            off,
        });
    }
    Trend {
        metric: metric.to_string(),
        reference,
        tol_pct: cfg.tol_pct,
        points,
        drift,
    }
}

/// Formats a Unix timestamp as `YYYY-MM-DD HH:MM` UTC (civil-from-days,
/// proleptic Gregorian).
pub fn fmt_unix(unix_s: u64) -> String {
    let days = (unix_s / 86_400) as i64;
    let secs = unix_s % 86_400;
    // Howard Hinnant's civil_from_days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{y:04}-{m:02}-{d:02} {:02}:{:02}",
        secs / 3600,
        (secs % 3600) / 60
    )
}

fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let a = v.abs();
    if a != 0.0 && !(1e-3..1e5).contains(&a) {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// Renders the aligned trend table: one row per run, newest last, with
/// the delta against the previous recorded value and drift markers.
pub fn render_trend(t: &Trend) -> String {
    let mut rows: Vec<[String; 7]> = vec![[
        "RUN".into(),
        "STARTED (UTC)".into(),
        "STATUS".into(),
        "HEALTH".into(),
        t.metric.to_uppercase(),
        "DELTA".into(),
        String::new(),
    ]];
    let mut prev: Option<f64> = None;
    for p in &t.points {
        let value = p.value.map_or("-".to_string(), fmt_value);
        let delta = match (prev, p.value) {
            (Some(a), Some(b)) if a != 0.0 && b.is_finite() => {
                format!("{:+.1}%", (b - a) / a.abs() * 100.0)
            }
            (_, Some(_)) => "-".to_string(),
            _ => String::new(),
        };
        if p.value.is_some() {
            prev = p.value;
        }
        let mark = if t.drift.as_ref().is_some_and(|d| {
            p.run_id == d.start_run_id
        }) {
            "<- drift starts".to_string()
        } else if p.off {
            "off".to_string()
        } else {
            String::new()
        };
        rows.push([
            p.run_id.clone(),
            fmt_unix(p.started_unix_s),
            p.status.clone(),
            p.health.clone().unwrap_or_else(|| "-".to_string()),
            value,
            delta,
            mark,
        ]);
    }
    let mut widths = [0usize; 7];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "trend: {} over {} run(s)", t.metric, t.points.len());
    match t.reference {
        Some(reference) => {
            let _ = writeln!(
                out,
                "reference (median): {}  tolerance: {:.1}%  direction: {}",
                fmt_value(reference),
                t.tol_pct,
                Direction::of(&t.metric).label()
            );
        }
        None => {
            let _ = writeln!(out, "no run recorded this metric");
        }
    }
    out.push('\n');
    for row in &rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            let pad = widths[i].saturating_sub(cell.len());
            // Right-align the numeric columns.
            if i == 4 || i == 5 {
                line.extend(std::iter::repeat_n(' ', pad));
                line.push_str(cell);
            } else {
                line.push_str(cell);
                line.extend(std::iter::repeat_n(' ', pad));
            }
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out.push('\n');
    match &t.drift {
        Some(d) => {
            let _ = writeln!(
                out,
                "DRIFT: {} consecutive run(s) beyond {:.1}% of the median since {} (worst {})",
                d.runs,
                t.tol_pct,
                d.start_run_id,
                fmt_value(d.worst)
            );
        }
        None => {
            let _ = writeln!(out, "no drift: no {} consecutive run(s) off the median", 2);
        }
    }
    out
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

const SVG_W: f64 = 960.0;
const PANEL_H: f64 = 250.0;
const MARGIN_L: f64 = 64.0;
const MARGIN_R: f64 = 20.0;
const TITLE_H: f64 = 32.0;
const AXIS_H: f64 = 40.0;

fn panel_svg(out: &mut String, t: &Trend, y0: f64) {
    let _ = writeln!(
        out,
        "<rect x=\"8\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" fill=\"#ffffff\" stroke=\"#d4d4d8\"/>",
        y0,
        SVG_W - 16.0,
        PANEL_H - 8.0
    );
    let _ = writeln!(
        out,
        "<text x=\"16\" y=\"{:.1}\" class=\"title\">{} across runs</text>",
        y0 + 20.0,
        esc(&t.metric)
    );
    let recorded: Vec<(usize, f64)> = t
        .points
        .iter()
        .enumerate()
        .filter_map(|(i, p)| p.value.filter(|v| v.is_finite()).map(|v| (i, v)))
        .collect();
    if recorded.is_empty() {
        let _ = writeln!(
            out,
            "<text x=\"16\" y=\"{:.1}\" class=\"note\">no recorded values</text>",
            y0 + PANEL_H / 2.0
        );
        return;
    }
    let (px, py, pw, ph) = (
        MARGIN_L,
        y0 + TITLE_H,
        SVG_W - MARGIN_L - MARGIN_R,
        PANEL_H - TITLE_H - AXIS_H,
    );
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &(_, v) in &recorded {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if let Some(reference) = t.reference {
        let tol = reference.abs() * t.tol_pct / 100.0;
        lo = lo.min(reference - tol);
        hi = hi.max(reference + tol);
    }
    if hi <= lo {
        hi = lo + 1.0;
    }
    let pad = (hi - lo) * 0.08;
    let (lo, hi) = (lo - pad, hi + pad);
    let n = t.points.len().max(2);
    let x_of = |i: usize| px + pw * (i as f64 + 0.5) / n as f64;
    let y_of = |v: f64| py + ph * (1.0 - (v - lo) / (hi - lo));

    // Tolerance band around the median reference.
    if let Some(reference) = t.reference {
        let tol = reference.abs() * t.tol_pct / 100.0;
        let (top, bottom) = (y_of(reference + tol), y_of(reference - tol));
        let _ = writeln!(
            out,
            "<rect x=\"{px:.1}\" y=\"{top:.1}\" width=\"{pw:.1}\" height=\"{:.1}\" fill=\"#dcfce7\"/>",
            (bottom - top).max(0.0)
        );
        let yr = y_of(reference);
        let _ = writeln!(
            out,
            "<line x1=\"{px:.1}\" y1=\"{yr:.1}\" x2=\"{:.1}\" y2=\"{yr:.1}\" stroke=\"#16a34a\" stroke-dasharray=\"4 3\"/>",
            px + pw
        );
        let _ = writeln!(
            out,
            "<text x=\"{:.1}\" y=\"{:.1}\" class=\"note\" text-anchor=\"end\">median {}</text>",
            px + pw - 4.0,
            yr - 4.0,
            esc(&fmt_value(reference))
        );
    }
    // Drift region shading.
    if let Some(d) = &t.drift {
        let x0 = x_of(d.start_index) - pw / n as f64 * 0.5;
        let _ = writeln!(
            out,
            "<rect x=\"{x0:.1}\" y=\"{py:.1}\" width=\"{:.1}\" height=\"{ph:.1}\" fill=\"#fee2e2\" fill-opacity=\"0.7\"/>",
            px + pw - x0
        );
    }
    // Axis frame and min/max labels.
    let _ = writeln!(
        out,
        "<rect x=\"{px:.1}\" y=\"{py:.1}\" width=\"{pw:.1}\" height=\"{ph:.1}\" fill=\"none\" stroke=\"#e4e4e7\"/>"
    );
    let _ = writeln!(
        out,
        "<text x=\"{:.1}\" y=\"{:.1}\" class=\"note\" text-anchor=\"end\">{}</text>",
        px - 6.0,
        py + 10.0,
        esc(&fmt_value(hi))
    );
    let _ = writeln!(
        out,
        "<text x=\"{:.1}\" y=\"{:.1}\" class=\"note\" text-anchor=\"end\">{}</text>",
        px - 6.0,
        py + ph,
        esc(&fmt_value(lo))
    );
    // The series polyline over recorded points.
    if recorded.len() > 1 {
        let mut pts = String::new();
        for &(i, v) in &recorded {
            let _ = write!(pts, "{:.1},{:.1} ", x_of(i), y_of(v));
        }
        let _ = writeln!(
            out,
            "<polyline points=\"{}\" fill=\"none\" stroke=\"#2563eb\" stroke-width=\"1.5\"/>",
            pts.trim_end()
        );
    }
    // Markers: blue in-band, red when off.
    for &(i, v) in &recorded {
        let color = if t.points[i].off { "#dc2626" } else { "#2563eb" };
        let _ = writeln!(
            out,
            "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"3.2\" fill=\"{color}\"/>",
            x_of(i),
            y_of(v)
        );
    }
    // Run labels along the x axis (thinned when crowded).
    let step = (t.points.len() / 12).max(1);
    for (i, p) in t.points.iter().enumerate() {
        if i % step != 0 && i + 1 != t.points.len() {
            continue;
        }
        let _ = writeln!(
            out,
            "<text x=\"{:.1}\" y=\"{:.1}\" class=\"note\" text-anchor=\"middle\">{}</text>",
            x_of(i),
            py + ph + 14.0,
            esc(&fmt_unix(p.started_unix_s))
        );
        let _ = writeln!(
            out,
            "<text x=\"{:.1}\" y=\"{:.1}\" class=\"tiny\" text-anchor=\"middle\">{}</text>",
            x_of(i),
            py + ph + 26.0,
            esc(&p.run_id)
        );
    }
}

/// Renders one self-contained SVG with a panel per trend (no scripts,
/// fonts or external assets — the `runs trend` counterpart of the
/// per-run dashboard).
pub fn trend_svg(trends: &[Trend]) -> String {
    let height = PANEL_H * trends.len().max(1) as f64 + 16.0;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{SVG_W:.0}\" height=\"{height:.0}\" viewBox=\"0 0 {SVG_W:.0} {height:.0}\">"
    );
    let _ = writeln!(
        out,
        "<style>text{{font-family:ui-monospace,monospace;fill:#18181b}}.title{{font-size:14px;font-weight:600}}.note{{font-size:10px;fill:#52525b}}.tiny{{font-size:8px;fill:#a1a1aa}}</style>"
    );
    let _ = writeln!(
        out,
        "<rect x=\"0\" y=\"0\" width=\"{SVG_W:.0}\" height=\"{height:.0}\" fill=\"#fafafa\"/>"
    );
    if trends.is_empty() {
        let _ = writeln!(
            out,
            "<text x=\"16\" y=\"40\" class=\"title\">no trends requested</text>"
        );
    }
    for (i, t) in trends.iter().enumerate() {
        panel_svg(&mut out, t, 8.0 + PANEL_H * i as f64);
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::INDEX_SCHEMA;

    fn rec(run_id: &str, started: u64, ede: Option<f64>) -> IndexRecord {
        IndexRecord {
            schema_version: INDEX_SCHEMA,
            run_id: run_id.to_string(),
            command: "train".to_string(),
            started_unix_s: started,
            seed: Some(1),
            dataset_fingerprint: None,
            status: "ok".to_string(),
            wall_clock_s: Some(1.0),
            simd: None,
            metrics: ede
                .map(|v| vec![("ede_mean_nm".to_string(), v)])
                .unwrap_or_default(),
            health: Some("ok".to_string()),
        }
    }

    #[test]
    fn clean_series_has_no_drift() {
        let records: Vec<IndexRecord> = (0..5)
            .map(|i| rec(&format!("r{i}"), 100 + i, Some(6.0 + 0.1 * i as f64)))
            .collect();
        let t = trend(&records, "ede_mean_nm", None, &TrendConfig::default());
        assert!(t.drift.is_none());
        assert!(t.points.iter().all(|p| !p.off));
        assert_eq!(t.reference, Some(6.2));
    }

    #[test]
    fn single_bad_run_is_noise_two_confirm_drift() {
        let mut records: Vec<IndexRecord> = (0..4)
            .map(|i| rec(&format!("r{i}"), 100 + i, Some(6.0)))
            .collect();
        records.push(rec("spike", 104, Some(9.0)));
        records.push(rec("r5", 105, Some(6.0)));
        let t = trend(&records, "ede_mean_nm", None, &TrendConfig::default());
        assert!(t.drift.is_none(), "one off run must not confirm a drift");
        assert!(t.points[4].off);

        records.push(rec("bad1", 106, Some(9.0)));
        records.push(rec("bad2", 107, Some(9.5)));
        let t = trend(&records, "ede_mean_nm", None, &TrendConfig::default());
        let d = t.drift.expect("two consecutive off runs confirm a drift");
        assert_eq!(d.start_run_id, "bad1");
        assert_eq!(d.runs, 2);
        assert_eq!(d.worst, 9.5);
    }

    #[test]
    fn higher_is_better_direction_and_last_window() {
        let mut records: Vec<IndexRecord> = Vec::new();
        for i in 0..4 {
            let mut r = rec(&format!("r{i}"), 100 + i, None);
            r.metrics = vec![("mean_iou".to_string(), 0.8)];
            records.push(r);
        }
        for i in 0..2 {
            let mut r = rec(&format!("low{i}"), 200 + i, None);
            r.metrics = vec![("mean_iou".to_string(), 0.4)];
            records.push(r);
        }
        let t = trend(&records, "mean_iou", None, &TrendConfig::default());
        assert!(t.drift.is_some(), "drops in a higher-is-better metric drift");

        // A --last window that only sees the low plateau is clean: the
        // median moves with the window.
        let t = trend(&records, "mean_iou", Some(2), &TrendConfig::default());
        assert!(t.drift.is_none());
        assert_eq!(t.points.len(), 2);
        assert_eq!(t.reference, Some(0.4));
    }

    #[test]
    fn throughput_and_utilization_drift_only_when_they_drop() {
        for (metric, clean) in [("samples_per_sec", 10.0), ("pool_utilization", 0.5)] {
            let series = |tail: f64| -> Vec<IndexRecord> {
                (0..6)
                    .map(|i| {
                        let mut r = rec(&format!("r{i}"), 100 + i, None);
                        let v = if i < 4 { clean } else { tail };
                        r.metrics = vec![(metric.to_string(), v)];
                        r
                    })
                    .collect()
            };
            let cfg = TrendConfig::default();
            let t = trend(&series(clean * 0.6), metric, None, &cfg);
            let d = t
                .drift
                .unwrap_or_else(|| panic!("{metric}: a 40% drop must drift"));
            assert_eq!(d.start_run_id, "r4");
            assert_eq!(d.worst, clean * 0.6);
            let t = trend(&series(clean * 1.4), metric, None, &cfg);
            assert!(t.drift.is_none(), "{metric}: a 40% rise is an improvement");
            assert!(t.points.iter().all(|p| !p.off));
            assert!(render_trend(&t).contains("direction: higher is better"));
        }
    }

    #[test]
    fn slice_qualified_keys_trend_like_their_base_metric() {
        let key = crate::index::slice_metric_key("ede_mean_nm", "chain1d");
        let mut records: Vec<IndexRecord> = (0..3)
            .map(|i| {
                let mut r = rec(&format!("r{i}"), 100 + i, None);
                r.metrics = vec![(key.clone(), 3.0)];
                r
            })
            .collect();
        for i in 0..2 {
            let mut r = rec(&format!("bad{i}"), 200 + i, None);
            r.metrics = vec![(key.clone(), 5.0)];
            records.push(r);
        }
        let t = trend(&records, &key, None, &TrendConfig::default());
        assert!(t.drift.is_some(), "one family regressing drifts on its slice key");
        // Runs that never recorded the slice abstain, as with any metric.
        let t = trend(&records, "ede_mean_nm{family=isolated}", None, &TrendConfig::default());
        assert!(t.reference.is_none());
        assert!(t.drift.is_none());
    }

    #[test]
    fn nan_values_count_as_off() {
        let mut records: Vec<IndexRecord> = (0..3)
            .map(|i| rec(&format!("r{i}"), 100 + i, Some(6.0)))
            .collect();
        records.push(rec("nan1", 103, Some(f64::NAN)));
        records.push(rec("nan2", 104, Some(f64::NAN)));
        let t = trend(&records, "ede_mean_nm", None, &TrendConfig::default());
        assert!(t.points[3].off && t.points[4].off);
        assert!(t.drift.is_some());
        assert_eq!(t.reference, Some(6.0), "NaNs are excluded from the median");
    }

    #[test]
    fn runs_without_the_metric_interrupt_nothing() {
        // A metric-less run between two off runs must not reset the
        // streak (it abstains rather than votes).
        let records = vec![
            rec("r0", 100, Some(6.0)),
            rec("r1", 101, Some(6.0)),
            rec("r2", 102, Some(6.0)),
            rec("bad1", 103, Some(9.0)),
            rec("gap", 104, None),
            rec("bad2", 105, Some(9.0)),
        ];
        let t = trend(&records, "ede_mean_nm", None, &TrendConfig::default());
        assert!(t.drift.is_some());
        assert_eq!(t.drift.unwrap().start_run_id, "bad1");
    }

    #[test]
    fn table_and_svg_render() {
        let records = vec![
            rec("r0", 1_700_000_000, Some(6.0)),
            rec("r1", 1_700_000_100, Some(6.1)),
            rec("bad1", 1_700_000_200, Some(9.0)),
            rec("bad2", 1_700_000_300, Some(9.2)),
        ];
        let t = trend(&records, "ede_mean_nm", None, &TrendConfig::default());
        let table = render_trend(&t);
        assert!(table.contains("EDE_MEAN_NM"));
        assert!(table.contains("<- drift starts"));
        assert!(table.contains("DRIFT: 2 consecutive"));
        assert!(table.contains("2023-11-14"));

        let svg = trend_svg(&[t]);
        assert!(svg.starts_with("<svg "));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("ede_mean_nm across runs"));
        assert!(svg.contains("polyline"));
        assert!(!svg.contains("http://") || svg.contains("http://www.w3.org"));
    }

    #[test]
    fn fmt_unix_is_civil_utc() {
        assert_eq!(fmt_unix(0), "1970-01-01 00:00");
        assert_eq!(fmt_unix(1_700_000_000), "2023-11-14 22:13");
    }
}
