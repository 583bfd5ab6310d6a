//! `lithogan_cli health <run>`: per-layer tables, GAN balance summary,
//! sparkline SVG panel and the six named diagnoses over a run's
//! `health.jsonl`.
//!
//! The heavy lifting (schema, tolerant parsing, diagnosis rules) lives in
//! `litho-health`; this module aggregates the record stream into
//! operator-facing tables, mirroring how `report.rs` presents the
//! timing trace.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::escape_markup as esc;

use litho_health::{
    diagnose, parse_health_file, CenterEpochRecord, Diagnosis, GanEpochRecord, HealthParse,
    HealthRecord, Pass, Thresholds,
};

/// Aggregate of one direction (fwd or bwd) of one layer's sampled stats.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerAgg {
    /// Sampled passes observed.
    pub passes: usize,
    /// Mean of per-pass means.
    pub mean: f64,
    /// Mean of per-pass standard deviations.
    pub std: f64,
    /// Mean of per-pass ℓ2 norms.
    pub l2_mean: f64,
    /// ℓ2 of the first / last sampled pass (trend endpoints).
    pub l2_first: f64,
    pub l2_last: f64,
    /// Largest |max| seen.
    pub abs_max: f64,
    /// Largest zero fraction seen.
    pub zero_frac: f64,
    /// Total NaN / Inf sentinels across all sampled passes.
    pub nan: u64,
    pub inf: u64,
}

impl LayerAgg {
    fn add(&mut self, r: &litho_health::LayerRecord) {
        if self.passes == 0 {
            self.l2_first = r.l2;
        }
        let n = self.passes as f64;
        self.mean = (self.mean * n + r.mean) / (n + 1.0);
        self.std = (self.std * n + r.std) / (n + 1.0);
        self.l2_mean = (self.l2_mean * n + r.l2) / (n + 1.0);
        self.l2_last = r.l2;
        self.abs_max = self.abs_max.max(r.abs_max);
        self.zero_frac = self.zero_frac.max(r.zero_frac);
        self.nan += r.nan;
        self.inf += r.inf;
        self.passes += 1;
    }
}

/// One layer's aggregated health: both directions.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerHealth {
    pub net: String,
    pub layer: u64,
    pub name: String,
    pub activation: LayerAgg,
    pub gradient: LayerAgg,
}

/// One parameter's aggregated update-to-weight ratios.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateHealth {
    pub net: String,
    pub param: u64,
    pub steps: usize,
    pub ratio_mean: f64,
    pub ratio_max: f64,
    pub ratio_last: f64,
}

/// Everything `health <run>` shows, derived from one `health.jsonl`.
#[derive(Debug, Clone, Default)]
pub struct HealthAnalysis {
    pub records: usize,
    pub skipped_lines: usize,
    pub truncated_tail: bool,
    /// Per-layer aggregates sorted by (net, layer).
    pub layers: Vec<LayerHealth>,
    /// Per-parameter update aggregates sorted by (net, param).
    pub updates: Vec<UpdateHealth>,
    pub gan: Vec<GanEpochRecord>,
    pub center: Vec<CenterEpochRecord>,
    pub diagnoses: Vec<Diagnosis>,
}

impl HealthAnalysis {
    /// Aggregates a decoded stream and runs the diagnoser (default
    /// [`Thresholds`]).
    pub fn from_parse(parse: &HealthParse) -> HealthAnalysis {
        let mut layers: Vec<LayerHealth> = Vec::new();
        let mut updates: Vec<UpdateHealth> = Vec::new();
        let mut analysis = HealthAnalysis {
            records: parse.records.len(),
            skipped_lines: parse.skipped_lines,
            truncated_tail: parse.truncated_tail,
            ..HealthAnalysis::default()
        };
        for rec in &parse.records {
            match rec {
                HealthRecord::Layer(r) => {
                    let entry = match layers
                        .iter_mut()
                        .find(|l| l.net == r.net && l.layer == r.layer)
                    {
                        Some(entry) => entry,
                        None => {
                            layers.push(LayerHealth {
                                net: r.net.clone(),
                                layer: r.layer,
                                name: r.name.clone(),
                                activation: LayerAgg::default(),
                                gradient: LayerAgg::default(),
                            });
                            layers.last_mut().expect("just pushed")
                        }
                    };
                    match r.pass {
                        Pass::Forward => entry.activation.add(r),
                        Pass::Backward => entry.gradient.add(r),
                    }
                }
                HealthRecord::Update(r) => {
                    let entry = match updates
                        .iter_mut()
                        .find(|u| u.net == r.net && u.param == r.param)
                    {
                        Some(entry) => entry,
                        None => {
                            updates.push(UpdateHealth {
                                net: r.net.clone(),
                                param: r.param,
                                steps: 0,
                                ratio_mean: 0.0,
                                ratio_max: 0.0,
                                ratio_last: 0.0,
                            });
                            updates.last_mut().expect("just pushed")
                        }
                    };
                    let n = entry.steps as f64;
                    entry.ratio_mean = (entry.ratio_mean * n + r.ratio) / (n + 1.0);
                    entry.ratio_max = entry.ratio_max.max(r.ratio);
                    entry.ratio_last = r.ratio;
                    entry.steps += 1;
                }
                HealthRecord::Gan(g) => analysis.gan.push(g.clone()),
                HealthRecord::Center(c) => analysis.center.push(c.clone()),
            }
        }
        layers.sort_by(|a, b| (&a.net, a.layer).cmp(&(&b.net, b.layer)));
        updates.sort_by(|a, b| (&a.net, a.param).cmp(&(&b.net, b.param)));
        analysis.layers = layers;
        analysis.updates = updates;
        analysis.diagnoses = diagnose(&parse.records, &Thresholds::default());
        analysis
    }

    /// Whether any sampled tensor carried NaN/Inf.
    pub fn has_poison(&self) -> bool {
        self.layers
            .iter()
            .any(|l| l.activation.nan + l.activation.inf + l.gradient.nan + l.gradient.inf > 0)
            || self
                .gan
                .iter()
                .any(|g| !g.g_loss.is_finite() || !g.d_loss.is_finite())
            || self.center.iter().any(|c| !c.mse.is_finite())
    }
}

/// Loads and analyzes `<run_dir>/health.jsonl`; `Ok(None)` when the run
/// recorded no health stream.
///
/// # Errors
///
/// Propagates I/O errors other than a missing file.
pub fn load_health(run_dir: &Path) -> io::Result<Option<HealthAnalysis>> {
    let path = run_dir.join("health.jsonl");
    match parse_health_file(&path) {
        Ok(parse) => Ok(Some(HealthAnalysis::from_parse(&parse))),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

fn fmt_sig(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let a = v.abs();
    if a != 0.0 && !(1e-3..1e4).contains(&a) {
        format!("{v:.2e}")
    } else {
        format!("{v:.4}")
    }
}

/// Renders the `health <run>` text view.
pub fn render_health(run_id: &str, h: &HealthAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== health {run_id} ==");
    let _ = writeln!(
        out,
        "records     {}{}{}",
        h.records,
        if h.skipped_lines > 0 {
            format!(", {} lines skipped", h.skipped_lines)
        } else {
            String::new()
        },
        if h.truncated_tail {
            ", truncated tail"
        } else {
            ""
        }
    );

    if !h.layers.is_empty() {
        let w = h
            .layers
            .iter()
            .map(|l| l.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let _ = writeln!(out, "\nactivations (per layer, sampled train steps):");
        let _ = writeln!(
            out,
            "  net layer {:<w$} {:>6} {:>10} {:>10} {:>10} {:>7} {:>5} {:>5}",
            "name", "passes", "mean", "std", "|max|", "zero%", "nan", "inf"
        );
        for l in h.layers.iter().filter(|l| l.activation.passes > 0) {
            let a = &l.activation;
            let _ = writeln!(
                out,
                "  {:<3} {:>5} {:<w$} {:>6} {:>10} {:>10} {:>10} {:>6.1}% {:>5} {:>5}",
                l.net,
                l.layer,
                l.name,
                a.passes,
                fmt_sig(a.mean),
                fmt_sig(a.std),
                fmt_sig(a.abs_max),
                a.zero_frac * 100.0,
                a.nan,
                a.inf
            );
        }
        let _ = writeln!(out, "\ngradients (per layer, sampled train steps):");
        let _ = writeln!(
            out,
            "  net layer {:<w$} {:>6} {:>10} {:>10} {:>10} {:>5} {:>5}",
            "name", "passes", "l2 first", "l2 last", "l2 mean", "nan", "inf"
        );
        for l in h.layers.iter().filter(|l| l.gradient.passes > 0) {
            let g = &l.gradient;
            let _ = writeln!(
                out,
                "  {:<3} {:>5} {:<w$} {:>6} {:>10} {:>10} {:>10} {:>5} {:>5}",
                l.net,
                l.layer,
                l.name,
                g.passes,
                fmt_sig(g.l2_first),
                fmt_sig(g.l2_last),
                fmt_sig(g.l2_mean),
                g.nan,
                g.inf
            );
        }
    }

    if !h.updates.is_empty() {
        let _ = writeln!(out, "\nupdate/weight ratios (per parameter):");
        let _ = writeln!(
            out,
            "  net param {:>6} {:>10} {:>10} {:>10}",
            "steps", "mean", "max", "last"
        );
        for u in &h.updates {
            let _ = writeln!(
                out,
                "  {:<3} {:>5} {:>6} {:>10} {:>10} {:>10}",
                u.net,
                u.param,
                u.steps,
                fmt_sig(u.ratio_mean),
                fmt_sig(u.ratio_max),
                fmt_sig(u.ratio_last)
            );
        }
    }

    if !h.gan.is_empty() {
        let first = &h.gan[0];
        let last = &h.gan[h.gan.len() - 1];
        let _ = writeln!(out, "\ncgan balance ({} epochs):", h.gan.len());
        let _ = writeln!(
            out,
            "  d_real_acc  {} -> {}\n  d_fake_acc  {} -> {}\n  loss_ratio  {} -> {}\n  diversity   {} -> {}",
            fmt_sig(first.d_real_acc),
            fmt_sig(last.d_real_acc),
            fmt_sig(first.d_fake_acc),
            fmt_sig(last.d_fake_acc),
            fmt_sig(first.loss_ratio),
            fmt_sig(last.loss_ratio),
            fmt_sig(first.diversity),
            fmt_sig(last.diversity)
        );
    }
    if !h.center.is_empty() {
        let first = &h.center[0];
        let last = &h.center[h.center.len() - 1];
        let _ = writeln!(
            out,
            "\ncenter cnn ({} epochs): mse {} -> {}, grad norm {} -> {}",
            h.center.len(),
            fmt_sig(first.mse),
            fmt_sig(last.mse),
            fmt_sig(first.grad_norm),
            fmt_sig(last.grad_norm)
        );
    }

    let _ = writeln!(out);
    if h.diagnoses.is_empty() {
        let _ = writeln!(out, "diagnoses: (none)");
    } else {
        let _ = writeln!(out, "diagnoses ({}):", h.diagnoses.len());
        for d in &h.diagnoses {
            let _ = writeln!(out, "  {}", d.to_line());
        }
    }
    out
}

/// One sparkline row: label, series, y range annotation.
#[allow(clippy::too_many_arguments)]
fn sparkline(out: &mut String, x0: f64, y0: f64, w: f64, h: f64, label: &str, color: &str, values: &[f64]) {
    let _ = writeln!(
        out,
        "<text x=\"{:.1}\" y=\"{:.1}\" class=\"axis\" text-anchor=\"end\">{}</text>",
        x0 - 8.0,
        y0 + h * 0.65,
        esc(label)
    );
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        let _ = writeln!(
            out,
            "<text x=\"{:.1}\" y=\"{:.1}\" class=\"axis\">no finite data</text>",
            x0 + 4.0,
            y0 + h * 0.65
        );
        return;
    }
    let vmin = finite.iter().cloned().fold(f64::MAX, f64::min);
    let vmax = finite.iter().cloned().fold(f64::MIN, f64::max);
    let span = (vmax - vmin).max(1e-12);
    let n = values.len();
    let mut points = String::new();
    for (i, v) in values.iter().enumerate() {
        if !v.is_finite() {
            continue;
        }
        let x = x0 + w * if n > 1 { i as f64 / (n - 1) as f64 } else { 0.5 };
        let y = y0 + h * (1.0 - (v - vmin) / span);
        let _ = write!(points, "{x:.1},{y:.1} ");
    }
    let _ = writeln!(
        out,
        "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.3\"/>",
        points.trim_end()
    );
    // Mark NaN windows: a red tick where a value was dropped.
    for (i, v) in values.iter().enumerate() {
        if v.is_finite() {
            continue;
        }
        let x = x0 + w * if n > 1 { i as f64 / (n - 1) as f64 } else { 0.5 };
        let _ = writeln!(
            out,
            "<line x1=\"{x:.1}\" y1=\"{:.1}\" x2=\"{x:.1}\" y2=\"{:.1}\" stroke=\"#dc2626\" stroke-width=\"1.5\"/>",
            y0, y0 + h
        );
    }
    let _ = writeln!(
        out,
        "<text x=\"{:.1}\" y=\"{:.1}\" class=\"axis\">{} .. {}</text>",
        x0 + w + 8.0,
        y0 + h * 0.65,
        fmt_sig(vmin),
        fmt_sig(vmax)
    );
}

/// Renders the health sparkline panel: GAN balance signals and per-net
/// gradient-flow trends, one sparkline per row.
pub fn health_svg(run_id: &str, h: &HealthAnalysis) -> String {
    const WIDTH: f64 = 760.0;
    const ROW_H: f64 = 34.0;
    const LABEL_W: f64 = 150.0;
    const VALUE_W: f64 = 150.0;

    // Assemble (label, color, series) rows.
    let mut rows: Vec<(String, &'static str, Vec<f64>)> = Vec::new();
    if !h.gan.is_empty() {
        rows.push((
            "d_real_acc".into(),
            "#2563eb",
            h.gan.iter().map(|g| g.d_real_acc).collect(),
        ));
        rows.push((
            "d_fake_acc".into(),
            "#0d9488",
            h.gan.iter().map(|g| g.d_fake_acc).collect(),
        ));
        rows.push((
            "g_loss".into(),
            "#7c3aed",
            h.gan.iter().map(|g| g.g_loss).collect(),
        ));
        rows.push((
            "d_loss".into(),
            "#dc2626",
            h.gan.iter().map(|g| g.d_loss).collect(),
        ));
        rows.push((
            "diversity".into(),
            "#d97706",
            h.gan.iter().map(|g| g.diversity).collect(),
        ));
    }
    if !h.center.is_empty() {
        rows.push((
            "center mse".into(),
            "#64748b",
            h.center.iter().map(|c| c.mse).collect(),
        ));
    }
    // Gradient-flow trend per layer with ≥2 sampled backward passes —
    // a sparkline needs a line, not a dot.
    for l in h.layers.iter().filter(|l| l.gradient.passes >= 2) {
        rows.push((
            format!("{} grad l2 L{}", l.net, l.layer),
            "#18181b",
            vec![l.gradient.l2_first, l.gradient.l2_mean, l.gradient.l2_last],
        ));
    }

    let height = 48.0 + rows.len().max(1) as f64 * ROW_H + 16.0;
    let mut out = String::with_capacity(8 * 1024);
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {WIDTH} {height:.0}\" font-family=\"sans-serif\">"
    );
    let _ = writeln!(
        out,
        "<style>.head{{font-size:14px;font-weight:bold;fill:#18181b}}\
         .axis{{font-size:10px;fill:#52525b}}</style>"
    );
    let _ = writeln!(
        out,
        "<rect x=\"0\" y=\"0\" width=\"{WIDTH}\" height=\"{height:.0}\" fill=\"#fafafa\"/>"
    );
    let diag = if h.diagnoses.is_empty() {
        "healthy".to_string()
    } else {
        format!("{} diagnoses", h.diagnoses.len())
    };
    let _ = writeln!(
        out,
        "<text x=\"16\" y=\"24\" class=\"head\">health — {} ({})</text>",
        esc(run_id),
        esc(&diag)
    );
    if rows.is_empty() {
        let _ = writeln!(
            out,
            "<text x=\"16\" y=\"56\" class=\"axis\">no health records</text>"
        );
    }
    for (i, (label, color, values)) in rows.iter().enumerate() {
        sparkline(
            &mut out,
            16.0 + LABEL_W,
            40.0 + i as f64 * ROW_H,
            WIDTH - 32.0 - LABEL_W - VALUE_W,
            ROW_H - 10.0,
            label,
            color,
            values,
        );
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use litho_health::parse_health_str;

    fn fixture_stream() -> String {
        let mut lines = Vec::new();
        for step in [8u64, 16, 24] {
            for (layer, l2) in [(0u64, 0.5), (1, 0.4)] {
                lines.push(format!(
                    "{{\"kind\":\"layer\",\"net\":\"G\",\"pass\":\"fwd\",\"epoch\":0,\"step\":{step},\"layer\":{layer},\"name\":\"ReLU\",\"count\":64,\"mean\":0.1,\"std\":0.2,\"l2\":{l2},\"abs_max\":0.9,\"zero_frac\":0.25,\"nan\":0,\"inf\":0}}"
                ));
                lines.push(format!(
                    "{{\"kind\":\"layer\",\"net\":\"G\",\"pass\":\"bwd\",\"epoch\":0,\"step\":{step},\"layer\":{layer},\"name\":\"ReLU\",\"count\":64,\"mean\":0.0,\"std\":0.1,\"l2\":{l2},\"abs_max\":0.3,\"zero_frac\":0.1,\"nan\":0,\"inf\":0}}"
                ));
            }
            lines.push(format!(
                "{{\"kind\":\"update\",\"net\":\"G\",\"epoch\":0,\"step\":{step},\"param\":0,\"update_l2\":0.001,\"weight_l2\":1.0,\"ratio\":0.001}}"
            ));
        }
        for epoch in 0..3 {
            lines.push(format!(
                "{{\"kind\":\"gan_epoch\",\"epoch\":{epoch},\"d_real_acc\":0.7,\"d_fake_acc\":0.6,\"g_loss\":1.2,\"d_loss\":0.6,\"loss_ratio\":0.5,\"diversity\":0.2}}"
            ));
        }
        lines.join("\n") + "\n"
    }

    #[test]
    fn aggregates_layers_updates_and_epochs() {
        let parse = parse_health_str(&fixture_stream());
        let h = HealthAnalysis::from_parse(&parse);
        assert_eq!(h.records, 3 * 5 + 3);
        assert_eq!(h.layers.len(), 2);
        assert_eq!(h.layers[0].activation.passes, 3);
        assert_eq!(h.layers[0].gradient.passes, 3);
        assert!((h.layers[0].gradient.l2_mean - 0.5).abs() < 1e-9);
        assert_eq!(h.updates.len(), 1);
        assert_eq!(h.updates[0].steps, 3);
        assert_eq!(h.gan.len(), 3);
        assert!(h.diagnoses.is_empty());
        assert!(!h.has_poison());
    }

    #[test]
    fn render_and_svg_cover_all_sections() {
        let parse = parse_health_str(&fixture_stream());
        let h = HealthAnalysis::from_parse(&parse);
        let text = render_health("test-run", &h);
        assert!(text.contains("== health test-run =="));
        assert!(text.contains("activations"));
        assert!(text.contains("gradients"));
        assert!(text.contains("update/weight ratios"));
        assert!(text.contains("cgan balance (3 epochs)"));
        assert!(text.contains("diagnoses: (none)"));
        let svg = health_svg("test-run", &h);
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("d_real_acc"));
        assert!(svg.contains("grad l2 L0"));
    }

    #[test]
    fn poison_shows_in_analysis() {
        let mut text = fixture_stream();
        text.push_str(
            "{\"kind\":\"layer\",\"net\":\"G\",\"pass\":\"fwd\",\"epoch\":1,\"step\":32,\"layer\":0,\"name\":\"ReLU\",\"count\":64,\"mean\":0.1,\"std\":0.2,\"l2\":0.5,\"abs_max\":0.9,\"zero_frac\":0.25,\"nan\":7,\"inf\":0}\n",
        );
        let h = HealthAnalysis::from_parse(&parse_health_str(&text));
        assert!(h.has_poison());
        assert!(h
            .diagnoses
            .iter()
            .any(|d| d.kind == litho_health::DiagnosisKind::NanPoisoned));
        let rendered = render_health("r", &h);
        assert!(rendered.contains("nan-poisoned"));
    }
}
