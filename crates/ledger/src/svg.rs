//! Self-contained SVG dashboard for one run: training loss curves, the
//! per-sample EDE histogram (the paper's Figure 7), and a stage-latency
//! breakdown from the trace. No external assets, scripts or fonts — the
//! file renders anywhere an `<svg>` does.

use std::fmt::Write as _;

use crate::report::RunData;
use crate::trace::SpanAgg;

const WIDTH: f64 = 960.0;
const PANEL_H: f64 = 240.0;
const MARGIN: f64 = 48.0;

/// Escapes `&`, `<`, `>` and `"` for markup text and attribute values: the
/// one escape behind every SVG document and HTML page the ledger, the dash
/// and the alert banner render.
pub fn escape_markup(s: &str) -> String {
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

use escape_markup as esc;

struct Panel<'a> {
    out: &'a mut String,
    x0: f64,
    y0: f64,
    w: f64,
    h: f64,
}

impl Panel<'_> {
    fn frame(&mut self, title: &str) {
        let _ = writeln!(
            self.out,
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" fill=\"#ffffff\" stroke=\"#d4d4d8\"/>",
            self.x0, self.y0, self.w, self.h
        );
        let _ = writeln!(
            self.out,
            "<text x=\"{:.1}\" y=\"{:.1}\" class=\"title\">{}</text>",
            self.x0 + 8.0,
            self.y0 + 18.0,
            esc(title)
        );
    }

    fn note(&mut self, text: &str) {
        let _ = writeln!(
            self.out,
            "<text x=\"{:.1}\" y=\"{:.1}\" class=\"note\">{}</text>",
            self.x0 + 8.0,
            self.y0 + self.h / 2.0,
            esc(text)
        );
    }
}

/// Inner plotting box of a panel (below the title strip).
fn plot_box(p: &Panel) -> (f64, f64, f64, f64) {
    (
        p.x0 + MARGIN,
        p.y0 + 30.0,
        p.w - MARGIN - 16.0,
        p.h - 30.0 - 28.0,
    )
}

fn loss_panel(panel: &mut Panel, run: &RunData) {
    panel.frame("training loss (per epoch)");
    let Some(t) = &run.trace else {
        panel.note("no trace — run with --metrics-out or without --no-run");
        return;
    };
    if t.epochs.is_empty() {
        panel.note("no train_epoch events in trace");
        return;
    }
    let (px, py, pw, ph) = plot_box(panel);
    let n = t.epochs.len();
    let values: Vec<f64> = t
        .epochs
        .iter()
        .flat_map(|e| [e.g_loss, e.d_loss])
        .filter(|v| v.is_finite())
        .collect();
    let vmax = values.iter().cloned().fold(f64::MIN, f64::max).max(1e-9);
    let vmin = values.iter().cloned().fold(f64::MAX, f64::min).min(0.0);
    let sx = |i: usize| px + pw * if n > 1 { i as f64 / (n - 1) as f64 } else { 0.5 };
    let sy = |v: f64| py + ph * (1.0 - (v - vmin) / (vmax - vmin).max(1e-12));
    for (key, color) in [("g_loss", "#2563eb"), ("d_loss", "#dc2626")] {
        let mut points = String::new();
        for (i, e) in t.epochs.iter().enumerate() {
            let v = if key == "g_loss" { e.g_loss } else { e.d_loss };
            if !v.is_finite() {
                continue;
            }
            let _ = write!(points, "{:.1},{:.1} ", sx(i), sy(v));
        }
        let _ = writeln!(
            panel.out,
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\"/>",
            points.trim_end()
        );
    }
    // Axis labels: y extremes and x extent, plus a legend.
    let _ = writeln!(
        panel.out,
        "<text x=\"{:.1}\" y=\"{:.1}\" class=\"axis\">{vmax:.2}</text>\
         <text x=\"{:.1}\" y=\"{:.1}\" class=\"axis\">{vmin:.2}</text>\
         <text x=\"{:.1}\" y=\"{:.1}\" class=\"axis\">epoch 0..{}</text>",
        panel.x0 + 6.0,
        py + 10.0,
        panel.x0 + 6.0,
        py + ph,
        px,
        py + ph + 16.0,
        n - 1
    );
    let _ = writeln!(
        panel.out,
        "<text x=\"{:.1}\" y=\"{:.1}\" class=\"axis\" fill=\"#2563eb\">g_loss</text>\
         <text x=\"{:.1}\" y=\"{:.1}\" class=\"axis\" fill=\"#dc2626\">d_loss</text>",
        px + pw - 90.0,
        py + 12.0,
        px + pw - 40.0,
        py + 12.0
    );
}

fn ede_panel(panel: &mut Panel, run: &RunData) {
    panel.frame("EDE distribution (nm, per sample)");
    let values: Vec<f64> = run
        .records
        .iter()
        .filter_map(|r| r.ede_mean_nm)
        .filter(|v| v.is_finite())
        .collect();
    if values.is_empty() {
        panel.note("no per-sample EDE records");
        return;
    }
    let (px, py, pw, ph) = plot_box(panel);
    let vmax = values.iter().cloned().fold(f64::MIN, f64::max).max(1e-9);
    const BINS: usize = 16;
    let mut bins = [0usize; BINS];
    for v in &values {
        let i = ((v / vmax) * BINS as f64) as usize;
        bins[i.min(BINS - 1)] += 1;
    }
    let peak = bins.iter().copied().max().unwrap_or(1).max(1) as f64;
    let bw = pw / BINS as f64;
    for (i, &count) in bins.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let h = ph * count as f64 / peak;
        let _ = writeln!(
            panel.out,
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" fill=\"#0d9488\"/>",
            px + i as f64 * bw,
            py + ph - h,
            (bw - 1.0).max(0.5),
            h
        );
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let _ = writeln!(
        panel.out,
        "<text x=\"{:.1}\" y=\"{:.1}\" class=\"axis\">0</text>\
         <text x=\"{:.1}\" y=\"{:.1}\" class=\"axis\" text-anchor=\"end\">{vmax:.2} nm</text>\
         <text x=\"{:.1}\" y=\"{:.1}\" class=\"axis\">n={} mean={mean:.2} nm</text>",
        px,
        py + ph + 16.0,
        px + pw,
        py + ph + 16.0,
        px,
        py + 12.0,
        values.len()
    );
}

fn latency_panel(panel: &mut Panel, run: &RunData) {
    panel.frame("stage latency (self time)");
    let Some(t) = &run.trace else {
        panel.note("no trace recorded for this run");
        return;
    };
    let mut spans: Vec<&SpanAgg> = t.spans.iter().filter(|s| s.self_us > 0.0).collect();
    spans.sort_by(|a, b| b.self_us.total_cmp(&a.self_us));
    spans.truncate(10);
    if spans.is_empty() {
        panel.note("no span events in trace");
        return;
    }
    let (px, py, pw, ph) = plot_box(panel);
    let vmax = spans[0].self_us.max(1e-9);
    let label_w = 220.0_f64.min(pw * 0.45);
    let row_h = (ph / spans.len() as f64).min(24.0);
    for (i, s) in spans.iter().enumerate() {
        let y = py + i as f64 * row_h;
        let w = (pw - label_w) * s.self_us / vmax;
        let _ = writeln!(
            panel.out,
            "<text x=\"{:.1}\" y=\"{:.1}\" class=\"axis\" text-anchor=\"end\">{}</text>\
             <rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" fill=\"#7c3aed\"/>\
             <text x=\"{:.1}\" y=\"{:.1}\" class=\"axis\">{}</text>",
            px + label_w - 6.0,
            y + row_h * 0.7,
            esc(&s.path),
            px + label_w,
            y + row_h * 0.15,
            w.max(1.0),
            row_h * 0.7,
            px + label_w + w.max(1.0) + 4.0,
            y + row_h * 0.7,
            crate::report::fmt_us(s.self_us)
        );
    }
}

/// Renders the dashboard for one run.
pub fn dashboard_svg(run: &RunData) -> String {
    let height = 40.0 + 3.0 * (PANEL_H + 12.0);
    let mut out = String::with_capacity(16 * 1024);
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height}\" \
         viewBox=\"0 0 {WIDTH} {height}\" font-family=\"sans-serif\">"
    );
    let _ = writeln!(
        out,
        "<style>.title{{font-size:13px;font-weight:bold;fill:#18181b}}\
         .note{{font-size:12px;fill:#71717a}}\
         .axis{{font-size:10px;fill:#52525b}}\
         .head{{font-size:15px;font-weight:bold;fill:#18181b}}</style>"
    );
    let _ = writeln!(
        out,
        "<rect x=\"0\" y=\"0\" width=\"{WIDTH}\" height=\"{height}\" fill=\"#fafafa\"/>"
    );
    let m = &run.manifest;
    let wall = m
        .wall_clock_s
        .map(|s| format!("{s:.2}s"))
        .unwrap_or_else(|| "-".to_string());
    let _ = writeln!(
        out,
        "<text x=\"16\" y=\"26\" class=\"head\">{} — {} ({}, wall {})</text>",
        esc(&m.run_id),
        esc(&m.command),
        esc(&m.status),
        esc(&wall)
    );
    for (i, draw) in [loss_panel, ede_panel, latency_panel].iter().enumerate() {
        let mut panel = Panel {
            out: &mut out,
            x0: 16.0,
            y0: 40.0 + i as f64 * (PANEL_H + 12.0),
            w: WIDTH - 32.0,
            h: PANEL_H,
        };
        draw(&mut panel, run);
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_markup() {
        assert_eq!(esc("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
    }
}
