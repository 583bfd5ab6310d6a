//! Worst-clip triage for one run: `lithogan_cli triage <run> [--worst K]`.
//!
//! Ranks the run's per-sample records by EDE (contours that vanished
//! outrank every numeric error) and renders two views: a ranked text
//! table for the terminal and a self-contained SVG gallery. The ledger
//! stores metrics, not rasters, so each gallery panel is a *schematic*
//! reconstruction: the golden contour drawn as a nominal contact, the
//! predicted contour displaced outward per edge by the recorded
//! `ede_edges_nm` magnitudes, and the mask target as a dashed outline —
//! enough to see at a glance which edge of which clip family is
//! misprinting, without shipping images through the ledger.

use std::fmt::Write as _;

use litho_metrics::SampleRecord;

use crate::escape_markup as esc;

const PANEL_W: f64 = 230.0;
const PANEL_H: f64 = 230.0;
const COLS: usize = 4;
const PAD: f64 = 10.0;
/// Side of the schematic golden contour, px.
const GOLD_SIDE: f64 = 90.0;
/// Cap on the rendered per-edge displacement, px.
const MAX_DISP: f64 = 28.0;

/// References to the worst `k` records: contour-less records first (the
/// model printed nothing where the golden has a contact), then by EDE
/// descending; sample index breaks ties deterministically.
pub fn rank_worst(records: &[SampleRecord], k: usize) -> Vec<&SampleRecord> {
    let mut ranked: Vec<&SampleRecord> = records.iter().collect();
    let badness = |r: &SampleRecord| r.ede_mean_nm.unwrap_or(f64::INFINITY);
    ranked.sort_by(|x, y| {
        badness(y)
            .partial_cmp(&badness(x))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.sample.cmp(&y.sample))
    });
    ranked.truncate(k);
    ranked
}

/// Ranked worst-clip table (the `triage` stdout view).
pub fn render_triage(run_id: &str, records: &[SampleRecord], k: usize) -> String {
    let mut out = String::new();
    let worst = rank_worst(records, k);
    let _ = writeln!(
        out,
        "== triage {run_id}: worst {} of {} samples ==",
        worst.len(),
        records.len()
    );
    if worst.is_empty() {
        let _ = writeln!(out, "(no per-sample records)");
        return out;
    }
    let _ = writeln!(
        out,
        "  {:>4} {:>7} {:<16} {:<9} {:>11} {:>9} {:>9} {:>9} {:>9}",
        "RANK", "SAMPLE", "CLIP", "FAMILY", "EDE (nm)", "TOP", "BOTTOM", "LEFT", "RIGHT"
    );
    for (rank, r) in worst.iter().enumerate() {
        let edges = r.ede_edges_nm.unwrap_or([f64::NAN; 4]);
        let edge = |i: usize| {
            if r.ede_edges_nm.is_some() {
                format!("{:.3}", edges[i])
            } else {
                "-".to_string()
            }
        };
        let ede = match r.ede_mean_nm {
            Some(e) => format!("{e:.3}"),
            None => "no contour".to_string(),
        };
        let _ = writeln!(
            out,
            "  {:>4} {:>7} {:<16} {:<9} {:>11} {:>9} {:>9} {:>9} {:>9}",
            rank + 1,
            r.sample,
            r.clip_fingerprint.as_deref().unwrap_or("-"),
            r.family.as_deref().unwrap_or("-"),
            ede,
            edge(0),
            edge(1),
            edge(2),
            edge(3),
        );
    }
    out
}

fn panel(out: &mut String, x0: f64, y0: f64, rank: usize, r: &SampleRecord, nm_per_px: f64) {
    let _ = writeln!(
        out,
        "<rect x=\"{x0:.1}\" y=\"{y0:.1}\" width=\"{PANEL_W:.1}\" height=\"{PANEL_H:.1}\" \
         fill=\"#ffffff\" stroke=\"#d4d4d8\"/>"
    );
    let title = format!(
        "#{rank} sample {} {}",
        r.sample,
        r.family.as_deref().unwrap_or("?")
    );
    let _ = writeln!(
        out,
        "<text x=\"{:.1}\" y=\"{:.1}\" class=\"title\">{}</text>",
        x0 + 8.0,
        y0 + 16.0,
        esc(&title)
    );
    let sub = match (&r.clip_fingerprint, r.ede_mean_nm) {
        (Some(fp), Some(e)) => format!("{fp}  ede {e:.2} nm"),
        (Some(fp), None) => format!("{fp}  no contour"),
        (None, Some(e)) => format!("ede {e:.2} nm"),
        (None, None) => "no contour".to_string(),
    };
    let _ = writeln!(
        out,
        "<text x=\"{:.1}\" y=\"{:.1}\" class=\"note\">{}</text>",
        x0 + 8.0,
        y0 + 30.0,
        esc(&sub)
    );

    let cx = x0 + PANEL_W / 2.0;
    let cy = y0 + 36.0 + (PANEL_H - 36.0) / 2.0;
    let half = GOLD_SIDE / 2.0;
    // Mask target: the nominal contact the layout asked for.
    let m = half + 6.0;
    let _ = writeln!(
        out,
        "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" fill=\"none\" \
         stroke=\"#a1a1aa\" stroke-dasharray=\"4 3\"/>",
        cx - m,
        cy - m,
        2.0 * m,
        2.0 * m
    );
    // Golden resist contour.
    let _ = writeln!(
        out,
        "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{GOLD_SIDE:.1}\" height=\"{GOLD_SIDE:.1}\" \
         fill=\"none\" stroke=\"#16a34a\" stroke-width=\"1.6\"/>",
        cx - half,
        cy - half
    );
    match r.ede_edges_nm {
        None => {
            let _ = writeln!(
                out,
                "<text x=\"{cx:.1}\" y=\"{cy:.1}\" class=\"warn\" text-anchor=\"middle\">\
                 no printed contour</text>"
            );
        }
        Some(edges) => {
            // Schematic: displace each predicted edge outward by its
            // recorded |EDE| (the record stores magnitudes, not signs).
            let disp = |nm: f64| (nm / nm_per_px).min(MAX_DISP);
            let [top, bottom, left, right] = edges;
            let py0 = cy - half - disp(top);
            let py1 = cy + half + disp(bottom);
            let px0 = cx - half - disp(left);
            let px1 = cx + half + disp(right);
            let _ = writeln!(
                out,
                "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" \
                 fill=\"#dc2626\" fill-opacity=\"0.08\" stroke=\"#dc2626\" stroke-width=\"1.6\"/>",
                px0,
                py0,
                px1 - px0,
                py1 - py0
            );
            let label = |out: &mut String, x: f64, y: f64, anchor: &str, nm: f64| {
                let _ = writeln!(
                    out,
                    "<text x=\"{x:.1}\" y=\"{y:.1}\" class=\"edge\" text-anchor=\"{anchor}\">\
                     {nm:.2}</text>"
                );
            };
            label(out, cx, py0 - 4.0, "middle", top);
            label(out, cx, py1 + 12.0, "middle", bottom);
            label(out, px0 - 4.0, cy + 3.0, "end", left);
            label(out, px1 + 4.0, cy + 3.0, "start", right);
        }
    }
}

/// Self-contained gallery SVG of the worst `k` clips (schematic contour
/// overlays; see the module docs). `nm_per_px` scales the edge
/// displacements into picture space — pass the dataset's value when
/// known, or rely on the default 1.0.
pub fn triage_svg(run_id: &str, records: &[SampleRecord], k: usize, nm_per_px: f64) -> String {
    let worst = rank_worst(records, k);
    let cols = COLS.min(worst.len().max(1));
    let rows = worst.len().div_ceil(cols).max(1);
    let width = PAD * 2.0 + cols as f64 * (PANEL_W + PAD);
    let height = 46.0 + rows as f64 * (PANEL_H + PAD) + PAD;
    let nm_per_px = if nm_per_px.is_finite() && nm_per_px > 0.0 {
        nm_per_px
    } else {
        1.0
    };
    let mut out = String::with_capacity(4096);
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {width:.0} {height:.0}\">"
    );
    let _ = writeln!(
        out,
        "<style>text{{font-family:ui-monospace,monospace;fill:#18181b}}\
         .title{{font-size:11px;font-weight:bold}}.note{{font-size:9px;fill:#52525b}}\
         .edge{{font-size:9px;fill:#dc2626}}.warn{{font-size:10px;fill:#dc2626}}\
         .legend{{font-size:10px;fill:#52525b}}</style>"
    );
    let _ = writeln!(
        out,
        "<rect width=\"100%\" height=\"100%\" fill=\"#fafafa\"/>"
    );
    let _ = writeln!(
        out,
        "<text x=\"{PAD:.1}\" y=\"20\" class=\"title\">triage {} — worst {} of {} samples</text>",
        esc(run_id),
        worst.len(),
        records.len()
    );
    let _ = writeln!(
        out,
        "<text x=\"{PAD:.1}\" y=\"36\" class=\"legend\">schematic: dashed = mask target, \
         green = golden contour, red = predicted contour displaced by per-edge EDE (nm)</text>"
    );
    if worst.is_empty() {
        let _ = writeln!(
            out,
            "<text x=\"{PAD:.1}\" y=\"70\" class=\"note\">no per-sample records</text>"
        );
    }
    for (i, r) in worst.iter().enumerate() {
        let x0 = PAD + (i % cols) as f64 * (PANEL_W + PAD);
        let y0 = 46.0 + (i / cols) as f64 * (PANEL_H + PAD);
        panel(&mut out, x0, y0, i + 1, r, nm_per_px);
    }
    let _ = writeln!(out, "</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(sample: u64, ede: Option<f64>, family: Option<&str>) -> SampleRecord {
        SampleRecord {
            sample,
            pixel_accuracy: 0.9,
            class_accuracy: 0.8,
            mean_iou: 0.7,
            ede_mean_nm: ede,
            ede_edges_nm: ede.map(|e| [e, e / 2.0, e * 2.0, e]),
            center_error_nm: ede,
            clip_fingerprint: family.map(|_| format!("{sample:016x}")),
            family: family.map(str::to_string),
        }
    }

    #[test]
    fn ranking_puts_vanished_contours_first_then_worst_ede() {
        let records = vec![
            rec(0, Some(1.0), Some("isolated")),
            rec(1, Some(5.0), Some("chain1d")),
            rec(2, None, Some("array2d")),
            rec(3, Some(3.0), None),
        ];
        let order: Vec<u64> = rank_worst(&records, 3).iter().map(|r| r.sample).collect();
        assert_eq!(order, vec![2, 1, 3]);
        assert_eq!(rank_worst(&records, 10).len(), 4, "k clamps to len");
    }

    #[test]
    fn table_and_svg_cover_legacy_and_contourless_records() {
        let records = vec![
            rec(0, Some(4.25), Some("chain1d")),
            rec(1, None, Some("isolated")),
            rec(2, Some(2.0), None), // legacy: no identity
        ];
        let table = render_triage("train-1-1", &records, 3);
        assert!(table.contains("worst 3 of 3"));
        assert!(table.contains("no contour"));
        assert!(table.contains("chain1d"));
        assert!(table.contains("4.250"));

        let svg = triage_svg("train-1-1", &records, 3, 1.0);
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("no printed contour"));
        assert!(svg.contains("chain1d"));
        assert!(!svg.contains("NaN"));
        // Self-contained: no external references.
        assert!(!svg.contains("http://") || svg.contains("http://www.w3.org/2000/svg"));
        assert!(!svg.contains("href"));
    }

    #[test]
    fn empty_run_renders_placeholders() {
        assert!(render_triage("r", &[], 5).contains("no per-sample records"));
        let svg = triage_svg("r", &[], 5, 1.0);
        assert!(svg.starts_with("<svg "));
        assert!(svg.contains("no per-sample records"));
    }
}
