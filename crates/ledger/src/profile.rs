//! Self-time profiler over one run's trace: a flamegraph SVG, the
//! Brendan-Gregg folded-stack text form, and a top-N attribution table
//! with roofline columns.
//!
//! All three views are derived from the same [`SpanAgg`] aggregates the
//! `report` command prints, so their self-time totals reconcile exactly
//! with the ledger analyzer: the flamegraph is the *shape* of the time,
//! the attribution table is the *ranking*, and both sum to the same
//! microseconds.
//!
//! The flamegraph is an icicle layout (roots on top, children below):
//! each frame's width is proportional to its total time, children are
//! packed left-to-right inside the parent and clamped to the parent's
//! width when nested spans on other threads overlap it. Kernel spans
//! that carry `flops`/`bytes` cost annotations (see
//! `litho_tensor::profile`) are tinted by their roofline verdict —
//! compute-bound frames red-orange, memory-bound frames blue.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use litho_tensor::profile::{machine_balance, RooflineBound};

use crate::report::fmt_us;
use crate::escape_markup as esc;
use crate::trace::{SpanAgg, TraceAnalysis};

const WIDTH: f64 = 960.0;
const ROW_H: f64 = 18.0;
const MARGIN: f64 = 12.0;
/// Frames narrower than this render but carry no label.
const MIN_LABEL_W: f64 = 40.0;

/// One positioned flamegraph frame (exposed for tests).
#[derive(Debug, Clone)]
struct Frame<'a> {
    agg: &'a SpanAgg,
    depth: usize,
    x: f64,
    w: f64,
}

fn leaf(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Lays out the span forest as icicle frames in `[0, 1]` x-space.
fn layout<'a>(spans: &'a [SpanAgg]) -> Vec<Frame<'a>> {
    let roots: Vec<&SpanAgg> = spans.iter().filter(|s| !s.path.contains('/')).collect();
    let root_total: f64 = roots.iter().map(|s| s.total_us).sum();
    if root_total <= 0.0 {
        return Vec::new();
    }
    // children[parent] = direct children, in path order (deterministic).
    let mut children: BTreeMap<&str, Vec<&SpanAgg>> = BTreeMap::new();
    for s in spans {
        if let Some((parent, _)) = s.path.rsplit_once('/') {
            children.entry(parent).or_default().push(s);
        }
    }
    let mut frames = Vec::new();
    let mut stack: Vec<(usize, f64, f64, &SpanAgg)> = Vec::new();
    let mut x = 0.0;
    for root in roots {
        let w = root.total_us / root_total;
        stack.push((0, x, w, root));
        x += w;
    }
    // Depth-first; children scaled (and clamped) into the parent's slot.
    stack.reverse();
    while let Some((depth, fx, fw, agg)) = stack.pop() {
        frames.push(Frame {
            agg,
            depth,
            x: fx,
            w: fw,
        });
        let Some(kids) = children.get(agg.path.as_str()) else {
            continue;
        };
        let kid_total: f64 = kids.iter().map(|k| k.total_us).sum();
        if kid_total <= 0.0 || agg.total_us <= 0.0 {
            continue;
        }
        // Nested spans on other threads can overlap the parent; clamp the
        // children's combined width to the parent's.
        let scale = fw / kid_total.max(agg.total_us);
        let mut kx = fx;
        let mut placed = Vec::with_capacity(kids.len());
        for kid in kids {
            let kw = kid.total_us * scale;
            placed.push((depth + 1, kx, kw, *kid));
            kx += kw;
        }
        // Reverse before pushing so pops come back in path order.
        stack.extend(placed.into_iter().rev());
    }
    frames
}

fn frame_color(agg: &SpanAgg, balance: f64) -> &'static str {
    match agg.arithmetic_intensity() {
        Some(ai) => match RooflineBound::classify(ai, balance) {
            RooflineBound::Compute => "#f87171",
            RooflineBound::Memory => "#60a5fa",
        },
        None => "#fbbf24",
    }
}

/// Renders the trace's span forest as a self-contained flamegraph SVG.
pub fn flamegraph_svg(analysis: &TraceAnalysis) -> String {
    let frames = layout(&analysis.spans);
    let max_depth = frames.iter().map(|f| f.depth).max().unwrap_or(0);
    let height = 48.0 + (max_depth + 1) as f64 * (ROW_H + 2.0) + MARGIN;
    let plot_w = WIDTH - 2.0 * MARGIN;
    let mut out = String::with_capacity(16 * 1024);
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {WIDTH} {height:.0}\" font-family=\"sans-serif\">"
    );
    let _ = writeln!(
        out,
        "<style>.head{{font-size:15px;font-weight:bold;fill:#18181b}}\
         .note{{font-size:11px;fill:#71717a}}\
         .frame{{font-size:10px;fill:#18181b}}</style>"
    );
    let _ = writeln!(
        out,
        "<rect x=\"0\" y=\"0\" width=\"{WIDTH}\" height=\"{height:.0}\" fill=\"#fafafa\"/>"
    );
    let run = analysis.run_id.as_deref().unwrap_or("trace");
    let _ = writeln!(
        out,
        "<text x=\"{MARGIN}\" y=\"22\" class=\"head\">flamegraph — {}</text>",
        esc(run)
    );
    let _ = writeln!(
        out,
        "<text x=\"{MARGIN}\" y=\"38\" class=\"note\">width ∝ total time; \
         red = compute-bound, blue = memory-bound, amber = no cost model \
         (balance {:.1} FLOP/B)</text>",
        machine_balance()
    );
    if frames.is_empty() {
        let _ = writeln!(
            out,
            "<text x=\"{MARGIN}\" y=\"60\" class=\"note\">no spans in trace</text>"
        );
        out.push_str("</svg>\n");
        return out;
    }
    let balance = machine_balance();
    for f in &frames {
        let x = MARGIN + f.x * plot_w;
        let w = (f.w * plot_w).max(0.5);
        let y = 48.0 + f.depth as f64 * (ROW_H + 2.0);
        let title = format!(
            "{} — total {}, self {}, {} calls",
            f.agg.path,
            fmt_us(f.agg.total_us),
            fmt_us(f.agg.self_us),
            f.agg.count
        );
        let _ = writeln!(
            out,
            "<g><title>{}</title><rect x=\"{x:.2}\" y=\"{y:.1}\" width=\"{w:.2}\" \
             height=\"{ROW_H:.1}\" rx=\"2\" fill=\"{}\" stroke=\"#fafafa\"/></g>",
            esc(&title),
            frame_color(f.agg, balance)
        );
        if w >= MIN_LABEL_W {
            let label = format!("{} {}", leaf(&f.agg.path), fmt_us(f.agg.total_us));
            let keep = ((w - 6.0) / 6.0) as usize;
            let shown: String = label.chars().take(keep.max(1)).collect();
            let _ = writeln!(
                out,
                "<text x=\"{:.2}\" y=\"{:.1}\" class=\"frame\">{}</text>",
                x + 3.0,
                y + ROW_H * 0.72,
                esc(&shown)
            );
        }
    }
    out.push_str("</svg>\n");
    out
}

/// The folded-stack text form (`a;b;c self_us` per line) consumed by
/// external flamegraph tooling; spans with zero self time are kept so
/// the fold total reconciles with the analyzer's self-time sum.
pub fn fold_lines(analysis: &TraceAnalysis) -> String {
    let mut out = String::new();
    for s in &analysis.spans {
        let _ = writeln!(out, "{} {:.0}", s.path.replace('/', ";"), s.self_us);
    }
    out
}

/// Renders the top-`n` attribution table: spans ranked by self time,
/// with achieved GFLOP/s, arithmetic intensity and the roofline verdict
/// for spans that carry a cost model.
pub fn render_attribution(analysis: &TraceAnalysis, n: usize) -> String {
    let total_self: f64 = analysis.spans.iter().map(|s| s.self_us).sum();
    let mut ranked: Vec<&SpanAgg> = analysis.spans.iter().collect();
    ranked.sort_by(|a, b| b.self_us.total_cmp(&a.self_us).then(a.path.cmp(&b.path)));
    let balance = machine_balance();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "self-time attribution (total self {}, balance {balance:.1} FLOP/B)",
        fmt_us(total_self)
    );
    let _ = writeln!(
        out,
        "{:<38} {:>7} {:>10} {:>6} {:>9} {:>7}  verdict",
        "span", "calls", "self", "%", "GFLOP/s", "AI"
    );
    for s in ranked.iter().take(n) {
        let pct = if total_self > 0.0 {
            100.0 * s.self_us / total_self
        } else {
            0.0
        };
        let (gf, ai, verdict) = match (s.gflops(), s.arithmetic_intensity()) {
            (gf, Some(ai)) => (
                gf.map_or_else(|| "-".to_string(), |g| format!("{g:.2}")),
                format!("{ai:.2}"),
                RooflineBound::classify(ai, balance).as_str(),
            ),
            _ => ("-".to_string(), "-".to_string(), "-"),
        };
        let _ = writeln!(
            out,
            "{:<38} {:>7} {:>10} {:>5.1}% {:>9} {:>7}  {}",
            s.path,
            s.count,
            fmt_us(s.self_us),
            pct,
            gf,
            ai,
            verdict
        );
    }
    if analysis.spans.len() > n {
        let _ = writeln!(out, "... {} more spans", analysis.spans.len() - n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::parse_trace_str;

    fn sample_analysis() -> TraceAnalysis {
        let text = "\
{\"ts_us\":10,\"kind\":\"span\",\"name\":\"epoch/gemm[64x64x64]\",\"dur_us\":600.0,\"depth\":1,\"flops\":524288,\"bytes\":65536}\n\
{\"ts_us\":11,\"kind\":\"span\",\"name\":\"epoch/im2col[75x4096]\",\"dur_us\":300.0,\"depth\":1,\"flops\":0,\"bytes\":2457600}\n\
{\"ts_us\":12,\"kind\":\"span\",\"name\":\"epoch\",\"dur_us\":1000.0,\"depth\":0}\n";
        crate::trace::analyze(&parse_trace_str(text))
    }

    #[test]
    fn fold_total_reconciles_with_analyzer_self_time() {
        let analysis = sample_analysis();
        let folded = fold_lines(&analysis);
        let fold_sum: f64 = folded
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
            .sum();
        let self_sum: f64 = analysis.spans.iter().map(|s| s.self_us).sum();
        assert!((fold_sum - self_sum).abs() <= 0.01 * self_sum.max(1.0));
        assert!(folded.contains("epoch;gemm[64x64x64] 600"));
    }

    #[test]
    fn flamegraph_nests_children_and_tints_roofline() {
        let svg = flamegraph_svg(&sample_analysis());
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        // gemm AI = 8 => compute-bound (red); im2col AI 0 => memory (blue);
        // the un-annotated root renders amber.
        assert!(svg.contains("#f87171"), "{svg}");
        assert!(svg.contains("#60a5fa"), "{svg}");
        assert!(svg.contains("#fbbf24"), "{svg}");
        assert!(svg.contains("gemm[64x64x64]"));
    }

    #[test]
    fn attribution_ranks_by_self_time() {
        let analysis = sample_analysis();
        let table = render_attribution(&analysis, 10);
        let gemm_pos = table.find("epoch/gemm").unwrap();
        let im2col_pos = table.find("epoch/im2col").unwrap();
        let epoch_line_pos = table.find("\nepoch ").unwrap();
        // gemm (600) > im2col (300) > epoch self (100).
        assert!(gemm_pos < im2col_pos && im2col_pos < epoch_line_pos, "{table}");
        assert!(table.contains("compute-bound"), "{table}");
        assert!(table.contains("memory-bound"), "{table}");
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let analysis = crate::trace::analyze(&parse_trace_str(""));
        let svg = flamegraph_svg(&analysis);
        assert!(svg.contains("no spans in trace"));
        assert_eq!(fold_lines(&analysis), "");
    }
}
