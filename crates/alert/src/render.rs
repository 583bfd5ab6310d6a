//! Human and machine surfaces for alert state: the `alerts` CLI table,
//! the fleet-page HTML fragment, and the Prometheus exposition block
//! appended to the dash `/metrics` payload.

use std::fmt::Write as _;

use litho_ledger::dash::escape_label;
use litho_ledger::{escape_markup, fmt_unix};

use crate::config::AlertRule;
use crate::record::{AlertRecord, AlertState};

/// Renders the active-alert table shown by `lithogan_cli alerts`.
/// Deterministic given the records (timestamps come from them, not the
/// wall clock), so the output can be golden-tested.
pub fn render_alerts_table(active: &[AlertRecord]) -> String {
    let mut out = String::new();
    if active.is_empty() {
        out.push_str("no active alerts\n");
        return out;
    }
    let header = ["STATE", "SEV", "RULE", "SUBJECT", "SINCE (UTC)", "REASON"];
    let rows: Vec<[String; 6]> = active
        .iter()
        .map(|a| {
            [
                a.state.as_str().to_string(),
                a.severity.clone(),
                a.rule.clone(),
                a.subject.clone(),
                fmt_unix(a.first_seen_unix_s),
                a.reason.clone(),
            ]
        })
        .collect();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    for (i, h) in header.iter().enumerate() {
        let _ = write!(out, "{h:<w$}  ", w = widths[i]);
    }
    out.truncate(out.trim_end().len());
    out.push('\n');
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "{cell:<w$}  ", w = widths[i]);
        }
        out.truncate(out.trim_end().len());
        out.push('\n');
    }
    let firing = active.iter().filter(|a| a.state == AlertState::Firing).count();
    let pending = active.len() - firing;
    let _ = writeln!(out, "{firing} firing, {pending} pending");
    out
}

/// One-line transition notice, shared by `alerts` output and `watch`.
pub fn render_transition(rec: &AlertRecord) -> String {
    format!(
        "alert [{}] {} · {} — {}",
        rec.state.as_str(),
        rec.rule,
        rec.subject,
        rec.reason
    )
}

/// The firing-alerts banner injected into the fleet HTML page. Empty
/// string when nothing is active, so the page stays clean.
pub fn alerts_html(active: &[AlertRecord]) -> String {
    if active.is_empty() {
        return String::new();
    }
    let firing = active.iter().filter(|a| a.state == AlertState::Firing).count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<div class=\"alerts\"><h2>alerts · {firing} firing, {} pending</h2><ul>",
        active.len() - firing
    );
    for a in active {
        let _ = writeln!(
            out,
            "<li class=\"alert-{}\"><b>{}</b> [{}] {} · {} — {}</li>",
            a.state.as_str(),
            escape_markup(a.rule.as_str()),
            a.state.as_str(),
            escape_markup(&a.severity),
            escape_markup(&a.subject),
            escape_markup(&a.reason),
        );
    }
    out.push_str("</ul></div>\n");
    out
}

/// Prometheus exposition for alert state, appended to the dash
/// `/metrics` payload after the fleet families. Every configured rule
/// exports a `lithogan_alerts_firing` sample (0 when quiet) so "rule
/// exists but never fired" and "rule missing" are distinguishable to
/// scrapers, plus per-state totals.
pub fn alerts_exposition(rules: &[AlertRule], active: &[AlertRecord]) -> String {
    let mut out = String::new();
    out.push_str(
        "# HELP lithogan_alerts_firing Whether the alert rule currently has a firing alert \
         (1 firing, 0 quiet).\n# TYPE lithogan_alerts_firing gauge\n",
    );
    for rule in rules {
        let firing = active
            .iter()
            .any(|a| a.rule == rule.name && a.state == AlertState::Firing);
        let _ = writeln!(
            out,
            "lithogan_alerts_firing{{rule=\"{}\",severity=\"{}\"}} {}",
            escape_label(&rule.name),
            escape_label(&rule.severity),
            firing as u32
        );
    }
    out.push_str(
        "# HELP lithogan_alerts_active Active alerts by state.\n\
         # TYPE lithogan_alerts_active gauge\n",
    );
    for state in [AlertState::Pending, AlertState::Firing] {
        let n = active.iter().filter(|a| a.state == state).count();
        let _ = writeln!(
            out,
            "lithogan_alerts_active{{state=\"{}\"}} {n}",
            state.as_str()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::default_rules;
    use crate::record::{fingerprint, ALERTS_SCHEMA};

    fn rec(rule: &str, subject: &str, state: AlertState) -> AlertRecord {
        AlertRecord {
            schema_version: ALERTS_SCHEMA,
            rule: rule.to_string(),
            kind: "health".to_string(),
            severity: "page".to_string(),
            state,
            fingerprint: fingerprint(rule, subject),
            subject: subject.to_string(),
            reason: "health verdict: nan-poisoned".to_string(),
            value: None,
            streak: 1,
            first_seen_unix_s: 1_700_000_100,
            last_seen_unix_s: 1_700_000_400,
        }
    }

    #[test]
    fn table_lists_alerts_and_counts() {
        let out = render_alerts_table(&[
            rec("unhealthy-run", "train-1700000100-1", AlertState::Firing),
            rec("ede-drift", "fleet/ede_mean_nm", AlertState::Pending),
        ]);
        assert!(out.starts_with("STATE"));
        assert!(out.contains("firing"));
        assert!(out.contains("train-1700000100-1"));
        assert!(out.contains("2023-11-14 22:15")); // fmt_unix of first_seen
        assert!(out.ends_with("1 firing, 1 pending\n"));
        assert_eq!(render_alerts_table(&[]), "no active alerts\n");
    }

    #[test]
    fn html_escapes_and_counts() {
        let mut a = rec("r<1>", "train&x", AlertState::Firing);
        a.reason = "\"quoted\"".to_string();
        let html = alerts_html(&[a]);
        assert!(html.contains("r&lt;1&gt;"));
        assert!(html.contains("train&amp;x"));
        assert!(html.contains("&quot;quoted&quot;"));
        assert!(html.contains("1 firing, 0 pending"));
        assert_eq!(alerts_html(&[]), "");
    }

    #[test]
    fn exposition_covers_every_rule() {
        let rules = default_rules();
        let active = [rec("unhealthy-run", "train-1700000100-1", AlertState::Firing)];
        let text = alerts_exposition(&rules, &active);
        assert!(text.contains("# TYPE lithogan_alerts_firing gauge"));
        assert!(text
            .contains("lithogan_alerts_firing{rule=\"unhealthy-run\",severity=\"page\"} 1"));
        assert!(text.contains("lithogan_alerts_firing{rule=\"ede-drift\",severity=\"warn\"} 0"));
        assert!(text.contains("lithogan_alerts_firing{rule=\"stale-run\",severity=\"warn\"} 0"));
        assert!(text.contains("lithogan_alerts_active{state=\"firing\"} 1"));
        assert!(text.contains("lithogan_alerts_active{state=\"pending\"} 0"));
    }
}
