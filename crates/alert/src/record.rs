//! Stateful alert records and the append-only `runs/alerts.jsonl` store.
//!
//! Alert state follows the Prometheus/Alertmanager lifecycle: an alert
//! is *pending* while a rule's condition holds but the configured
//! `for` streak hasn't been reached, *firing* once confirmed, and
//! *resolved* when the condition clears. Records are deduplicated by a
//! *fingerprint* — an FNV-1a hash of `(rule name, subject)` — so the
//! same regression observed across many evaluations stays one alert.
//!
//! Persistence mirrors `runs/index.jsonl` exactly: the engine appends
//! one line per *state transition* with a single `O_APPEND` write (a
//! crashed writer can tear at most the final line), and readers replay
//! the log with last-wins-per-fingerprint semantics, skipping torn or
//! malformed lines. Steady state — an alert that keeps firing — appends
//! nothing, so the log stays proportional to state changes, not to
//! evaluation frequency.

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use litho_json::jsonl::{parse_jsonl_with, JsonlParse};
use litho_json::{write_f64, write_str, Json};
use litho_ledger::Fnv1a;

/// Bumped whenever the alert record layout changes incompatibly.
pub const ALERTS_SCHEMA: u32 = 1;

/// Lifecycle state of one alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Condition holds but the `for` streak is not yet satisfied.
    Pending,
    /// Condition confirmed for the configured number of evaluations.
    Firing,
    /// Condition no longer holds.
    Resolved,
}

impl AlertState {
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }

    pub fn parse(s: &str) -> Option<AlertState> {
        match s {
            "pending" => Some(AlertState::Pending),
            "firing" => Some(AlertState::Firing),
            "resolved" => Some(AlertState::Resolved),
            _ => None,
        }
    }
}

/// One line of `runs/alerts.jsonl`: the state of one `(rule, subject)`
/// pair at the evaluation that changed it.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRecord {
    pub schema_version: u32,
    /// Name of the rule that produced this alert.
    pub rule: String,
    /// Rule kind discriminator (`threshold`/`drift`/`slice_drift`/`health`/`stale`).
    pub kind: String,
    /// Severity copied from the rule (`warn`/`page`).
    pub severity: String,
    pub state: AlertState,
    /// FNV-1a hash of `(rule, subject)`, hex — the dedup key.
    pub fingerprint: String,
    /// What the alert is about: a run id, or `fleet/<metric>` for
    /// fleet-wide drift.
    pub subject: String,
    /// Human-readable explanation of the current condition.
    pub reason: String,
    /// The observed value that tripped the rule, when numeric.
    pub value: Option<f64>,
    /// Consecutive evaluations the condition has held.
    pub streak: u64,
    pub first_seen_unix_s: u64,
    pub last_seen_unix_s: u64,
}

impl AlertRecord {
    /// Renders as a compact JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"schema_version\":");
        let _ = write!(out, "{}", self.schema_version);
        push_str_field(&mut out, "rule", &self.rule);
        push_str_field(&mut out, "kind", &self.kind);
        push_str_field(&mut out, "severity", &self.severity);
        push_str_field(&mut out, "state", self.state.as_str());
        push_str_field(&mut out, "fingerprint", &self.fingerprint);
        push_str_field(&mut out, "subject", &self.subject);
        push_str_field(&mut out, "reason", &self.reason);
        out.push_str(",\"value\":");
        match self.value {
            Some(v) if v.is_finite() => write_f64(&mut out, v),
            // NaN tripped the rule: record null, the reader maps it back.
            Some(_) => out.push_str("null"),
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"streak\":{},\"first_seen_unix_s\":{},\"last_seen_unix_s\":{}}}",
            self.streak, self.first_seen_unix_s, self.last_seen_unix_s
        );
        out
    }

    /// One JSONL line (trailing newline included).
    pub fn to_jsonl(&self) -> String {
        let mut line = self.to_json();
        line.push('\n');
        line
    }

    /// Decodes one parsed JSON object; `None` when required fields are
    /// missing or malformed (the caller skips the line).
    pub fn from_json(v: &Json) -> Option<AlertRecord> {
        Some(AlertRecord {
            schema_version: v.get("schema_version")?.as_u64()? as u32,
            rule: v.get("rule")?.as_str()?.to_string(),
            kind: v.get("kind")?.as_str()?.to_string(),
            severity: v.get("severity")?.as_str()?.to_string(),
            state: AlertState::parse(v.get("state")?.as_str()?)?,
            fingerprint: v.get("fingerprint")?.as_str()?.to_string(),
            subject: v.get("subject")?.as_str()?.to_string(),
            reason: v.get("reason")?.as_str()?.to_string(),
            value: v.get("value").and_then(Json::as_f64),
            streak: v.get("streak")?.as_u64()?,
            first_seen_unix_s: v.get("first_seen_unix_s")?.as_u64()?,
            last_seen_unix_s: v.get("last_seen_unix_s")?.as_u64()?,
        })
    }
}

fn push_str_field(out: &mut String, key: &str, v: &str) {
    out.push(',');
    write_str(out, key);
    out.push(':');
    write_str(out, v);
}

/// FNV-1a (64-bit) over `rule` and `subject`, hex-encoded — stable
/// across processes, cheap, and collision-safe at fleet scale.
pub fn fingerprint(rule: &str, subject: &str) -> String {
    let mut hash = Fnv1a::new();
    hash.write(rule.as_bytes());
    hash.write(&[0]);
    hash.write(subject.as_bytes());
    hash.hex()
}

/// `<runs_root>/alerts.jsonl`.
pub fn alerts_path(runs_root: &Path) -> PathBuf {
    runs_root.join("alerts.jsonl")
}

/// Appends transition records to `runs/alerts.jsonl` as one `O_APPEND`
/// write, creating the file (and the runs root) if needed. A no-op for
/// an empty slice — no file is touched.
pub fn append_alerts(runs_root: &Path, records: &[AlertRecord]) -> io::Result<()> {
    if records.is_empty() {
        return Ok(());
    }
    std::fs::create_dir_all(runs_root)?;
    let mut buf = String::with_capacity(records.len() * 256);
    for r in records {
        buf.push_str(&r.to_jsonl());
    }
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(alerts_path(runs_root))?;
    f.write_all(buf.as_bytes())?;
    Ok(())
}

/// The replayed alert log.
#[derive(Debug, Default, Clone)]
pub struct AlertsLoad {
    /// Last-written record per fingerprint, in first-seen order
    /// (ties broken by rule name). Includes resolved alerts.
    pub alerts: Vec<AlertRecord>,
    /// Malformed interior lines skipped during replay.
    pub skipped_lines: usize,
    /// True when the final line was torn (no trailing newline).
    pub truncated_tail: bool,
}

impl AlertsLoad {
    /// The alerts still pending or firing.
    pub fn active(&self) -> Vec<AlertRecord> {
        self.alerts
            .iter()
            .filter(|a| a.state != AlertState::Resolved)
            .cloned()
            .collect()
    }
}

/// Replays `runs/alerts.jsonl` with last-wins-per-fingerprint dedup.
/// A missing file is an empty log, torn/malformed lines are skipped.
pub fn load_alerts(runs_root: &Path) -> io::Result<AlertsLoad> {
    let path = alerts_path(runs_root);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(AlertsLoad::default()),
        Err(e) => return Err(e),
    };
    let JsonlParse {
        records,
        skipped_lines,
        truncated_tail,
    } = parse_jsonl_with(&text, AlertRecord::from_json);
    let mut alerts: Vec<AlertRecord> = Vec::new();
    for rec in records {
        match alerts.iter_mut().find(|a| a.fingerprint == rec.fingerprint) {
            Some(slot) => *slot = rec,
            None => alerts.push(rec),
        }
    }
    alerts.sort_by(|a, b| {
        (a.first_seen_unix_s, &a.rule, &a.subject).cmp(&(b.first_seen_unix_s, &b.rule, &b.subject))
    });
    Ok(AlertsLoad {
        alerts,
        skipped_lines,
        truncated_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rule: &str, subject: &str, state: AlertState, streak: u64) -> AlertRecord {
        AlertRecord {
            schema_version: ALERTS_SCHEMA,
            rule: rule.to_string(),
            kind: "health".to_string(),
            severity: "page".to_string(),
            state,
            fingerprint: fingerprint(rule, subject),
            subject: subject.to_string(),
            reason: "health verdict: nan-poisoned".to_string(),
            value: Some(12.5),
            streak,
            first_seen_unix_s: 1_700_000_100,
            last_seen_unix_s: 1_700_000_200,
        }
    }

    #[test]
    fn record_round_trips() {
        let rec = sample("unhealthy-run", "train-1700000100-1", AlertState::Firing, 3);
        let parsed = AlertRecord::from_json(&Json::parse(&rec.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, rec);
    }

    #[test]
    fn nan_value_round_trips_as_null() {
        let mut rec = sample("t", "r", AlertState::Pending, 1);
        rec.value = Some(f64::NAN);
        let parsed = AlertRecord::from_json(&Json::parse(&rec.to_json()).unwrap()).unwrap();
        assert_eq!(parsed.value, None);
    }

    #[test]
    fn fingerprint_is_stable_and_separates_fields() {
        assert_eq!(fingerprint("a", "b"), fingerprint("a", "b"));
        assert_ne!(fingerprint("a", "b"), fingerprint("b", "a"));
        // The separator byte keeps ("ab","") distinct from ("a","b").
        assert_ne!(fingerprint("ab", ""), fingerprint("a", "b"));
    }

    #[test]
    fn load_dedups_last_wins_and_survives_torn_tail() {
        let dir = std::env::temp_dir().join(format!("litho-alert-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        assert!(load_alerts(&dir).unwrap().alerts.is_empty());

        let pending = sample("unhealthy-run", "train-1", AlertState::Pending, 1);
        let firing = sample("unhealthy-run", "train-1", AlertState::Firing, 2);
        let other = sample("ede-drift", "fleet/ede_mean_nm", AlertState::Firing, 2);
        append_alerts(&dir, &[pending]).unwrap();
        append_alerts(&dir, &[firing.clone(), other.clone()]).unwrap();
        // Torn final line, as a crashed writer would leave it.
        use std::io::Write as _;
        let mut f = OpenOptions::new()
            .append(true)
            .open(alerts_path(&dir))
            .unwrap();
        f.write_all(b"{\"schema_version\":1,\"rule\":\"tor").unwrap();
        drop(f);

        let load = load_alerts(&dir).unwrap();
        assert!(load.truncated_tail);
        assert_eq!(load.alerts.len(), 2);
        // Same first-seen: ordered by rule name; last-wins per fingerprint.
        assert_eq!(load.alerts[0], other);
        assert_eq!(load.alerts[1], firing);
        assert_eq!(load.active().len(), 2);

        std::fs::remove_dir_all(&dir).ok();
    }
}
