//! Fleet alerting for the LithoGAN runs ledger.
//!
//! The observability stack can *show* everything — traces, health
//! verdicts, drift streaks, a Prometheus dash — but unattended fleets
//! need something that *acts* on it. `litho-alert` closes that gap
//! with three pieces, all std-only like the rest of the workspace:
//!
//! * `config`: declarative alert rules (threshold, direction-aware
//!   drift, health-verdict, stale-run) parsed from an `alerts.toml`
//!   subset by hand — see [`parse_rules`] and [`default_rules`].
//! * `engine`: one [`evaluate`] pass turns rules plus fleet state
//!   (the `runs/index.jsonl` records, run-directory activity, the
//!   clock) into stateful alerts — pending → firing → resolved, with
//!   first/last-seen stamps and a dedup [`fingerprint`].
//! * `record`: the append-only `runs/alerts.jsonl` store, with the
//!   same torn-tail-tolerant, last-wins replay semantics as the run
//!   index.
//!
//! Surfaces live in `render`: the CLI table, the fleet-page HTML
//! banner and the `lithogan_alerts_firing` Prometheus families.
//!
//! ```
//! use litho_alert::{default_rules, evaluate, EngineContext};
//! let outcome = evaluate(
//!     &default_rules(),
//!     &EngineContext { records: &[], runs_root: std::path::Path::new("/nonexistent"), now_unix_s: 0 },
//!     &[],
//! );
//! assert!(outcome.active.is_empty());
//! ```

mod config;
mod engine;
mod record;
mod render;

pub use config::{default_rules, parse_rules, AlertRule, Comparison, RuleKind};
pub use engine::{evaluate, evaluate_rule, EngineContext, EvalOutcome, Incident};
pub use record::{
    alerts_path, append_alerts, fingerprint, load_alerts, AlertRecord, AlertState, AlertsLoad,
    ALERTS_SCHEMA,
};
pub use render::{alerts_exposition, alerts_html, render_alerts_table, render_transition};

use std::io;
use std::path::Path;

/// Loads the rule set for a runs root: an explicit `--rules` path if
/// given (missing file is an error), else `<runs_root>/alerts.toml` if
/// present, else [`default_rules`]. Parse errors name the file.
pub fn load_rules(runs_root: &Path, explicit: Option<&Path>) -> io::Result<Vec<AlertRule>> {
    let path = match explicit {
        Some(p) => p.to_path_buf(),
        None => {
            let p = runs_root.join("alerts.toml");
            if !p.exists() {
                return Ok(default_rules());
            }
            p
        }
    };
    let text = std::fs::read_to_string(&path)?;
    parse_rules(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}
